type t = {
  heap : Heapsim.Heap.t;
  name : string;
  first_page : int;
  npages : int;
  base : int;
  mutable bump : int;
}

let create heap ~name ~npages =
  let first_page =
    Heapsim.Address_space.reserve (Heapsim.Heap.address_space heap) ~npages
  in
  Vmsim.Vmm.map_range (Heapsim.Heap.vmm heap) (Heapsim.Heap.process heap)
    ~first_page ~npages;
  let base = Vmsim.Page.addr_of first_page in
  { heap; name; first_page; npages; base; bump = base }

let capacity_bytes t = t.npages * Vmsim.Page.size

let used_bytes t = t.bump - t.base

let alloc t ~bytes ~limit_bytes =
  if bytes <= 0 then invalid_arg ("Bump_space.alloc: " ^ t.name)
  else if
    used_bytes t + bytes > Int.min limit_bytes (capacity_bytes t)
  then -1
  else begin
    let addr = t.bump in
    t.bump <- t.bump + bytes;
    addr
  end

let reset t = t.bump <- t.base

let contains t addr = addr >= t.base && addr < t.base + capacity_bytes t

let first_page t = t.first_page

let npages t = t.npages

let used_pages t =
  if t.bump = t.base then 0 else Vmsim.Page.of_addr (t.bump - 1) - t.first_page + 1

let iter_pages t f =
  for p = t.first_page to t.first_page + t.npages - 1 do
    f p
  done

let discard_pages t =
  let vmm = Heapsim.Heap.vmm t.heap in
  iter_pages t (fun p -> Vmsim.Vmm.madvise_dontneed vmm p)
