module Vec = Repro_util.Vec

type t = {
  heap : Heapsim.Heap.t;
  name : string;
  objects : Heapsim.Obj_id.t Vec.t;
  page_ranges : (int, int) Hashtbl.t;  (* first page -> npages *)
  owned : Repro_util.Bitset.t;  (* every page of every live range *)
  mutable pages : int;
}

let create heap ~name =
  {
    heap;
    name;
    objects = Vec.create ();
    page_ranges = Hashtbl.create 16;
    owned = Repro_util.Bitset.create ();
    pages = 0;
  }

let alloc t ~bytes ~grow =
  let npages = Vmsim.Page.count_for_bytes bytes in
  if not (grow ~npages) then -1
  else begin
    let first_page =
      Heapsim.Address_space.reserve (Heapsim.Heap.address_space t.heap) ~npages
    in
    Vmsim.Vmm.map_range (Heapsim.Heap.vmm t.heap)
      (Heapsim.Heap.process t.heap) ~first_page ~npages;
    Hashtbl.add t.page_ranges first_page npages;
    for page = first_page to first_page + npages - 1 do
      Repro_util.Bitset.set t.owned page
    done;
    t.pages <- t.pages + npages;
    Vmsim.Page.addr_of first_page
  end

let note_object t id = Vec.push t.objects id

let owns_page t page = Repro_util.Bitset.mem t.owned page

let pages_in_use t = t.pages

let sweep ?(on_free = fun _ -> ()) t ~keep =
  let heap = t.heap in
  Vec.filter_in_place
    (fun id ->
      Charge.object_visit heap;
      keep id
      || begin
           let first_page = Heapsim.Heap.first_page heap id in
           let npages = Hashtbl.find t.page_ranges first_page in
           Heapsim.Heap.free_object heap id;
           Vmsim.Vmm.unmap_range (Heapsim.Heap.vmm heap) ~first_page ~npages;
           Hashtbl.remove t.page_ranges first_page;
           t.pages <- t.pages - npages;
           for page = first_page to first_page + npages - 1 do
             Repro_util.Bitset.clear t.owned page;
             on_free page
           done;
           false
         end)
    t.objects
