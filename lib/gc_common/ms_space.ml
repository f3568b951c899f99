module Vec = Repro_util.Vec

(* A page's free cells are its lowest [fresh] cells, never handed out
   since the carve, and the cells a sweep gave back, listed in [free].
   [free] is popped first and the fresh cells then go highest address
   first: the order a [free] list filled with every cell in address order
   at carve time would pop them in, without writing the list. *)
type page_rec = {
  page : int;
  mutable cls : int;
  mutable cells_total : int;
  mutable fresh : int;
  free : int Vec.t;  (* returned cell addresses *)
  mutable on_partial : bool;
}

type t = {
  heap : Heapsim.Heap.t;
  name : string;
  max_cell : int;
  partial : page_rec Vec.t array;  (* per class: pages with free cells *)
  empty_pool : page_rec Vec.t;
  pages : page_rec Vec.t;  (* acquisition order *)
  owned : Repro_util.Bitset.t;  (* their page numbers *)
  on_page : Heapsim.Obj_id.t Vec.t;  (* the sweep's copy of a page's objects *)
  mutable free_bytes : int;
}

let create heap ~name ~max_cell =
  if max_cell > Vmsim.Page.size then
    invalid_arg "Ms_space.create: max_cell exceeds a page";
  {
    heap;
    name;
    max_cell;
    partial = Array.init Size_class.count (fun _ -> Vec.create ());
    empty_pool = Vec.create ();
    pages = Vec.create ();
    owned = Repro_util.Bitset.create ();
    on_page = Vec.create ();
    free_bytes = 0;
  }

let max_cell t = t.max_cell

let owns_page t page = Repro_util.Bitset.mem t.owned page

let pages_acquired t = Vec.length t.pages

let free_bytes t = t.free_bytes

let iter_pages t f = Vec.iter (fun pr -> f pr.page) t.pages

let free_count pr = Vec.length pr.free + pr.fresh

(* Carve a page into cells of class [cls]. *)
let assign_class pr cls =
  let ncells = Vmsim.Page.size / Size_class.cell_size cls in
  pr.cls <- cls;
  pr.cells_total <- ncells;
  pr.fresh <- ncells;
  Vec.clear pr.free

let acquire_page t cls ~grow =
  if not (Vec.is_empty t.empty_pool) then begin
    let pr = Vec.pop t.empty_pool in
    t.free_bytes <- t.free_bytes - Vmsim.Page.size;
    assign_class pr cls;
    t.free_bytes <- t.free_bytes + (pr.cells_total * Size_class.cell_size cls);
    Some pr
  end
  else if grow () then begin
    let first_page =
      Heapsim.Address_space.reserve (Heapsim.Heap.address_space t.heap)
        ~npages:1
    in
    Vmsim.Vmm.map_range (Heapsim.Heap.vmm t.heap)
      (Heapsim.Heap.process t.heap) ~first_page ~npages:1;
    let pr =
      {
        page = first_page;
        cls;
        cells_total = 0;
        fresh = 0;
        free = Vec.create ();
        on_partial = false;
      }
    in
    Vec.push t.pages pr;
    Repro_util.Bitset.set t.owned first_page;
    assign_class pr cls;
    t.free_bytes <- t.free_bytes + (pr.cells_total * Size_class.cell_size cls);
    Some pr
  end
  else None

(* Whether a page with a free cell for [cls] tops its partial list,
   dropping stale entries above it. *)
let rec has_partial t cls =
  let v = t.partial.(cls) in
  (not (Vec.is_empty v))
  &&
  let pr = Vec.top v in
  if pr.cls <> cls || free_count pr = 0 then begin
    ignore (Vec.pop v);
    pr.on_partial <- false;
    has_partial t cls
  end
  else true

(* Put a freshly acquired page for [cls] on top of its partial list. *)
let push_acquired t cls ~grow =
  match acquire_page t cls ~grow with
  | Some pr ->
      pr.on_partial <- true;
      Vec.push t.partial.(cls) pr;
      true
  | None -> false

let alloc t ~bytes ~grow =
  if bytes > t.max_cell then
    invalid_arg
      (Printf.sprintf "Ms_space.alloc(%s): %d bytes exceeds max cell %d"
         t.name bytes t.max_cell);
  let cls = Size_class.class_of_size bytes in
  assert (cls >= 0);
  if not (has_partial t cls || push_acquired t cls ~grow) then -1
  else begin
    let v = t.partial.(cls) in
    let pr = Vec.top v in
    let cell = Size_class.cell_size cls in
    let addr =
      if Vec.is_empty pr.free then begin
        pr.fresh <- pr.fresh - 1;
        Vmsim.Page.addr_of pr.page + (pr.fresh * cell)
      end
      else Vec.pop pr.free
    in
    t.free_bytes <- t.free_bytes - cell;
    if free_count pr = 0 then begin
      (* drop from the partial list lazily via the flag *)
      pr.on_partial <- false;
      ignore (Vec.pop v)
    end;
    addr
  end

(* Each free swap-removes an entry from the page's bucket, so the sweep
   walks a copy of it. *)
let sweep t ~keep =
  let heap = t.heap in
  let objects = Heapsim.Heap.objects heap in
  let vmm = Heapsim.Heap.vmm heap in
  let on_page = t.on_page in
  Vec.iter
    (fun pr ->
      let page = pr.page in
      Charge.page_sweep heap;
      Vmsim.Vmm.touch vmm ~write:true page;
      Heapsim.Page_map.objects_on (Heapsim.Heap.page_map heap) page on_page;
      for i = 0 to Vec.length on_page - 1 do
        let id = Vec.get on_page i in
        if not (keep id) then begin
          let addr = Heapsim.Object_table.addr objects id in
          Heapsim.Heap.free_object heap id;
          Vec.push pr.free addr;
          t.free_bytes <- t.free_bytes + Size_class.cell_size pr.cls
        end
      done;
      if free_count pr = pr.cells_total && pr.cells_total > 0 then begin
        (* wholly empty: recycle to any class *)
        t.free_bytes <-
          t.free_bytes
          - (pr.cells_total * Size_class.cell_size pr.cls)
          + Vmsim.Page.size;
        Vec.clear pr.free;
        pr.fresh <- 0;
        pr.cells_total <- 0;
        pr.on_partial <- false;
        Vec.push t.empty_pool pr
      end
      else if (not pr.on_partial) && free_count pr > 0 then begin
        pr.on_partial <- true;
        Vec.push t.partial.(pr.cls) pr
      end)
    t.pages
