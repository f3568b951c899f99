module Vec = Repro_util.Vec

type page_rec = {
  page : int;
  mutable cls : int;
  mutable cells_total : int;
  free : int Vec.t;  (* free cell addresses *)
  mutable on_partial : bool;
}

type t = {
  heap : Heapsim.Heap.t;
  name : string;
  max_cell : int;
  partial : page_rec Vec.t array;  (* per class: pages with free cells *)
  empty_pool : page_rec Vec.t;
  page_recs : (int, page_rec) Hashtbl.t;
  pages : int Vec.t;  (* acquisition order *)
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
    page_recs = Hashtbl.create 64;
    pages = Vec.create ();
    free_bytes = 0;
  }

let max_cell t = t.max_cell

let owns_page t page = Hashtbl.mem t.page_recs page

let pages_acquired t = Vec.length t.pages

let free_bytes t = t.free_bytes

let iter_pages t f = Vec.iter f t.pages

(* Carve a page into cells of class [cls]. *)
let assign_class pr cls =
  let cell = Size_class.cell_size cls in
  let ncells = Vmsim.Page.size / cell in
  pr.cls <- cls;
  pr.cells_total <- ncells;
  Vec.clear pr.free;
  let base = Vmsim.Page.addr_of pr.page in
  for i = 0 to ncells - 1 do
    Vec.push pr.free (base + (i * cell))
  done

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
        free = Vec.create ();
        on_partial = false;
      }
    in
    Hashtbl.add t.page_recs first_page pr;
    Vec.push t.pages first_page;
    assign_class pr cls;
    t.free_bytes <- t.free_bytes + (pr.cells_total * Size_class.cell_size cls);
    Some pr
  end
  else None

(* Pop a page with a free cell for [cls], dropping stale entries. *)
let rec pop_partial t cls =
  let v = t.partial.(cls) in
  if Vec.is_empty v then None
  else begin
    let pr = Vec.top v in
    if pr.cls <> cls || Vec.is_empty pr.free then begin
      ignore (Vec.pop v);
      pr.on_partial <- false;
      pop_partial t cls
    end
    else Some pr
  end

let alloc t ~bytes ~grow =
  if bytes > t.max_cell then
    invalid_arg
      (Printf.sprintf "Ms_space.alloc(%s): %d bytes exceeds max cell %d"
         t.name bytes t.max_cell);
  match Size_class.class_of_size bytes with
  | None -> assert false
  | Some cls -> (
      let page_opt =
        match pop_partial t cls with
        | Some pr -> Some pr
        | None -> (
            match acquire_page t cls ~grow with
            | Some pr ->
                pr.on_partial <- true;
                Vec.push t.partial.(cls) pr;
                Some pr
            | None -> None)
      in
      match page_opt with
      | None -> -1
      | Some pr ->
          let addr = Vec.pop pr.free in
          t.free_bytes <- t.free_bytes - Size_class.cell_size cls;
          if Vec.is_empty pr.free then begin
            (* drop from the partial list lazily via the flag *)
            pr.on_partial <- false;
            let v = t.partial.(cls) in
            if not (Vec.is_empty v) && Vec.top v == pr then ignore (Vec.pop v)
          end;
          addr)

let sweep t ~keep =
  let heap = t.heap in
  let objects = Heapsim.Heap.objects heap in
  let vmm = Heapsim.Heap.vmm heap in
  Vec.iter
    (fun page ->
      Charge.page_sweep heap;
      Vmsim.Vmm.touch vmm ~write:true page;
      let pr = Hashtbl.find t.page_recs page in
      let on_page = Heapsim.Page_map.objects_on (Heapsim.Heap.page_map heap) page in
      Array.iter
        (fun id ->
          if not (keep id) then begin
            let addr = Heapsim.Object_table.addr objects id in
            Heapsim.Heap.free_object heap id;
            Vec.push pr.free addr;
            t.free_bytes <- t.free_bytes + Size_class.cell_size pr.cls
          end)
        on_page;
      if Vec.length pr.free = pr.cells_total && pr.cells_total > 0 then begin
        (* wholly empty: recycle to any class *)
        t.free_bytes <-
          t.free_bytes
          - (pr.cells_total * Size_class.cell_size pr.cls)
          + Vmsim.Page.size;
        Vec.clear pr.free;
        pr.cells_total <- 0;
        pr.on_partial <- false;
        Vec.push t.empty_pool pr
      end
      else if (not pr.on_partial) && not (Vec.is_empty pr.free) then begin
        pr.on_partial <- true;
        Vec.push t.partial.(pr.cls) pr
      end)
    t.pages
