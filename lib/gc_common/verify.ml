module Heap = Heapsim.Heap
module Object_table = Heapsim.Object_table
module Page_map = Heapsim.Page_map

let fail fmt = Printf.ksprintf (fun msg -> failwith ("verify: " ^ msg)) fmt

(* Every live object is placed and registered on each page it spans. *)
let check_placements heap =
  let objects = Heap.objects heap in
  let page_map = Heap.page_map heap in
  let on_page = Repro_util.Vec.create () in
  Object_table.iter_live objects (fun id ->
      let addr = Object_table.addr objects id in
      if addr < 0 then fail "live object #%d has no placement" id;
      Heap.iter_pages heap id (fun page ->
          Page_map.objects_on page_map page on_page;
          if not (Repro_util.Vec.exists (Int.equal id) on_page) then
            fail "live object #%d spans page %d but is not in the page map"
              id page))

(* Every page-map entry on a page hosting live objects denotes a live
   object that actually spans the page, and such pages are mapped in the
   VMM and owned by the heap's process. *)
let check_pages heap =
  let objects = Heap.objects heap in
  let page_map = Heap.page_map heap in
  let vmm = Heap.vmm heap in
  let our_pid = Vmsim.Process.pid (Heap.process heap) in
  let pages = Hashtbl.create 256 in
  Object_table.iter_live objects (fun id ->
      Heap.iter_pages heap id (fun page ->
          if not (Hashtbl.mem pages page) then Hashtbl.add pages page ()));
  Hashtbl.iter
    (fun page () ->
      Page_map.iter_on page_map page (fun id ->
          if not (Object_table.is_live objects id) then
            fail "page %d lists dead object #%d" page id;
          let spans = ref false in
          Heap.iter_pages heap id (fun p -> if p = page then spans := true);
          if not !spans then
            fail "page %d lists object #%d which does not span it" page id);
      (match Vmsim.Vmm.owner vmm page with
      | None -> fail "page %d hosts live objects but is unmapped" page
      | Some proc ->
          if Vmsim.Process.pid proc <> our_pid then
            fail "page %d hosts our objects but belongs to pid %d" page
              (Vmsim.Process.pid proc)))
    pages

(* No two live objects overlap in the address space. *)
let check_overlap heap =
  let objects = Heap.objects heap in
  let placed = ref [] in
  Object_table.iter_live objects (fun id ->
      let addr = Object_table.addr objects id in
      if addr >= 0 then placed := (addr, Object_table.size objects id, id) :: !placed);
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) !placed
  in
  let rec scan = function
    | (a1, s1, id1) :: ((a2, _, id2) :: _ as rest) ->
        if a1 + s1 > a2 then
          fail "objects #%d [%d,%d) and #%d [%d,...) overlap" id1 a1 (a1 + s1)
            id2 a2;
        scan rest
    | _ -> ()
  in
  scan sorted

(* Everything reachable from the roots is live: a reachable dangling
   reference means liveness summaries (marks, bookmarks) lost an edge. *)
let check_reachability heap =
  let objects = Heap.objects heap in
  let seen = Hashtbl.create 1024 in
  let stack = ref [] in
  let enqueue src id =
    if not (Heapsim.Obj_id.is_null id) && not (Hashtbl.mem seen id) then begin
      if not (Object_table.is_live objects id) then
        (match src with
        | None -> fail "root references freed object #%d" id
        | Some s -> fail "reachable object #%d references freed object #%d" s id);
      Hashtbl.add seen id ();
      stack := id :: !stack
    end
  in
  Heap.iter_roots heap (fun id -> enqueue None id);
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        Object_table.iter_refs objects id (fun _field target ->
            enqueue (Some id) target);
        drain ()
  in
  drain ()

let heap h =
  check_placements h;
  check_pages h;
  check_overlap h;
  check_reachability h
