module Heap = Heapsim.Heap
module Object_table = Heapsim.Object_table
module Page_map = Heapsim.Page_map
module Vec = Repro_util.Vec

let fail fmt = Printf.ksprintf (fun msg -> failwith ("verify: " ^ msg)) fmt

let last_page objects id =
  Vmsim.Page.of_addr
    (Object_table.addr objects id + Object_table.size objects id - 1)

(* Every live object is placed, and lies either wholly on indexed pages
   or wholly inside one unindexed range. Returns, for each page hosting
   live objects, how many of them span it. *)
let check_placements heap =
  let objects = Heap.objects heap in
  let page_map = Heap.page_map heap in
  let spanning = Hashtbl.create 256 in
  Object_table.iter_live objects (fun id ->
      if Object_table.addr objects id < 0 then
        fail "live object #%d has no placement" id;
      let first = Heap.first_page heap id and last = last_page objects id in
      (match Page_map.unindexed_range page_map first with
      | Some (_, range_last) ->
          if last > range_last then
            fail
              "live object #%d on unindexed page %d runs past its range to \
               page %d"
              id first last
      | None ->
          for page = first + 1 to last do
            if not (Page_map.indexed page_map page) then
              fail "live object #%d on indexed page %d spans unindexed page %d"
                id first page
          done);
      for page = first to last do
        let n = Option.value (Hashtbl.find_opt spanning page) ~default:0 in
        Hashtbl.replace spanning page (n + 1)
      done);
  spanning

(* The bucket of each indexed page hosting live objects lists live
   objects that span the page, each once; an object whose first page it
   is has its page_slot at its entry. Its length then equals the number
   of live objects spanning the page exactly when none is missing. *)
let check_buckets heap spanning =
  let objects = Heap.objects heap in
  let page_map = Heap.page_map heap in
  let on_page = Vec.create () in
  let listed = Hashtbl.create 64 in
  let missing page =
    Object_table.iter_live objects (fun id ->
        if
          Heap.first_page heap id <= page
          && page <= last_page objects id
          && not (Hashtbl.mem listed id)
        then
          fail "live object #%d spans page %d but is not in the page map" id
            page)
  in
  Hashtbl.iter
    (fun page count ->
      if Page_map.indexed page_map page then begin
        Page_map.objects_on page_map page on_page;
        Hashtbl.reset listed;
        Vec.iter
          (fun id ->
            if not (Object_table.is_live objects id) then
              fail "page %d lists dead object #%d" page id;
            let first = Heap.first_page heap id in
            if page < first || page > last_page objects id then
              fail "page %d lists object #%d which does not span it" page id;
            if Hashtbl.mem listed id then
              fail "page %d lists object #%d twice" page id;
            Hashtbl.add listed id ())
          on_page;
        (* after the duplicates: a listed-twice object's slot names only
           one of its entries *)
        Vec.iteri
          (fun slot id ->
            let stored = Object_table.page_slot objects id in
            if Heap.first_page heap id = page && stored <> slot then
              fail "live object #%d has page_slot %d but is at slot %d on page %d"
                id stored slot page)
          on_page;
        if Vec.length on_page <> count then missing page
      end)
    spanning

(* Every page hosting live objects is mapped in the VMM and owned by the
   heap's process. *)
let check_owners heap spanning =
  let vmm = Heap.vmm heap in
  let our_pid = Vmsim.Process.pid (Heap.process heap) in
  Hashtbl.iter
    (fun page _ ->
      match Vmsim.Vmm.owner vmm page with
      | None -> fail "page %d hosts live objects but is unmapped" page
      | Some proc ->
          if Vmsim.Process.pid proc <> our_pid then
            fail "page %d hosts our objects but belongs to pid %d" page
              (Vmsim.Process.pid proc))
    spanning

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
  let spanning = check_placements h in
  check_buckets h spanning;
  check_owners h spanning;
  check_overlap h;
  check_reachability h
