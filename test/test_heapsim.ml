module OT = Heapsim.Object_table
module PM = Heapsim.Page_map
module AS = Heapsim.Address_space
module Heap = Heapsim.Heap

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Object_table                                                       *)

let test_alloc_free_recycle () =
  let t = OT.create () in
  let a = OT.alloc t ~size:16 ~nrefs:2 ~kind:`Scalar in
  let b = OT.alloc t ~size:32 ~nrefs:0 ~kind:`Array in
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.int "live count" 2 (OT.live_count t);
  check Alcotest.int "live bytes" 48 (OT.live_bytes t);
  check Alcotest.int "size" 16 (OT.size t a);
  check Alcotest.bool "kind scalar" true (OT.kind t a = `Scalar);
  check Alcotest.bool "kind array" true (OT.kind t b = `Array);
  OT.free t a;
  check Alcotest.int "live after free" 1 (OT.live_count t);
  check Alcotest.bool "freed not live" false (OT.is_live t a);
  let c = OT.alloc t ~size:8 ~nrefs:1 ~kind:`Scalar in
  check Alcotest.int "id recycled" a c;
  check Alcotest.bool "recycled live" true (OT.is_live t c);
  (* recycled object state is fresh *)
  check Alcotest.int "fresh addr" (-1) (OT.addr t c);
  check Alcotest.int "fresh scratch" (-1) (OT.scratch t c);
  check Alcotest.bool "fresh unbookmarked" false (OT.bookmarked t c);
  check Alcotest.bool "fresh ref null" true
    (Heapsim.Obj_id.is_null (OT.get_ref t c 0))

let test_dead_access_rejected () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:4 ~kind:`Scalar in
  OT.free t a;
  let dead = Invalid_argument (Printf.sprintf "Object_table: dead or invalid object #%d" a) in
  Alcotest.check_raises "dead access" dead (fun () -> ignore (OT.size t a));
  Alcotest.check_raises "get_ref" dead (fun () -> ignore (OT.get_ref t a 0));
  Alcotest.check_raises "set_ref" dead (fun () -> OT.set_ref t a 0 a);
  Alcotest.check_raises "nrefs" dead (fun () -> ignore (OT.nrefs t a));
  Alcotest.check_raises "iter_refs" dead (fun () -> OT.iter_refs t a (fun _ _ -> ()));
  Alcotest.check_raises "free twice" dead (fun () -> OT.free t a);
  Alcotest.check_raises "never allocated"
    (Invalid_argument "Object_table: dead or invalid object #99")
    (fun () -> ignore (OT.get_ref t 99 0));
  (* around a row-chunk boundary: two freed ids on either side of it, and
     [next_id], the first id never handed out, whose chunk does not exist *)
  let t = OT.create () in
  for _ = 1 to 2 * OT.rows_per_chunk do
    ignore (OT.alloc t ~size:8 ~nrefs:1 ~kind:`Scalar : int)
  done;
  OT.free t (OT.rows_per_chunk - 1);
  OT.free t OT.rows_per_chunk;
  check Alcotest.int "next id" (2 * OT.rows_per_chunk) (OT.capacity t);
  List.iter
    (fun id ->
      let dead =
        Invalid_argument (Printf.sprintf "Object_table: dead or invalid object #%d" id)
      in
      Alcotest.check_raises "dead size" dead (fun () -> ignore (OT.size t id));
      Alcotest.check_raises "dead get_ref" dead (fun () -> ignore (OT.get_ref t id 0));
      Alcotest.check_raises "dead set_addr" dead (fun () -> OT.set_addr t id 0);
      Alcotest.check_raises "dead free" dead (fun () -> OT.free t id);
      check Alcotest.bool "not live" false (OT.is_live t id))
    [ OT.rows_per_chunk - 1; OT.rows_per_chunk; OT.capacity t ]

let test_refs () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar in
  let b = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.set_ref t a 1 b;
  check Alcotest.int "get_ref" b (OT.get_ref t a 1);
  let seen = ref [] in
  OT.iter_refs t a (fun field target -> seen := (field, target) :: !seen);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "iter skips nulls" [ (1, b) ] !seen;
  check Alcotest.int "nrefs" 3 (OT.nrefs t a)

let test_flags () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.set_bookmarked t a true;
  check Alcotest.bool "bookmarked" true (OT.bookmarked t a);
  OT.set_bookmarked t a false;
  check Alcotest.bool "unbookmarked" false (OT.bookmarked t a);
  OT.set_space t a 3;
  OT.set_scratch t a 42;
  check Alcotest.int "space" 3 (OT.space t a);
  check Alcotest.int "scratch" 42 (OT.scratch t a)

let test_field_out_of_range () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar in
  let next = OT.alloc t ~size:8 ~nrefs:2 ~kind:`Scalar in
  let empty = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  raises "get past the end" (fun () -> ignore (OT.get_ref t a 3));
  raises "set past the end" (fun () -> OT.set_ref t a 3 empty);
  raises "negative field" (fun () -> ignore (OT.get_ref t a (-1)));
  raises "no fields" (fun () -> ignore (OT.get_ref t empty 0));
  (* a rejected store must not land in the run allocated after [a]'s *)
  check Alcotest.bool "next object's fields still null" true
    (List.for_all (fun f -> Heapsim.Obj_id.is_null (OT.get_ref t next f)) [ 0; 1 ])

(* A freed run is recycled for the next object of the same width, which
   must not see its previous owner's pointers. *)
let test_recycled_run_nulled () =
  let t = OT.create () in
  let target = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  List.iter
    (fun n ->
      let a = OT.alloc t ~size:8 ~nrefs:n ~kind:`Array in
      for f = 0 to n - 1 do
        OT.set_ref t a f target
      done;
      OT.free t a;
      let b = OT.alloc t ~size:8 ~nrefs:n ~kind:`Array in
      check Alcotest.int "id recycled" a b;
      for f = 0 to n - 1 do
        check Alcotest.bool (Printf.sprintf "width %d field %d null" n f) true
          (Heapsim.Obj_id.is_null (OT.get_ref t b f))
      done;
      OT.iter_refs t b (fun f _ ->
          Alcotest.failf "width %d: iter_refs saw field %d" n f);
      OT.free t b)
    [ 1; 2; 7; 64; OT.chunk_slots + 3 ]

let test_growth () =
  let t = OT.create () in
  let ids = List.init 5000 (fun i -> OT.alloc t ~size:8 ~nrefs:0
    ~kind:(if i mod 2 = 0 then `Scalar else `Array)) in
  check Alcotest.int "live" 5000 (OT.live_count t);
  List.iteri (fun i id -> assert (OT.kind t id = if i mod 2 = 0 then `Scalar else `Array)) ids

(* ----------------------------------------------------------------- *)
(* Address_space and Page_map                                         *)

let test_address_space () =
  let a = AS.create ~first_page:10 () in
  let r1 = AS.reserve a ~npages:3 in
  let r2 = AS.reserve a ~npages:2 in
  check Alcotest.int "first" 10 r1;
  check Alcotest.int "monotone" 13 r2;
  let r3 = AS.reserve_aligned a ~npages:4 ~align:4 in
  check Alcotest.int "aligned" 0 (r3 mod 4);
  check Alcotest.bool "no overlap" true (r3 >= 15)

(* Page_map tests take their ids from a real table and give each object
   an address on its first page: a removal reads it to tell whether a
   relocated entry's back-index lives in that bucket. *)
let on_pages objs m ~first ~last =
  let id = OT.alloc objs ~size:16 ~nrefs:0 ~kind:`Scalar in
  OT.set_addr objs id (Vmsim.Page.addr_of first);
  PM.add m objs ~first ~last id;
  id

let test_page_map () =
  let objs = OT.create () in
  let m = PM.create () in
  let a = on_pages objs m ~first:5 ~last:6 in
  let b = on_pages objs m ~first:5 ~last:5 in
  let c = on_pages objs m ~first:6 ~last:6 in
  check Alcotest.int "count" 2 (PM.count_on m 5);
  check Alcotest.int "spanning object on both pages" 2 (PM.count_on m 6);
  PM.remove m objs ~first:5 ~last:6 a;
  check Alcotest.int "after remove" 1 (PM.count_on m 5);
  check (Alcotest.list Alcotest.int) "snapshot" [ b ]
    (Array.to_list (PM.objects_on m 5));
  check (Alcotest.list Alcotest.int) "other page kept" [ c ]
    (Array.to_list (PM.objects_on m 6));
  check Alcotest.int "empty page" 0 (PM.count_on m 99);
  while OT.capacity objs <= 9 do
    ignore (on_pages objs m ~first:7 ~last:7 : int)
  done;
  Alcotest.check_raises "remove missing"
    (Invalid_argument "Page_map.remove: object #9 not on page 5") (fun () ->
      PM.remove m objs ~first:5 ~last:5 9)

let test_page_map_slots () =
  let objs = OT.create () in
  let m = PM.create () in
  let a = on_pages objs m ~first:3 ~last:3 in
  let b = on_pages objs m ~first:3 ~last:3 in
  let c = on_pages objs m ~first:3 ~last:3 in
  check Alcotest.int "first slot" 0 (OT.page_slot objs a);
  check Alcotest.int "second slot" 1 (OT.page_slot objs b);
  check Alcotest.int "third slot" 2 (OT.page_slot objs c);
  (* O(1) removal at the stored slot swap-fills from the tail and fixes
     the relocated entry's back-index *)
  PM.remove m objs ~first:3 ~last:3 a;
  check (Alcotest.list Alcotest.int) "tail swap-filled the hole" [ c; b ]
    (Array.to_list (PM.objects_on m 3));
  check Alcotest.int "relocated back-index" 0 (OT.page_slot objs c);
  check Alcotest.int "removed back-index reset" (-1) (OT.page_slot objs a);
  (* a stale slot falls back to the scan and still removes the right id;
     removing the bucket's last element relocates nothing *)
  OT.set_page_slot objs b 7;
  PM.remove m objs ~first:3 ~last:3 b;
  check (Alcotest.list Alcotest.int) "survivor" [ c ]
    (Array.to_list (PM.objects_on m 3));
  check Alcotest.int "survivor's back-index kept" 0 (OT.page_slot objs c);
  (* an entry relocated on a page that is not its object's first page
     keeps the back-index into its first page's bucket *)
  let d = on_pages objs m ~first:4 ~last:4 in
  let span = on_pages objs m ~first:3 ~last:4 in
  PM.remove m objs ~first:4 ~last:4 d;
  check (Alcotest.list Alcotest.int) "spanning entry relocated" [ span ]
    (Array.to_list (PM.objects_on m 4));
  check Alcotest.int "first-page back-index kept" 1 (OT.page_slot objs span)

(* ----------------------------------------------------------------- *)
(* Heap                                                               *)

let fixture () =
  let m = Test_support.Mini.machine () in
  m

let test_place_displace () =
  let m = fixture () in
  let objects = Heap.objects m.Test_support.Mini.heap in
  let heap = m.Test_support.Mini.heap in
  let id = OT.alloc objects ~size:100 ~nrefs:0 ~kind:`Scalar in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  Heap.place heap id ~addr:(Vmsim.Page.addr_of first);
  check Alcotest.int "on page" 1
    (PM.count_on (Heap.page_map heap) first);
  check Alcotest.int "first page" first (Heap.first_page heap id);
  Heap.displace heap id;
  check Alcotest.int "displaced" 0 (PM.count_on (Heap.page_map heap) first);
  check Alcotest.int "addr reset" (-1) (OT.addr objects id)

let test_spanning_object () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:2 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:2;
  (* place so the object straddles the page boundary *)
  let id = OT.alloc objects ~size:200 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap id ~addr:(Vmsim.Page.addr_of first + Vmsim.Page.size - 100);
  check Alcotest.int "registered on both pages" 2
    (PM.count_on (Heap.page_map heap) first
    + PM.count_on (Heap.page_map heap) (first + 1));
  let pages = ref [] in
  Heap.iter_pages heap id (fun p -> pages := p :: !pages);
  check (Alcotest.list Alcotest.int) "iter_pages" [ first + 1; first ] !pages;
  let vmm = m.Test_support.Mini.vmm in
  Heap.touch_object heap id;
  check Alcotest.bool "both pages resident" true
    (Vmsim.Vmm.is_resident vmm first && Vmsim.Vmm.is_resident vmm (first + 1));
  let minor () =
    (Vmsim.Process.stats m.Test_support.Mini.proc).Vmsim.Vm_stats.minor_faults
  in
  let before = minor () in
  Heap.touch_object heap ~write:true id;
  check Alcotest.bool "both pages dirty" true
    (Vmsim.Vmm.is_dirty vmm first && Vmsim.Vmm.is_dirty vmm (first + 1));
  check Alcotest.int "write touch adds no minor fault" before (minor ())

(* Invariant behind O(1) Page_map removal: every placed object's stored
   [page_slot] names its position in its first page's bucket. *)
let page_slot_invariant heap page =
  let objects = Heap.objects heap in
  Array.iteri
    (fun slot id ->
      if Heap.first_page heap id = page then
        check Alcotest.int
          (Printf.sprintf "back-index of #%d" id)
          slot (OT.page_slot objects id))
    (PM.objects_on (Heap.page_map heap) page)

let test_page_slot_fixup () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  let base = Vmsim.Page.addr_of first in
  let ids =
    List.init 8 (fun i ->
        let id = OT.alloc objects ~size:64 ~nrefs:0 ~kind:`Scalar in
        Heap.place heap id ~addr:(base + (i * 64));
        id)
  in
  page_slot_invariant heap first;
  (* middle, head and tail removals: each swap-fills from the bucket's
     tail and must fix the relocated object's stored slot *)
  List.iter
    (fun idx ->
      let id = List.nth ids idx in
      Heap.displace heap id;
      check Alcotest.int "displaced slot reset" (-1) (OT.page_slot objects id);
      page_slot_invariant heap first)
    [ 3; 0; 7 ];
  check Alcotest.int "survivors" 5 (PM.count_on (Heap.page_map heap) first);
  (* replacing objects keeps the invariant through slot reuse *)
  let id = OT.alloc objects ~size:64 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap id ~addr:(base + (3 * 64));
  page_slot_invariant heap first

let test_page_slot_spanning () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:2 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:2;
  let base = Vmsim.Page.addr_of first in
  (* a spanning object is slot-tracked only on its first page; its tail
     page and neighbours there still resolve by scan *)
  let small = OT.alloc objects ~size:32 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap small ~addr:(base + Vmsim.Page.size);
  let span = OT.alloc objects ~size:200 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap span ~addr:(base + Vmsim.Page.size - 100);
  page_slot_invariant heap first;
  page_slot_invariant heap (first + 1);
  Heap.displace heap span;
  check Alcotest.int "span gone from head page" 0
    (PM.count_on (Heap.page_map heap) first);
  check (Alcotest.list Alcotest.int) "tail page keeps neighbour" [ small ]
    (Array.to_list (PM.objects_on (Heap.page_map heap) (first + 1)));
  page_slot_invariant heap (first + 1)

let test_write_barrier_hook () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  let a = OT.alloc objects ~size:16 ~nrefs:1 ~kind:`Scalar in
  let b = OT.alloc objects ~size:16 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap a ~addr:(Vmsim.Page.addr_of first);
  Heap.place heap b ~addr:(Vmsim.Page.addr_of first + 16);
  let events = ref [] in
  Heap.set_write_barrier heap (fun ~src ~field ~old_target ~target ->
      events := (src, field, old_target, target) :: !events);
  Heap.write_ref heap a 0 b;
  check Alcotest.int "barrier fired once" 1 (List.length !events);
  (match !events with
  | [ (src, field, old_target, target) ] ->
      check Alcotest.int "src" a src;
      check Alcotest.int "field" 0 field;
      check Alcotest.bool "old null" true (Heapsim.Obj_id.is_null old_target);
      check Alcotest.int "target" b target
  | _ -> Alcotest.fail "expected one event");
  check Alcotest.int "stored" b (Heap.read_ref heap a 0)

let test_roots () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  Heap.set_roots heap (fun f -> f 3; f 7);
  let seen = ref [] in
  Heap.iter_roots heap (fun id -> seen := id :: !seen);
  check (Alcotest.list Alcotest.int) "roots" [ 7; 3 ] !seen

let prop_object_table_alloc_free =
  QCheck.Test.make ~name:"object table alloc/free conserves live stats"
    ~count:100
    QCheck.(small_list (int_range 8 512))
    (fun sizes ->
      let t = OT.create () in
      let ids = List.map (fun size -> (OT.alloc t ~size ~nrefs:1 ~kind:`Scalar, size)) sizes in
      let expect_bytes = List.fold_left (fun acc (_, s) -> acc + s) 0 ids in
      let ok1 = OT.live_bytes t = expect_bytes && OT.live_count t = List.length ids in
      List.iter (fun (id, _) -> OT.free t id) ids;
      ok1 && OT.live_count t = 0 && OT.live_bytes t = 0)

(* Random alloc/free/set/get/iter sequences against a model: a table
   from live id to its fields. Widths run to 70 and one object is wider
   than a slab chunk, so runs straddle chunks and recycled runs of every
   width are reused; the table starts more than two row chunks full. *)
type ot_op =
  | Alloc of int
  | Free of int
  | Set of int * int * int
  | Get of int * int
  | Iter of int

let show_ot_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Free i -> Printf.sprintf "free %d" i
  | Set (i, f, x) -> Printf.sprintf "set %d.%d <- %d" i f x
  | Get (i, f) -> Printf.sprintf "get %d.%d" i f
  | Iter i -> Printf.sprintf "iter %d" i

let arb_ot_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map (fun n -> Alloc n) (int_range 0 70));
        (2, map (fun i -> Free i) nat);
        (4, map3 (fun i f x -> Set (i, f, x)) nat nat nat);
        (2, map2 (fun i f -> Get (i, f)) nat nat);
        (1, map (fun i -> Iter i) nat);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_ot_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 300) op)

let prop_object_table_model =
  QCheck.Test.make ~name:"object table refs agree with a model" ~count:200
    arb_ot_ops (fun ops ->
      let t = OT.create () in
      let model : (int, int array) Hashtbl.t = Hashtbl.create 64 in
      let live = Repro_util.Vec.create () in
      let alloc n =
        let id = OT.alloc t ~size:8 ~nrefs:n ~kind:`Scalar in
        if Hashtbl.mem model id then Alcotest.failf "id %d handed out twice" id;
        Hashtbl.replace model id (Array.make n Heapsim.Obj_id.null);
        Repro_util.Vec.push live id
      in
      let agrees id =
        let fields = Hashtbl.find model id in
        let seen = ref [] in
        OT.iter_refs t id (fun f x -> seen := (f, x) :: !seen);
        let expect = ref [] in
        Array.iteri
          (fun f x -> if not (Heapsim.Obj_id.is_null x) then expect := (f, x) :: !expect)
          fields;
        OT.nrefs t id = Array.length fields
        && !seen = !expect
        && Array.for_all2 ( = ) fields
             (Array.init (Array.length fields) (OT.get_ref t id))
      in
      alloc (OT.chunk_slots + 5);
      (* past two row chunks, so ids and recycled ids cross chunk
         boundaries *)
      for i = 1 to (2 * OT.rows_per_chunk) + 1 do
        alloc (i mod 3)
      done;
      let pick i = Repro_util.Vec.get live (i mod Repro_util.Vec.length live) in
      List.for_all
        (fun op ->
          let nlive = Repro_util.Vec.length live in
          match op with
          | Alloc n ->
              alloc n;
              true
          | _ when nlive = 0 -> true
          | Free i ->
              let id = pick i in
              OT.free t id;
              Hashtbl.remove model id;
              ignore (Repro_util.Vec.swap_remove live (i mod nlive) : int);
              not (OT.is_live t id)
          | Set (i, f, x) ->
              let id = pick i in
              let fields = Hashtbl.find model id in
              (if Array.length fields > 0 then
                 let target = if x mod (nlive + 1) = nlive then Heapsim.Obj_id.null else pick x in
                 let f = f mod Array.length fields in
                 OT.set_ref t id f target;
                 fields.(f) <- target);
              true
          | Get (i, f) ->
              let id = pick i in
              let fields = Hashtbl.find model id in
              Array.length fields = 0
              || OT.get_ref t id (f mod Array.length fields)
                 = fields.(f mod Array.length fields)
          | Iter i -> agrees (pick i))
        ops
      && OT.live_count t = Hashtbl.length model
      && Hashtbl.fold (fun id _ ok -> ok && agrees id) model true)

let () =
  Alcotest.run "heapsim"
    [
      ( "object_table",
        [
          Alcotest.test_case "alloc/free/recycle" `Quick test_alloc_free_recycle;
          Alcotest.test_case "dead access" `Quick test_dead_access_rejected;
          Alcotest.test_case "field out of range" `Quick test_field_out_of_range;
          Alcotest.test_case "recycled run nulled" `Quick test_recycled_run_nulled;
          Alcotest.test_case "refs" `Quick test_refs;
          Alcotest.test_case "flags" `Quick test_flags;
          Alcotest.test_case "growth" `Quick test_growth;
        ] );
      ( "layout",
        [
          Alcotest.test_case "address space" `Quick test_address_space;
          Alcotest.test_case "page map" `Quick test_page_map;
          Alcotest.test_case "page map slots" `Quick test_page_map_slots;
          Alcotest.test_case "place/displace" `Quick test_place_displace;
          Alcotest.test_case "spanning object" `Quick test_spanning_object;
          Alcotest.test_case "page slot fixup" `Quick test_page_slot_fixup;
          Alcotest.test_case "page slot spanning" `Quick
            test_page_slot_spanning;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "write barrier" `Quick test_write_barrier_hook;
          Alcotest.test_case "roots" `Quick test_roots;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_object_table_alloc_free; prop_object_table_model ] );
    ]
