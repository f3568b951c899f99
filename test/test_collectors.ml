(* Cross-collector correctness: every collector must preserve the
   reachable object graph under arbitrary mutation, with and without
   memory pressure, while staying within its heap budget. *)

module Mini = Test_support.Mini
module Oracle = Test_support.Oracle
module OT = Heapsim.Object_table
module Heap = Heapsim.Heap
module PM = Heapsim.Page_map
module Collector = Gc_common.Collector
module Gc_stats = Gc_common.Gc_stats
module Alloc = Gc_common.Alloc
module Space_tag = Gc_common.Space_tag

let check = Alcotest.check

let all_collectors = Harness.Registry.names

let pressure_capable = [ "BC"; "BC-resize"; "BC-fixed"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ]

(* -- reachability preserved through a workload ---------------------- *)

let test_preserves_reachability name () =
  let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
  let mutator = Workload.Mutator.create (Mini.spec ()) c in
  Mini.drive mutator ~between:(fun slice ->
      if slice mod 8 = 0 then Oracle.check m.Mini.heap);
  Oracle.check m.Mini.heap;
  c.Collector.check_invariants ()

(* -- collections actually happen and are recorded ------------------- *)

let test_collects_and_records name () =
  let _, c = Mini.collector ~heap_bytes:(896 * 1024) name in
  let mutator = Workload.Mutator.create (Mini.spec ~volume:1_500_000 ()) c in
  Mini.drive mutator;
  check Alcotest.bool "collections ran" true
    (Gc_stats.collections c.Collector.stats > 0);
  check Alcotest.bool "pauses recorded" true
    (Gc_stats.pauses c.Collector.stats <> []);
  check Alcotest.bool "allocation accounted" true
    (Gc_stats.allocated_bytes c.Collector.stats >= 1_500_000)

(* -- explicit full collection reclaims garbage ---------------------- *)

let test_forced_collect_reclaims name () =
  let m, c = Mini.collector name in
  let objects = Heap.objects m.Mini.heap in
  let ids = Mini.alloc_list c ~n:200 ~size:64 in
  (* drop all roots: everything is garbage *)
  Heap.set_roots m.Mini.heap (fun _ -> ());
  c.Collector.collect ();
  (* ...possibly needing a second cycle for survivors of a young space *)
  c.Collector.collect ();
  let live = List.filter (OT.is_live objects) ids in
  check Alcotest.int "garbage reclaimed" 0 (List.length live)

(* -- object contents survive moves ---------------------------------- *)

let test_contents_survive_moves name () =
  let m, c = Mini.collector name in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let ids = Array.of_list (Mini.alloc_list c ~n:100 ~size:48) in
  (* give each object a second pointer: to ids.(i/2) *)
  let extra = c.Collector.alloc ~size:8 ~nrefs:0 ~kind:`Scalar in
  ignore extra;
  c.Collector.collect ();
  c.Collector.collect ();
  (* the chain must be intact: ids.(i) field 0 = ids.(i-1) *)
  Array.iteri
    (fun i id ->
      check Alcotest.bool "live" true (OT.is_live objects id);
      check Alcotest.int "size preserved" 48 (OT.size objects id);
      if i > 0 then
        check Alcotest.int
          (Printf.sprintf "link %d preserved" i)
          ids.(i - 1)
          (OT.get_ref objects id 0))
    ids

(* -- heap budget ----------------------------------------------------- *)

let test_heap_budget name () =
  let _, c = Mini.collector ~heap_bytes:(768 * 1024) name in
  let mutator = Workload.Mutator.create (Mini.spec ()) c in
  Mini.drive mutator ~between:(fun _ -> Oracle.assert_heap_bounded c)

(* -- exhaustion is an exception, not corruption ---------------------- *)

let test_exhaustion name () =
  let m, c = Mini.collector ~heap_bytes:(96 * 1024) name in
  check Alcotest.bool "raises Heap_exhausted" true
    (match
       let mutator = Workload.Mutator.create (Mini.spec ()) c in
       Mini.drive mutator
     with
    | () -> false
    | exception Collector.Heap_exhausted _ ->
        (* the heap must still be consistent *)
        Oracle.check m.Mini.heap;
        true)

(* -- determinism ------------------------------------------------------ *)

let test_deterministic name () =
  let run () =
    let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
    let mutator = Workload.Mutator.create (Mini.spec ()) c in
    Mini.drive mutator;
    ( Vmsim.Clock.now m.Mini.clock,
      Gc_stats.collections c.Collector.stats,
      OT.live_count (Heap.objects m.Mini.heap) )
  in
  let a = run () and b = run () in
  check Alcotest.bool "identical outcome" true (a = b)

(* -- under memory pressure ------------------------------------------- *)

let test_pressure_correct name () =
  let heap_bytes = 1024 * 1024 in
  let frames = (heap_bytes / 4096) + 128 in
  let m = Mini.machine ~frames () in
  let c = Harness.Registry.create ~name ~heap_bytes m.Mini.heap in
  let signalmem =
    Workload.Signalmem.create m.Mini.vmm (Heap.address_space m.Mini.heap)
  in
  let mutator = Workload.Mutator.create (Mini.spec ()) c in
  Mini.drive mutator ~between:(fun slice ->
      if slice = 4 then Workload.Signalmem.pin_pages signalmem (frames - 120);
      if slice mod 16 = 0 then Oracle.check m.Mini.heap);
  Oracle.check m.Mini.heap;
  c.Collector.check_invariants ()

(* -- pressure released: pages come back ------------------------------ *)

let test_pressure_release name () =
  let heap_bytes = 1024 * 1024 in
  let frames = (heap_bytes / 4096) + 128 in
  let m = Mini.machine ~frames () in
  let c = Harness.Registry.create ~name ~heap_bytes m.Mini.heap in
  let signalmem =
    Workload.Signalmem.create m.Mini.vmm (Heap.address_space m.Mini.heap)
  in
  let mutator = Workload.Mutator.create (Mini.spec ~volume:900_000 ()) c in
  Mini.drive mutator ~between:(fun slice ->
      if slice = 4 then Workload.Signalmem.pin_pages signalmem (frames - 120);
      if slice = 40 then Workload.Signalmem.unpin_all signalmem);
  Oracle.check m.Mini.heap;
  c.Collector.check_invariants ()

(* -- floating garbage is bounded -------------------------------------- *)

let test_garbage_bounded name () =
  let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
  let spec = Mini.spec () in
  let mutator = Workload.Mutator.create spec c in
  Mini.drive mutator;
  (* a couple of full collections leave only reachable objects plus
     whatever conservatism retains; bound it by twice the live estimate *)
  c.Collector.collect ();
  c.Collector.collect ();
  let live_bytes = OT.live_bytes (Heap.objects m.Mini.heap) in
  let bound = 2 * Workload.Spec.live_estimate_bytes spec in
  check Alcotest.bool
    (Printf.sprintf "%s retains %d <= %d bytes" name live_bytes bound)
    true (live_bytes <= bound)

(* -- a forced collection is exact --------------------------------------- *)

(* Without memory pressure nothing is bookmarked, so one forced
   collection leaves live exactly the objects reachable from the roots: a
   trace or sweep that keeps garbage fails here, which the retention
   bound above is too loose to see. *)
let test_forced_collect_exact name () =
  let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
  let mutator = Workload.Mutator.create (Mini.spec ()) c in
  Mini.drive mutator;
  c.Collector.collect ();
  check Alcotest.int "live objects are the reachable ones"
    (Oracle.reachable_count m.Mini.heap)
    (OT.live_count (Heap.objects m.Mini.heap))

(* -- a steady collection allocates O(1) host words ------------------------ *)

(* With the heap at a steady state (two forced collections behind it), a
   further one still visits every live object, and no per-object step
   may allocate on the host: the whole collection allocates fewer minor
   words than a quarter of the live objects. BC_ORACLE=1 verifies the
   heap after every BC collection, which allocates per object by design,
   so the check is skipped there. *)
let test_steady_collect_allocates_o1 name () =
  if Sys.getenv_opt "BC_ORACLE" <> None then Alcotest.skip ();
  let m, c = Mini.collector ~heap_bytes:(4 * 1024 * 1024) name in
  let spec =
    {
      (Mini.spec ~volume:2_400_000 ()) with
      Workload.Spec.immortal_bytes = 400_000;
      window_bytes = 240_000;
    }
  in
  let mutator = Workload.Mutator.create spec c in
  Mini.drive mutator;
  c.Collector.collect ();
  c.Collector.collect ();
  let live = OT.live_count (Heap.objects m.Mini.heap) in
  let before = Gc.minor_words () in
  c.Collector.collect ();
  let words = int_of_float (Gc.minor_words () -. before) in
  check Alcotest.bool
    (Printf.sprintf "%s: %d host words for %d live objects" name words live)
    true
    (words < live / 4)

(* -- the tracer ---------------------------------------------------------- *)

(* The grey stack is the heap's, so a trace started from inside a running
   trace's [copy] is refused with one line, which ends the outer trace
   too; the heap then traces again. *)
let test_nested_trace_refused () =
  let m, c = Mini.collector "MarkSweep" in
  let heap = m.Mini.heap in
  let ids = Mini.alloc_list c ~n:10 ~size:64 in
  let run ~epoch ~copy =
    Gc_common.Tracer.run heap ~epoch ~roots:(Heap.iter_roots heap)
      ~follow:(fun _ -> true)
      ~evacuate:(fun _ -> true)
      ~copy
  in
  Alcotest.check_raises "nested run"
    (Invalid_argument "Tracer.run: a trace of this heap is already running")
    (fun () ->
      run ~epoch:1_000_000 ~copy:(fun _ -> run ~epoch:1_000_001 ~copy:ignore));
  run ~epoch:1_000_002 ~copy:ignore;
  check Alcotest.bool "the next trace marks every object" true
    (List.for_all (Gc_common.Tracer.marked heap ~epoch:1_000_002) ids)

(* [follow] is asked about an object only while it is unmarked: on a
   diamond, the bottom object reached along both sides is asked about
   once, so the test runs once per object, not once per edge. *)
let test_follow_after_mark () =
  let m, c = Mini.collector "MarkSweep" in
  let heap = m.Mini.heap in
  let alloc () = c.Collector.alloc ~size:64 ~nrefs:2 ~kind:`Scalar in
  let top = alloc () in
  Heap.set_roots heap (fun f -> f top);
  let left = alloc () and right = alloc () and bottom = alloc () in
  Heap.write_ref heap top 0 left;
  Heap.write_ref heap top 1 right;
  Heap.write_ref heap left 0 bottom;
  Heap.write_ref heap right 0 bottom;
  let epoch = 1_000_000 in
  let asked = ref [] in
  Gc_common.Tracer.run heap ~epoch ~roots:(Heap.iter_roots heap)
    ~follow:(fun id ->
      if Gc_common.Tracer.marked heap ~epoch id then
        Alcotest.failf "follow asked about #%d, already marked" id;
      asked := id :: !asked;
      true)
    ~evacuate:(fun _ -> false)
    ~copy:ignore;
  check (Alcotest.list Alcotest.int) "each object asked about once"
    (List.sort compare [ top; left; right; bottom ])
    (List.sort compare !asked)

(* -- the heap verifier, mid-run and on planted faults -------------------- *)

(* Collectors whose bump-pointer spaces keep no page index. *)
let unindexed_collectors =
  [ "SemiSpace"; "GenCopy"; "GenCopy-fixed"; "GenMS"; "GenMS-fixed"; "CopyMS" ]

(* Mutator slices alternate with forced collections, and Verify.heap runs
   after each, so it checks the page index mid-run with objects in the
   nursery: indexed pages everywhere (BC, MarkSweep, GenMS-coop, every
   mark-sweep and LOS page) and unindexed ones exactly where a collector
   leaves its bump-pointer spaces out. *)
let test_verify_mid_run name () =
  let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let mutator = Workload.Mutator.create (Mini.spec ()) c in
  let saw_unindexed = ref false in
  let verify () =
    Gc_common.Verify.heap heap;
    OT.iter_live objects (fun id ->
        if not (PM.indexed (Heap.page_map heap) (Heap.first_page heap id))
        then saw_unindexed := true)
  in
  Mini.drive mutator ~between:(fun slice ->
      verify ();
      if slice mod 4 = 3 then begin
        c.Collector.collect ();
        verify ()
      end);
  verify ();
  check Alcotest.bool
    (name ^ ": objects on unindexed pages")
    (List.mem name unindexed_collectors)
    !saw_unindexed

(* A fault planted in a verified heap fails Verify.heap with one line
   naming the object and the page. *)
let planted_failure ~plant =
  let m, c = Mini.collector "MarkSweep" in
  let heap = m.Mini.heap in
  let ids = Mini.alloc_list c ~n:8 ~size:64 in
  Gc_common.Verify.heap heap;
  let id = List.nth ids 3 in
  plant heap id;
  match Gc_common.Verify.heap heap with
  | () -> Alcotest.failf "verify passed over a fault planted on #%d" id
  | exception Failure msg -> (msg, id, Heap.first_page heap id)

let test_verify_stale_slot () =
  let msg, id, page =
    planted_failure ~plant:(fun heap id ->
        OT.set_page_slot (Heap.objects heap) id 99)
  in
  check Alcotest.string "stale page_slot"
    (Printf.sprintf
       "verify: live object #%d has page_slot 99 but is at slot 3 on page %d"
       id page)
    msg

let test_verify_duplicate_entry () =
  let msg, id, page =
    planted_failure ~plant:(fun heap id ->
        let page = Heap.first_page heap id in
        PM.add (Heap.page_map heap) (Heap.objects heap) ~first:page ~last:page
          id)
  in
  check Alcotest.string "duplicate entry"
    (Printf.sprintf "verify: page %d lists object #%d twice" page id)
    msg

let test_verify_missing_entry () =
  let msg, id, page =
    planted_failure ~plant:(fun heap id ->
        let page = Heap.first_page heap id in
        PM.remove (Heap.page_map heap) (Heap.objects heap) ~first:page
          ~last:page id)
  in
  check Alcotest.string "missing entry"
    (Printf.sprintf
       "verify: live object #%d spans page %d but is not in the page map" id
       page)
    msg

(* A free that skips the page map leaves a stale entry. Alone on its
   page, where no live object spans it, the entry fails Verify.heap as it
   does beside a live neighbour. *)
let test_verify_stale_entry_alone () =
  let m = Mini.machine () in
  let heap = m.Mini.heap in
  let page = Heapsim.Address_space.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Mini.vmm m.Mini.proc ~first_page:page ~npages:1;
  let id = OT.alloc (Heap.objects heap) ~size:64 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap id ~addr:(Vmsim.Page.addr_of page);
  Gc_common.Verify.heap heap;
  OT.free (Heap.objects heap) id;
  match Gc_common.Verify.heap heap with
  | () -> Alcotest.fail "verify passed over a stale entry on an empty page"
  | exception Failure msg ->
      check Alcotest.string "stale entry alone"
        (Printf.sprintf "verify: page %d lists dead object #%d" page id)
        msg

(* An object must not cross between an indexed and an unindexed page:
   one pair of mapped pages, the first or the second unindexed, and an
   object straddling them. *)
let test_verify_range_crossing () =
  let straddle ~unindex_second =
    let m = Mini.machine () in
    let heap = m.Mini.heap in
    let first = Heapsim.Address_space.reserve (Heap.address_space heap) ~npages:2 in
    Vmsim.Vmm.map_range m.Mini.vmm m.Mini.proc ~first_page:first ~npages:2;
    PM.unindex_range (Heap.page_map heap)
      ~first:(if unindex_second then first + 1 else first)
      ~npages:1;
    let id = OT.alloc (Heap.objects heap) ~size:200 ~nrefs:0 ~kind:`Scalar in
    Heap.place heap id ~addr:(Vmsim.Page.addr_of (first + 1) - 100);
    match Gc_common.Verify.heap heap with
    | () -> Alcotest.fail "verify passed over a straddling object"
    | exception Failure msg -> (msg, id, first)
  in
  let msg, id, page = straddle ~unindex_second:false in
  check Alcotest.string "runs past an unindexed range"
    (Printf.sprintf
       "verify: live object #%d on unindexed page %d runs past its range to \
        page %d"
       id page (page + 1))
    msg;
  let msg, id, page = straddle ~unindex_second:true in
  check Alcotest.string "runs into an unindexed range"
    (Printf.sprintf
       "verify: live object #%d on indexed page %d spans unindexed page %d" id
       page (page + 1))
    msg

(* -- each collector's defining policy ------------------------------- *)

let drive_small name =
  let _, c = Mini.collector ~heap_bytes:(896 * 1024) name in
  let mutator = Workload.Mutator.create (Mini.spec ~volume:1_500_000 ()) c in
  Mini.drive mutator;
  c.Collector.stats

let test_whole_heap_collectors_never_minor () =
  List.iter
    (fun name ->
      let stats = drive_small name in
      check Alcotest.int (name ^ " has no nursery collections") 0
        (Gc_stats.count stats Gc_stats.Minor))
    [ "MarkSweep"; "SemiSpace"; "CopyMS" ]

let test_generational_collectors_mostly_minor () =
  List.iter
    (fun name ->
      let stats = drive_small name in
      check Alcotest.bool (name ^ " nursery collections dominate") true
        (Gc_stats.count stats Gc_stats.Minor
        > Gc_stats.count stats Gc_stats.Full))
    [ "BC"; "GenMS"; "GenCopy" ]

let test_fixed_nursery_collects_more_often () =
  (* at a roomy heap, the Appel nursery is much larger than the fixed
     512 KB one, so the fixed variant collects more often *)
  let minors name =
    let _, c = Mini.collector ~heap_bytes:(4 * 1024 * 1024) name in
    let mutator = Workload.Mutator.create (Mini.spec ~volume:2_500_000 ()) c in
    Mini.drive mutator;
    Gc_stats.count c.Collector.stats Gc_stats.Minor
  in
  check Alcotest.bool "fixed nursery fills faster than Appel" true
    (minors "GenMS-fixed" > minors "GenMS")

let test_only_bc_compacts () =
  List.iter
    (fun name ->
      let stats = drive_small name in
      check Alcotest.int (name ^ " never compacts") 0
        (Gc_stats.count stats Gc_stats.Compacting))
    [ "GenMS"; "GenCopy"; "CopyMS"; "MarkSweep"; "SemiSpace" ]

(* -- the shared allocation path ---------------------------------------- *)

(* A stub path on a Mini heap. Its small space fails until
   [succeed_after] stages have run; stage [i] logs [i] and raises
   Heap_exhausted when [i = raise_at]. *)
let stub_path ?(raise_at = -1) ~stages ~succeed_after () =
  let heap = (Mini.machine ()).Mini.heap in
  let space =
    Gc_common.Bump_space.create heap ~name:"stub" ~npages:4 ~indexed:true
  in
  let ran = ref [] in
  let small bytes =
    if List.length !ran < succeed_after then -1
    else Gc_common.Bump_space.alloc space ~bytes ~limit_bytes:max_int
  in
  let stage i () =
    ran := i :: !ran;
    if i = raise_at then raise (Collector.Heap_exhausted "stage gave up")
  in
  let path =
    Alloc.create ~name:"stub" ~heap
      ~config:(Gc_common.Gc_config.make ~heap_bytes:16384 ())
      ~stats:(Gc_stats.create ()) ~small ~small_tag:Space_tag.nursery
      ~stages:(Array.init stages stage)
      ~los:(Gc_common.Large_object_space.create heap ~name:"los")
      ~los_above:max_int
      ~los_grow:(fun ~npages:_ -> true)
      ~los_stages:[||] ()
  in
  (heap, path, fun () -> List.rev !ran)

let alloc_64 path = Alloc.alloc path ~size:64 ~nrefs:0 ~kind:`Scalar

let ints = Alcotest.(list int)

let test_ladder_stops_at_first_success () =
  for k = 0 to 3 do
    let heap, path, ran = stub_path ~stages:3 ~succeed_after:k () in
    let id = alloc_64 path in
    check ints (Printf.sprintf "stages before success %d" k)
      (List.init k Fun.id) (ran ());
    check Alcotest.bool "placed" true (OT.addr (Heap.objects heap) id >= 0);
    check Alcotest.int "small tag" Space_tag.nursery
      (OT.space (Heap.objects heap) id)
  done

let test_ladder_exhausts_after_last_stage () =
  let _, path, ran = stub_path ~stages:3 ~succeed_after:4 () in
  Alcotest.check_raises "exhaustion message"
    (Collector.Heap_exhausted "stub: cannot allocate 64 bytes in 16384-byte heap")
    (fun () -> ignore (alloc_64 path));
  check ints "every stage ran, in order" [ 0; 1; 2 ] (ran ())

let test_stage_exhaustion_propagates () =
  let _, path, ran = stub_path ~raise_at:1 ~stages:3 ~succeed_after:3 () in
  Alcotest.check_raises "the stage's own exception"
    (Collector.Heap_exhausted "stage gave up")
    (fun () -> ignore (alloc_64 path));
  check ints "later stages skipped" [ 0; 1 ] (ran ())

(* Objects above these sizes go to the large object space. *)
let los_threshold = function
  | "GenMS" | "CopyMS" | "MarkSweep" -> 2048
  | "GenCopy" | "SemiSpace" | "BC" -> 8180
  | family -> Alcotest.failf "no LOS threshold for %s" family

let test_los_routing (info : Harness.Registry.info) () =
  let m, c = Mini.collector info.Harness.Registry.name in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let rooted = ref [] in
  Heap.set_roots heap (fun f -> List.iter f !rooted);
  let alloc size =
    let id = c.Collector.alloc ~size ~nrefs:0 ~kind:`Array in
    rooted := id :: !rooted;
    id
  in
  let threshold = los_threshold info.Harness.Registry.family in
  let at = alloc threshold in
  let above = alloc (threshold + 1) in
  let small_tag =
    if info.Harness.Registry.family = "MarkSweep" then Space_tag.mature
    else Space_tag.nursery
  in
  check Alcotest.int "threshold size stays small" small_tag
    (OT.space objects at);
  check Alcotest.int "one byte more goes to the LOS" Space_tag.los
    (OT.space objects above);
  (* only the LOS sweep frees a LOS-tagged object, so reclaiming it
     proves the space lists it *)
  c.Collector.collect ();
  check Alcotest.bool "survives while reachable" true (OT.is_live objects above);
  rooted := [];
  c.Collector.collect ();
  check Alcotest.bool "listed by the LOS" false (OT.is_live objects above)

(* -- the nine paper benchmarks, miniaturised -------------------------- *)

let test_benchmark_matrix collector spec () =
  let spec = Workload.Spec.scale_volume spec 0.01 in
  let heap_bytes = 2 * Workload.Spec.live_estimate_bytes spec in
  let m, c = Mini.collector ~heap_bytes ~frames:8192 collector in
  let mutator = Workload.Mutator.create spec c in
  Mini.drive mutator;
  Oracle.check m.Mini.heap;
  c.Collector.check_invariants ()

(* -- property: random workload shapes -------------------------------- *)

let prop_gc_preserves_reachability =
  QCheck.Test.make ~name:"random workloads never lose reachable objects"
    ~count:12
    QCheck.(
      triple (int_range 0 9) (int_range 20 80)
        (int_range 0 1000))
    (fun (collector_idx, mean_size, seed) ->
      let name = List.nth all_collectors collector_idx in
      let spec =
        {
          (Mini.spec ~volume:250_000 ~seed ()) with
          Workload.Spec.mean_size;
          long_frac = 0.05;
        }
      in
      let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
      let mutator = Workload.Mutator.create spec c in
      Mini.drive mutator;
      Oracle.check m.Mini.heap;
      c.Collector.check_invariants ();
      true)

let per_collector name tests =
  List.map
    (fun (label, fn) -> Alcotest.test_case (name ^ ": " ^ label) `Quick (fn name))
    tests

let () =
  Alcotest.run "collectors"
    [
      ( "reachability",
        List.concat_map
          (fun name -> per_collector name [ ("preserves reachability", test_preserves_reachability) ])
          all_collectors );
      ( "bookkeeping",
        List.concat_map
          (fun name ->
            per_collector name
              [
                ("collects+records", test_collects_and_records);
                ("forced collect", test_forced_collect_reclaims);
                ("contents survive", test_contents_survive_moves);
                ("heap budget", test_heap_budget);
                ("exhaustion", test_exhaustion);
                ("deterministic", test_deterministic);
              ])
          all_collectors );
      ( "pressure",
        List.concat_map
          (fun name ->
            per_collector name
              [
                ("correct under pressure", test_pressure_correct);
                ("pressure release", test_pressure_release);
              ])
          pressure_capable );
      ( "garbage",
        List.concat_map
          (fun name ->
            per_collector name
              [
                ("bounded retention", test_garbage_bounded);
                ("exact collection", test_forced_collect_exact);
                ("steady collection allocates O(1)",
                  test_steady_collect_allocates_o1);
              ])
          all_collectors );
      ( "verify",
        List.concat_map
          (fun name -> per_collector name [ ("mid-run", test_verify_mid_run) ])
          all_collectors
        @ [
            Alcotest.test_case "stale page slot" `Quick test_verify_stale_slot;
            Alcotest.test_case "duplicate entry" `Quick
              test_verify_duplicate_entry;
            Alcotest.test_case "missing entry" `Quick
              test_verify_missing_entry;
            Alcotest.test_case "stale entry alone on its page" `Quick
              test_verify_stale_entry_alone;
            Alcotest.test_case "object crosses a range" `Quick
              test_verify_range_crossing;
          ] );
      ( "tracer",
        [
          Alcotest.test_case "nested run refused" `Quick
            test_nested_trace_refused;
          Alcotest.test_case "follow asked after the mark" `Quick
            test_follow_after_mark;
        ] );
      ( "policies",
        [
          Alcotest.test_case "whole-heap only" `Quick
            test_whole_heap_collectors_never_minor;
          Alcotest.test_case "generational minors" `Quick
            test_generational_collectors_mostly_minor;
          Alcotest.test_case "fixed nursery frequency" `Quick
            test_fixed_nursery_collects_more_often;
          Alcotest.test_case "only BC compacts" `Quick test_only_bc_compacts;
        ] );
      ( "alloc path",
        [
          Alcotest.test_case "ladder stops at first success" `Quick
            test_ladder_stops_at_first_success;
          Alcotest.test_case "exhausted after last stage" `Quick
            test_ladder_exhausts_after_last_stage;
          Alcotest.test_case "stage exception propagates" `Quick
            test_stage_exhaustion_propagates;
        ]
        @ List.map
            (fun (info : Harness.Registry.info) ->
              Alcotest.test_case
                (info.Harness.Registry.name ^ ": LOS routing")
                `Quick (test_los_routing info))
            Harness.Registry.all );
      ( "benchmarks",
        List.concat_map
          (fun collector ->
            List.map
              (fun spec ->
                Alcotest.test_case
                  (collector ^ " on " ^ spec.Workload.Spec.name)
                  `Quick
                  (test_benchmark_matrix collector spec))
              Workload.Catalog.batch_specs)
          [ "BC"; "GenMS" ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_gc_preserves_reachability ] );
    ]
