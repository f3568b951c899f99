(* Bookmarking-collector specifics: eviction handling, bookmark and
   counter invariants, discarding, compaction, heap-footprint limiting
   and the completeness fail-safe. *)

module Mini = Test_support.Mini
module Oracle = Test_support.Oracle
module OT = Heapsim.Object_table
module Heap = Heapsim.Heap
module Collector = Gc_common.Collector
module Gc_stats = Gc_common.Gc_stats
module Bc = Bookmarking.Bc
module Bookmarks = Bookmarking.Bookmarks
module Vm_stats = Vmsim.Vm_stats

let check = Alcotest.check

(* A BC instance under explicit control, plus a signalmem to squeeze it. *)
let fixture ?(name = "BC") ?(heap_bytes = 1024 * 1024) ?(frames = 512) () =
  let m = Mini.machine ~frames () in
  let c = Harness.Registry.create ~name ~heap_bytes m.Mini.heap in
  let signalmem =
    Workload.Signalmem.create m.Mini.vmm (Heap.address_space m.Mini.heap)
  in
  (m, c, signalmem, Bc.debug_of c)

let squeeze m signalmem ~leave =
  let frames = Vmsim.Vmm.capacity m.Mini.vmm in
  Workload.Signalmem.pin_pages signalmem
    (frames - Vmsim.Vmm.resident_count m.Mini.vmm
    + (Vmsim.Vmm.resident_count m.Mini.vmm - leave))

let test_debug_of_rejects_baselines () =
  let _, c = Mini.collector "GenMS" in
  Alcotest.check_raises "not BC"
    (Invalid_argument "Bc.debug_of: not a bookmarking collector instance")
    (fun () -> ignore (Bc.debug_of c))

(* Nothing process-wide keeps a BC instance alive: its debug view rides
   on the collector record, so a dropped collector's heap is reclaimed.
   Long campaigns on the domain pool build thousands of them. *)
let test_dropped_collector_reclaimed () =
  let heaps = Weak.create 1 in
  let[@inline never] build () =
    let _, c = Mini.collector "BC" in
    ignore (Mini.alloc_list c ~n:500 ~size:64);
    ignore (Bc.debug_of c);
    Weak.set heaps 0 (Some c.Collector.heap)
  in
  build ();
  Gc.full_major ();
  check Alcotest.bool "heap reclaimed" false (Weak.check heaps 0)

let test_eviction_creates_bookmarks () =
  let m, c, signalmem, dbg = fixture () in
  let ids = Mini.alloc_list c ~n:3000 ~size:64 in
  ignore ids;
  (* move everything to the mature space so pages are evictable *)
  c.Collector.collect ();
  squeeze m signalmem ~leave:40;
  check Alcotest.bool "pages evicted" true (dbg.Bc.evicted_pages () > 0);
  check Alcotest.bool "bookmarks set" true
    (Bookmarks.covered dbg.Bc.bookmarks > 0);
  check Alcotest.bool "ledger mirrors counters" true
    (Bookmarks.incoming_total dbg.Bc.bookmarks
    = Bookmarks.ledger_total dbg.Bc.bookmarks);
  c.Collector.check_invariants ();
  Oracle.check m.Mini.heap

let test_collection_avoids_evicted_pages () =
  let m, c, signalmem, dbg = fixture () in
  ignore (Mini.alloc_list c ~n:3000 ~size:64);
  c.Collector.collect ();
  squeeze m signalmem ~leave:40;
  check Alcotest.bool "setup evicted pages" true (dbg.Bc.evicted_pages () > 0);
  let faults_before =
    (Vmsim.Process.stats m.Mini.proc).Vm_stats.major_faults
  in
  c.Collector.collect ();
  let faults =
    (Vmsim.Process.stats m.Mini.proc).Vm_stats.major_faults - faults_before
  in
  check Alcotest.int "full collection touches no evicted page" 0 faults;
  check Alcotest.bool "evicted pages survived the collection" true
    (dbg.Bc.evicted_pages () > 0);
  Oracle.check m.Mini.heap

let test_resize_only_pays_faults () =
  let m, c, signalmem, dbg = fixture ~name:"BC-resize" () in
  ignore (Mini.alloc_list c ~n:3000 ~size:64);
  c.Collector.collect ();
  squeeze m signalmem ~leave:40;
  check Alcotest.bool "pages evicted" true (dbg.Bc.evicted_pages () > 0);
  check Alcotest.int "no bookmarks without the mechanism" 0
    (Bookmarks.covered dbg.Bc.bookmarks);
  let before = (Vmsim.Process.stats m.Mini.proc).Vm_stats.major_faults in
  c.Collector.collect ();
  let faults =
    (Vmsim.Process.stats m.Mini.proc).Vm_stats.major_faults - before
  in
  check Alcotest.bool "resizing-only collection faults" true (faults > 0)

let test_reload_clears_bookmarks () =
  let m, c, signalmem, dbg = fixture () in
  let ids = Mini.alloc_list c ~n:3000 ~size:64 in
  c.Collector.collect ();
  squeeze m signalmem ~leave:40;
  check Alcotest.bool "bookmarks set" true
    (Bookmarks.covered dbg.Bc.bookmarks > 0);
  (* release the pressure and touch every object: all pages reload *)
  Workload.Signalmem.unpin_all signalmem;
  List.iter
    (fun id ->
      if OT.is_live (Heap.objects m.Mini.heap) id then
        Heap.access m.Mini.heap id)
    ids;
  check Alcotest.int "all pages back" 0 (dbg.Bc.evicted_pages ());
  check Alcotest.int "all bookmarks cleared" 0
    (Bookmarks.covered dbg.Bc.bookmarks);
  check Alcotest.int "all counters released" 0
    (Bookmarks.incoming_total dbg.Bc.bookmarks);
  check Alcotest.int "ledger empty" 0 (Bookmarks.ledger_total dbg.Bc.bookmarks);
  c.Collector.check_invariants ();
  Oracle.check m.Mini.heap

(* An eviction notice for a large object's second page is BC's to
   handle: with no empty page to discard instead, the page is scanned,
   its object self-bookmarked, and the page protected and relinquished
   (the kernel reclaims it on its next pass). *)
let test_los_page_notice_bookmarked () =
  let m, c, _, dbg = fixture () in
  let heap = m.Mini.heap in
  let id = c.Collector.alloc ~size:10_000 ~nrefs:0 ~kind:`Array in
  Heap.set_roots heap (fun f -> f id);
  let second = Heap.first_page heap id + 1 in
  (match Vmsim.Process.handlers m.Mini.proc with
  | Some h -> h.Vmsim.Process.on_eviction_notice second
  | None -> Alcotest.fail "BC registered no paging handlers");
  check Alcotest.int "page evicted" 1 (dbg.Bc.evicted_pages ());
  check Alcotest.bool "left BC's residency view" false
    (Bookmarking.Residency.is_resident dbg.Bc.residency second);
  check Alcotest.bool "page protected until it is reclaimed" true
    (Vmsim.Vmm.is_protected m.Mini.vmm second);
  check Alcotest.bool "object bookmarked" true
    (OT.bookmarked (Heap.objects heap) id);
  c.Collector.check_invariants ();
  Oracle.check heap

(* A made-resident notice for a page the kernel still holds on disk (a
   duplicated or badly delayed notice) is ignored: the page keeps its
   ledger entry, so nothing its scan covered is released. *)
let test_spurious_resident_keeps_covers () =
  let m, c, signalmem, dbg = fixture () in
  ignore (Mini.alloc_list c ~n:3000 ~size:64);
  c.Collector.collect ();
  squeeze m signalmem ~leave:40;
  let b = dbg.Bc.bookmarks in
  let in_ledger page =
    Bookmarks.fold_pages b (fun p acc -> acc || p = page) false
  in
  let page =
    Bookmarks.fold_pages b
      (fun p acc ->
        if acc < 0 && not (Vmsim.Vmm.is_resident m.Mini.vmm p) then p else acc)
      (-1)
  in
  check Alcotest.bool "a ledger page is on disk" true (page >= 0);
  let state () =
    ( Bookmarks.ledger_total b,
      Bookmarks.incoming_total b,
      Bookmarks.covered b,
      dbg.Bc.evicted_pages () )
  in
  let before = state () in
  check Alcotest.int "no spurious notice yet" 0 (dbg.Bc.spurious_resident ());
  (match Vmsim.Process.handlers m.Mini.proc with
  | Some h -> h.Vmsim.Process.on_resident page
  | None -> Alcotest.fail "BC registered no paging handlers");
  check Alcotest.int "counted as spurious" 1 (dbg.Bc.spurious_resident ());
  check Alcotest.bool "the page keeps its ledger entry" true (in_ledger page);
  check Alcotest.bool "counts, covers and residency unchanged" true
    (state () = before);
  c.Collector.check_invariants ();
  Oracle.check m.Mini.heap

(* A release that finds a container's count already at zero (a lost
   counter update) schedules the §3.5 fail-safe, which rebuilds exact
   state; [check_invariants] runs a scheduled one first. *)
let test_underflow_schedules_failsafe () =
  let m, c, signalmem, dbg = fixture () in
  let ids = Mini.alloc_list c ~n:3000 ~size:64 in
  c.Collector.collect ();
  squeeze m signalmem ~leave:40;
  let b = dbg.Bc.bookmarks in
  check Alcotest.bool "pages point into containers" true
    (Bookmarks.ledger_total b > 0);
  (* every count update is lost *)
  List.iter
    (fun container ->
      while Bookmarks.incoming b container > 0 do
        Bookmarks.drop_count b container
      done)
    (Bookmarks.other
    :: List.init (Bookmarking.Superpage.sp_count dbg.Bc.superpages) Fun.id);
  let failsafes = dbg.Bc.failsafe_count () in
  Workload.Signalmem.unpin_all signalmem;
  List.iter
    (fun id ->
      if OT.is_live (Heap.objects m.Mini.heap) id then
        Heap.access m.Mini.heap id)
    ids;
  c.Collector.check_invariants ();
  check Alcotest.int "the fail-safe ran" (failsafes + 1)
    (dbg.Bc.failsafe_count ());
  Oracle.check m.Mini.heap

let test_header_pages_stay_resident () =
  let m, c, signalmem, dbg = fixture () in
  ignore (Mini.alloc_list c ~n:3000 ~size:64);
  c.Collector.collect ();
  squeeze m signalmem ~leave:40;
  Bookmarking.Superpage.iter_sps dbg.Bc.superpages (fun sp ->
      if sp.Bookmarking.Superpage.cells_total > 0 then
        check Alcotest.bool "in-use header resident" true
          (Vmsim.Vmm.is_resident m.Mini.vmm sp.Bookmarking.Superpage.first_page))

let test_footprint_target_shrinks () =
  let m, c, signalmem, dbg = fixture () in
  ignore (Mini.alloc_list c ~n:3000 ~size:64);
  c.Collector.collect ();
  check Alcotest.bool "no target before pressure" true
    (dbg.Bc.target_footprint () = None);
  squeeze m signalmem ~leave:60;
  check Alcotest.bool "target set under pressure" true
    (dbg.Bc.target_footprint () <> None)

(* -- BC's paging path allocates O(1) host words ---------------------- *)

let notice m page =
  match Vmsim.Process.handlers m.Mini.proc with
  | Some h -> h.Vmsim.Process.on_eviction_notice page
  | None -> Alcotest.fail "BC registered no paging handlers"

let words f = int_of_float (Mini.host_words f)

(* A notice the handler answers by discarding empty pages, and one it
   vetoes by touching the page, allocate nothing once the handler's
   buffers have grown. *)
let test_notices_allocate_nothing () =
  let m, c, _, dbg = fixture () in
  let heap = m.Mini.heap in
  let resident page = Bookmarking.Residency.is_resident dbg.Bc.residency page in
  (* garbage: once collected, its nursery pages are empty *)
  let garbage = Mini.alloc_list c ~n:6000 ~size:64 in
  let pages = List.sort_uniq compare (List.map (Heap.first_page heap) garbage) in
  Heap.set_roots heap (fun _ -> ());
  c.Collector.collect ();
  (* each discard also takes the empty pages sharing its residency word *)
  let discard_next () =
    match List.find_opt resident pages with
    | Some page ->
        let w = words (fun () -> notice m page) in
        check Alcotest.bool "discarded" false (resident page);
        w
    | None -> Alcotest.fail "no empty page left to discard"
  in
  ignore (discard_next ());
  check Alcotest.int "discarding notice" 0 (discard_next ());
  (* a populated nursery page, once the store has no empty page left *)
  let page = Heap.first_page heap (List.hd (Mini.alloc_list c ~n:10 ~size:64)) in
  let discards () = (Vmsim.Process.stats m.Mini.proc).Vm_stats.discards in
  let rec drain () =
    let before = discards () in
    notice m page;
    if discards () > before then drain ()
  in
  drain ();
  check Alcotest.int "vetoed notice" 0 (words (fun () -> notice m page));
  check Alcotest.bool "vetoed page stays" true
    (resident page && Vmsim.Vmm.is_resident m.Mini.vmm page)

(* A bookmark scan allocates its ledger entry, one word per superpage
   and object it records, and a constant. The scan measured re-evicts a
   page whose reload the collector never heard of (the page was
   unprotected behind its back), so every count it bumps already
   exists. BC-ptraware first scores the victim against the coldest
   pages, which must allocate nothing either. *)
let test_bookmark_scan_allocates_its_entry name () =
  let m, c, _, dbg = fixture ~name () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let sps = dbg.Bc.superpages in
  let resident page = Bookmarking.Residency.is_resident dbg.Bc.residency page in
  let ids = Mini.alloc_list c ~n:3000 ~size:64 in
  c.Collector.collect ();
  let victim =
    List.map (Heap.first_page heap) ids
    |> List.find (fun page ->
           resident page && not (Bookmarking.Superpage.is_header_page sps page))
  in
  (* notices discard the store's empty pages first; then one scans *)
  while resident victim do
    notice m victim
  done;
  Vmsim.Vmm.mprotect m.Mini.vmm victim ~protect:false;
  let w = words (fun () -> notice m victim) in
  (* what the scan records: the page's objects, their resident targets
     and the targets' superpages *)
  let on_page = Repro_util.Vec.create () in
  Heapsim.Page_map.objects_on (Heap.page_map heap) victim on_page;
  let targets = ref [] in
  Repro_util.Vec.iter
    (fun id -> OT.iter_refs objects id (fun _ t -> targets := t :: !targets))
    on_page;
  let target_sps =
    List.sort_uniq compare
      (List.filter_map
         (fun t ->
           Option.map
             (fun sp -> sp.Bookmarking.Superpage.index)
             (Bookmarking.Superpage.sp_of_addr sps (OT.addr objects t)))
         !targets)
  in
  let recorded =
    Repro_util.Vec.length on_page + List.length !targets
    + List.length target_sps
  in
  check Alcotest.bool
    (Printf.sprintf "%d host words for %d records" w recorded)
    true
    (w <= recorded + 64);
  check Alcotest.bool "evicted again" false (resident victim)

(* A steady collection's host words do not grow with the grey stack: the
   stack is the heap's, and keeps its capacity. Every object is a root,
   so the stack is as deep as the heap is large. BC_ORACLE=1 verifies
   the heap after every collection, which allocates per object, so the
   check is skipped there. *)
let test_steady_collection_flat_in_stack_depth () =
  if Sys.getenv_opt "BC_ORACLE" <> None then Alcotest.skip ();
  let m, c, _, _ = fixture ~heap_bytes:(4 * 1024 * 1024) ~frames:4096 () in
  let roots = ref [||] in
  Heap.set_roots m.Mini.heap (fun f -> Array.iter f !roots);
  let steady_words n =
    let more =
      Array.init n (fun _ -> c.Collector.alloc ~size:64 ~nrefs:0 ~kind:`Scalar)
    in
    roots := Array.append !roots more;
    c.Collector.collect ();
    c.Collector.collect ();
    words (fun () -> c.Collector.collect ())
  in
  let shallow = steady_words 500 in
  let deep = steady_words 4000 in
  check Alcotest.bool
    (Printf.sprintf "%d host words at depth 500, %d at 4500" shallow deep)
    true
    (deep <= shallow + 64)

(* A compacting collection at steady state allocates O(1) host words:
   its census, target selection, sweep and move pass allocate nothing
   per object, page or superpage, so a heap four times as large costs
   no more. BC_ORACLE=1 verifies the heap after every collection, which
   allocates per object, so the check is skipped there. *)
let test_steady_compaction_allocates_o1 () =
  if Sys.getenv_opt "BC_ORACLE" <> None then Alcotest.skip ();
  let steady_words ~immortal_bytes =
    let m, c = Mini.collector ~heap_bytes:(8 * 1024 * 1024) "BC" in
    let dbg = Bc.debug_of c in
    let spec =
      {
        (Mini.spec ~volume:2_400_000 ()) with
        Workload.Spec.immortal_bytes;
        window_bytes = 240_000;
      }
    in
    Mini.drive (Workload.Mutator.create spec c);
    let compactions () = Gc_stats.count c.Collector.stats Gc_stats.Compacting in
    let before = compactions () in
    dbg.Bc.compact ();
    dbg.Bc.compact ();
    let w = words (fun () -> dbg.Bc.compact ()) in
    check Alcotest.int "three compactions" (before + 3) (compactions ());
    (w, OT.live_count (Heap.objects m.Mini.heap),
     Bookmarking.Superpage.sp_count dbg.Bc.superpages)
  in
  let small, small_live, small_sps = steady_words ~immortal_bytes:400_000 in
  let large, large_live, large_sps = steady_words ~immortal_bytes:1_600_000 in
  check Alcotest.bool "the larger heap has more to visit" true
    (large_live > 2 * small_live && large_sps > 2 * small_sps);
  check Alcotest.bool
    (Printf.sprintf
       "%d host words for %d objects on %d superpages, %d for %d on %d"
       small small_live small_sps large large_live large_sps)
    true
    (large <= small + 64)

let test_discards_empty_pages_first () =
  let m, c, signalmem, dbg = fixture () in
  (* allocate garbage, collect: the heap now holds many empty pages *)
  ignore (Mini.alloc_list c ~n:3000 ~size:64);
  Heap.set_roots m.Mini.heap (fun _ -> ());
  c.Collector.collect ();
  c.Collector.collect ();
  let before = (Vmsim.Process.stats m.Mini.proc).Vm_stats.discards in
  squeeze m signalmem ~leave:24;
  let discards =
    (Vmsim.Process.stats m.Mini.proc).Vm_stats.discards - before
  in
  check Alcotest.bool "empty pages discarded, not swapped" true (discards > 0);
  check Alcotest.int "nothing needed bookmarking" 0 (dbg.Bc.evicted_pages ())

let test_compaction_shrinks_superpages () =
  let m, c, _, dbg = fixture ~heap_bytes:(1280 * 1024) ~frames:2048 () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  (* fragment the mature space: many small objects, then kill 9 of 10 so
     every superpage stays partially occupied *)
  let ids = Array.of_list (Mini.alloc_list c ~n:8000 ~size:96) in
  c.Collector.collect ();
  let keep = ref [] in
  Array.iteri (fun i id -> if i mod 10 = 0 then keep := id :: !keep) ids;
  let kept = !keep in
  (* the new allocations below must also stay rooted *)
  let news = ref [] in
  Heap.set_roots heap (fun f ->
      List.iter f kept;
      List.iter f !news);
  (* sever the chain links so the dead objects really die *)
  List.iter (fun id -> Heap.write_ref heap id 0 Heapsim.Obj_id.null) kept;
  c.Collector.collect ();
  let stats = c.Collector.stats in
  let before = Gc_stats.count stats Gc_stats.Compacting in
  (* a large-object demand the fragmented class-96 superpages cannot
     serve: only compaction can consolidate them into free superpages *)
  for _ = 1 to 600 do
    news := c.Collector.alloc ~size:1024 ~nrefs:0 ~kind:`Scalar :: !news
  done;
  let compactions = Gc_stats.count stats Gc_stats.Compacting - before in
  check Alcotest.bool "compaction ran" true (compactions > 0);
  List.iter
    (fun id -> check Alcotest.bool "survivor intact" true (OT.is_live objects id))
    kept;
  c.Collector.check_invariants ();
  ignore dbg;
  Oracle.check m.Mini.heap

(* The sweep frees a page's dead objects in the order its bucket lists
   them, as a sweep walking a copy of the bucket would, even once
   earlier frees' swap-removes have permuted the bucket. Each free
   pushes the object's cell on its superpage's free list, so the next
   cells handed out are the freed ones, last freed first. *)
let test_sweep_frees_in_bucket_order () =
  let m, c, _, dbg = fixture ~frames:4096 () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let page_map = Heap.page_map heap in
  let sps = dbg.Bc.superpages in
  let roots = ref [] in
  Heap.set_roots heap (fun f -> List.iter f !roots);
  roots :=
    List.init 200 (fun _ -> c.Collector.alloc ~size:64 ~nrefs:0 ~kind:`Scalar);
  c.Collector.collect ();
  let sp =
    match Bookmarking.Superpage.sp_of_addr sps (OT.addr objects (List.hd !roots)) with
    | Some sp -> sp
    | None -> Alcotest.fail "survivor outside the superpages"
  in
  let first = sp.Bookmarking.Superpage.first_page in
  let pages = List.init Vmsim.Page.pages_per_superpage (fun i -> first + i) in
  check Alcotest.bool "one superpage holds them all" true
    (List.for_all
       (fun id ->
         match Bookmarking.Superpage.sp_of_addr sps (OT.addr objects id) with
         | Some other -> other == sp
         | None -> false)
       !roots);
  let buckets () =
    List.map
      (fun page ->
        let v = Repro_util.Vec.create () in
        Heapsim.Page_map.objects_on page_map page v;
        Repro_util.Vec.to_list v)
      pages
  in
  let drop keep = roots := List.filteri (fun i _ -> keep i) !roots in
  let placed = buckets () in
  (* a first sweep's frees permute the buckets *)
  drop (fun i -> i mod 3 <> 0);
  c.Collector.collect ();
  let permuted = buckets () in
  check Alcotest.bool "some bucket permuted" true
    (List.exists2
       (fun before after ->
         after <> List.filter (fun id -> List.mem id after) before)
       placed permuted);
  (* a copying sweep, run on copies of the buckets: page by page, it
     walks a copy of the page's bucket as it stands then and frees each
     dead object from its first page, and a free swap-removes the object
     from the bucket of every page it spans, as Page_map.remove does, so
     an object spanning two pages permutes the next page's bucket *)
  drop (fun i -> i mod 2 = 0);
  let dead id = not (List.mem id !roots) in
  let model = Array.of_list (List.map Repro_util.Vec.of_list permuted) in
  let bucket page = model.(page - first) in
  let remove page id =
    let v = bucket page in
    let rec find i = if Repro_util.Vec.get v i = id then i else find (i + 1) in
    ignore (Repro_util.Vec.swap_remove v (find 0) : int)
  in
  let last_freed_first = ref [] and straddlers = ref 0 in
  List.iter
    (fun page ->
      List.iter
        (fun id ->
          let span = OT.span objects id in
          if dead id && OT.span_first span = page then begin
            last_freed_first := OT.addr objects id :: !last_freed_first;
            if OT.span_last span > page then incr straddlers;
            for p = page to OT.span_last span do
              remove p id
            done
          end)
        (Repro_util.Vec.to_list (bucket page)))
    pages;
  check Alcotest.bool "dead objects span two pages" true (!straddlers > 0);
  c.Collector.collect ();
  let cells =
    List.map
      (fun _ ->
        Bookmarking.Superpage.alloc sps ~bytes:64 ~kind:Bookmarking.Superpage.Scalar
          ~grow:(fun () -> false) ~resident:(fun _ -> true))
      !last_freed_first
  in
  check (Alcotest.list Alcotest.int) "cells come back last freed first"
    !last_freed_first cells

(* A full collection whose evacuation runs out of mature space part-way
   through leaves the survivors it has not moved on the young list, in
   order: the next collection moves exactly those, in that order, into a
   freshly carved superpage, which hands its cells out highest address
   first. *)
let test_evacuation_abort_keeps_survivors () =
  let m, c, _, _ = fixture ~heap_bytes:(512 * 1024) ~frames:2048 () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let fill = ref [] and survivors = ref [] in
  Heap.set_roots heap (fun f ->
      List.iter f !fill;
      List.iter f !survivors);
  let alloc size = c.Collector.alloc ~size ~nrefs:0 ~kind:`Scalar in
  (* 29 of the 30 superpages the heap can hold, full of 1 KB cells *)
  for _ = 1 to 435 do
    fill := alloc 1024 :: !fill
  done;
  c.Collector.collect ();
  (* more 64-byte survivors than the last superpage holds *)
  for _ = 1 to 450 do
    survivors := alloc 64 :: !survivors
  done;
  let ids = List.rev !survivors in
  (match c.Collector.collect () with
  | () -> Alcotest.fail "the evacuation found room for every survivor"
  | exception Collector.Heap_exhausted _ -> ());
  Gc_common.Verify.heap heap;
  let young id = OT.space objects id = Gc_common.Space_tag.nursery in
  let moved = List.filter (fun id -> not (young id)) ids in
  let unmoved = List.filter young ids in
  check Alcotest.bool "some survivors moved, some not" true
    (moved <> [] && unmoved <> []);
  check (Alcotest.list Alcotest.int) "the moved ones come first" ids
    (moved @ unmoved);
  let moved_at = List.map (OT.addr objects) moved in
  (* with the large cells dead there is room for the rest *)
  fill := [];
  c.Collector.collect ();
  Gc_common.Verify.heap heap;
  check Alcotest.bool "every survivor moved" true
    (List.for_all (fun id -> not (young id)) ids);
  check (Alcotest.list Alcotest.int) "moved ones stay put" moved_at
    (List.map (OT.addr objects) moved);
  let rec descending = function
    | a :: (b :: _ as rest) -> a > b && descending rest
    | _ -> true
  in
  check Alcotest.bool "the rest moved in list order" true
    (descending (List.map (OT.addr objects) unmoved));
  c.Collector.check_invariants ();
  Oracle.check heap

let test_failsafe_preserves_completeness () =
  (* exhaust the heap while pages are evicted: BC must discard bookmarks,
     take the faults, and reclaim the (bookmarked) garbage *)
  let m, c, signalmem, dbg = fixture ~heap_bytes:(640 * 1024) ~frames:384 () in
  let heap = m.Mini.heap in
  ignore (Mini.alloc_list c ~n:3000 ~size:64);
  c.Collector.collect ();
  squeeze m signalmem ~leave:32;
  check Alcotest.bool "pages evicted" true (dbg.Bc.evicted_pages () > 0);
  (* drop all roots: the evicted objects are garbage BC cannot see *)
  Heap.set_roots heap (fun _ -> ());
  Workload.Signalmem.unpin_all signalmem;
  (* demand more than mark-sweep-with-bookmarks can free *)
  let survived =
    match Mini.alloc_list c ~n:8000 ~size:64 with
    | _ -> true
    | exception Collector.Heap_exhausted _ -> false
  in
  check Alcotest.bool "allocation eventually satisfied" true survived;
  check Alcotest.bool "fail-safe collection ran" true
    (dbg.Bc.failsafe_count () > 0);
  Oracle.check heap

let test_invariants_hold_through_pressure_workload () =
  let heap_bytes = 1024 * 1024 in
  let frames = 360 in
  let m = Mini.machine ~frames () in
  let c = Harness.Registry.create ~name:"BC" ~heap_bytes m.Mini.heap in
  let dbg = Bc.debug_of c in
  let signalmem =
    Workload.Signalmem.create m.Mini.vmm (Heap.address_space m.Mini.heap)
  in
  let mutator = Workload.Mutator.create (Mini.spec ~volume:900_000 ()) c in
  Mini.drive mutator ~between:(fun slice ->
      if slice = 3 then Workload.Signalmem.pin_pages signalmem 180;
      if slice mod 8 = 0 then begin
        c.Collector.check_invariants ();
        Oracle.check m.Mini.heap
      end);
  check Alcotest.bool "bookmarking was exercised" true
    ((Vmsim.Process.stats m.Mini.proc).Vm_stats.relinquished > 0
    || (Vmsim.Process.stats m.Mini.proc).Vm_stats.discards > 0);
  ignore dbg

let test_pointer_aware_victims () =
  (* two cold regions: pointer-free arrays and pointer-heavy records.
     The pointer-aware variant should evict the arrays, leaving fewer
     bookmarks than stock BC in the identical scenario. *)
  let scenario name =
    let m = Mini.machine ~frames:512 () in
    let c = Harness.Registry.create ~name ~heap_bytes:(1024 * 1024) m.Mini.heap in
    let dbg = Bc.debug_of c in
    let heap = m.Mini.heap in
    let keep = ref [] in
    Heapsim.Heap.set_roots heap (fun f -> List.iter f !keep);
    (* pointer-heavy: chained records *)
    let prev = ref Heapsim.Obj_id.null in
    for _ = 1 to 1500 do
      let id = c.Collector.alloc ~size:64 ~nrefs:2 ~kind:`Scalar in
      if not (Heapsim.Obj_id.is_null !prev) then
        Heapsim.Heap.write_ref heap id 0 !prev;
      prev := id;
      keep := id :: !keep
    done;
    (* pointer-free: arrays of doubles *)
    for _ = 1 to 1500 do
      let id = c.Collector.alloc ~size:64 ~nrefs:0 ~kind:`Array in
      keep := id :: !keep
    done;
    c.Collector.collect ();
    let signalmem =
      Workload.Signalmem.create m.Mini.vmm (Heap.address_space heap)
    in
    squeeze m signalmem ~leave:36;
    Oracle.check heap;
    c.Collector.check_invariants ();
    (dbg.Bc.evicted_pages (), Bookmarks.incoming_total dbg.Bc.bookmarks)
  in
  let evicted_plain, incoming_plain = scenario "BC" in
  let evicted_aware, incoming_aware = scenario "BC-ptraware" in
  check Alcotest.bool "both evicted" true (evicted_plain > 0 && evicted_aware > 0);
  (* conservative self-bookmarks are unavoidable, but preferring
     pointer-poor victims leaves fewer cross-superpage references from
     disk (lower incoming counters = less false garbage) *)
  check Alcotest.bool "pointer-aware victims leave fewer incoming refs" true
    (incoming_aware < incoming_plain)

let test_cooper_discards_but_does_not_bookmark () =
  (* the Cooper-style collector (related work, §6) discards empty pages on
     eviction signals but pays faults when its collections touch evicted
     pages — between stock GenMS and BC *)
  let m = Mini.machine ~frames:512 () in
  let c =
    Harness.Registry.create ~name:"GenMS-coop" ~heap_bytes:(1024 * 1024)
      m.Mini.heap
  in
  let signalmem =
    Workload.Signalmem.create m.Mini.vmm (Heap.address_space m.Mini.heap)
  in
  let mutator = Workload.Mutator.create (Mini.spec ~volume:900_000 ()) c in
  Mini.drive mutator ~between:(fun slice ->
      if slice = 6 then Workload.Signalmem.pin_pages signalmem 380);
  let stats = Vmsim.Process.stats m.Mini.proc in
  check Alcotest.bool "discards happened" true (stats.Vm_stats.discards > 0);
  check Alcotest.int "never relinquishes" 0 stats.Vm_stats.relinquished;
  Oracle.check m.Mini.heap

(* property: random pin/unpin schedules keep BC sound *)
let prop_bc_random_pressure =
  QCheck.Test.make ~name:"BC sound under random pressure schedules" ~count:10
    QCheck.(pair (int_range 0 1000) (list_of_size (Gen.return 6) (int_range 40 200)))
    (fun (seed, pins) ->
      let heap_bytes = 1024 * 1024 in
      let m = Mini.machine ~frames:420 () in
      let c = Harness.Registry.create ~name:"BC" ~heap_bytes m.Mini.heap in
      let signalmem =
        Workload.Signalmem.create m.Mini.vmm (Heap.address_space m.Mini.heap)
      in
      let mutator = Workload.Mutator.create (Mini.spec ~volume:500_000 ~seed ()) c in
      let pins = Array.of_list pins in
      Mini.drive mutator ~between:(fun slice ->
          if slice < Array.length pins then begin
            Workload.Signalmem.unpin_all signalmem;
            Workload.Signalmem.pin_pages signalmem pins.(slice)
          end);
      Oracle.check m.Mini.heap;
      c.Collector.check_invariants ();
      true)

(* -- Bookmarks against a naive model ---------------------------------- *)

(* One record of an eviction scan: a container counted, or an object
   (by its index in the fixture) covered as a resident target or as one
   of the page's own objects. *)
type record = Count of int | Target of int | Self of int

type step =
  | Evict of int * record list  (* a scan of the page, then its record *)
  | Reload of int
  | Reload_twice of int  (* a duplicated made-resident notice *)
  | Forget
  | Lose of int  (* a lost update of the container's count *)

let model_objects = 8

(* pages 0-5 may be evicted, 6 and 7 never; each page's container is
   fixed, as a page's superpage is *)
let model_pages = 8

let evictable_pages = 6

let containers = [| Bookmarks.other; 0; 1; 2 |]

let own_of page = containers.(page mod Array.length containers)

let slot c = c + 1

let show_step = function
  | Evict (page, records) ->
      Printf.sprintf "evict %d [%s]" page
        (String.concat "; "
           (List.map
              (function
                | Count c -> Printf.sprintf "count %d" c
                | Target i -> Printf.sprintf "target %d" i
                | Self i -> Printf.sprintf "self %d" i)
              records))
  | Reload page -> Printf.sprintf "reload %d" page
  | Reload_twice page -> Printf.sprintf "reload %d twice" page
  | Forget -> "forget"
  | Lose c -> Printf.sprintf "lose %d" c

let gen_steps =
  let open QCheck.Gen in
  let container = map (fun i -> containers.(i)) (int_bound 3) in
  let obj = int_bound (model_objects - 1) in
  let record =
    frequency
      [
        (2, map (fun c -> Count c) container);
        (3, map (fun i -> Target i) obj);
        (3, map (fun i -> Self i) obj);
      ]
  in
  let page = int_bound (model_pages - 1) in
  let step =
    frequency
      [
        ( 6,
          map2
            (fun p rs -> Evict (p, rs))
            (int_bound (evictable_pages - 1))
            (list_size (int_bound 6) record) );
        (4, map (fun p -> Reload p) page);
        (1, map (fun p -> Reload_twice p) page);
        (1, return Forget);
        (1, map (fun c -> Lose c) container);
      ]
  in
  pair bool (list_size (int_range 1 40) step)

(* The model keeps what the module keeps, naively: the ledger as a list
   of entries, each container's deferred self-covers, the count updates
   lost, and (without conservative clearing) the self-covers never
   released. Every count is recomputed from those. *)
type entry = { cs : int list; targets : int list; selves : int list }

type model = {
  mutable ledger : (int * entry) list;
  deferred : int list list array;
  lost : int array;
  leaked : int array;
}

let model_count m c =
  List.length (List.filter (fun (_, e) -> List.mem c e.cs) m.ledger)
  - m.lost.(slot c)

let occurrences i l = List.length (List.filter (( = ) i) l)

let model_cover m i =
  List.fold_left
    (fun n (_, e) -> n + occurrences i e.targets + occurrences i e.selves)
    0 m.ledger
  + Array.fold_left
      (List.fold_left (fun n ids -> n + occurrences i ids))
      0 m.deferred
  + m.leaked.(i)

(* Release [e], already off the model's ledger; false on an underflow,
   whose count stays at zero. *)
let model_release m e ~own ~conservative =
  let consistent = ref true in
  List.iter
    (fun c ->
      if model_count m c < 0 then begin
        consistent := false;
        m.lost.(slot c) <- m.lost.(slot c) - 1
      end;
      if model_count m c = 0 then m.deferred.(slot c) <- [])
    e.cs;
  if not conservative then
    List.iter (fun i -> m.leaked.(i) <- m.leaked.(i) + 1) e.selves
  else if model_count m own > 0 then
    m.deferred.(slot own) <- e.selves :: m.deferred.(slot own);
  !consistent

let prop_bookmarks_model =
  QCheck.Test.make ~name:"bookmarks agree with a naive model" ~count:500
    (QCheck.make gen_steps ~print:(fun (conservative, steps) ->
         Printf.sprintf "conservative_clear=%b: %s" conservative
           (String.concat ", " (List.map show_step steps))))
    (fun (conservative, steps) ->
      let objects = OT.create () in
      let ids =
        Array.init model_objects (fun _ ->
            OT.alloc objects ~size:16 ~nrefs:0 ~kind:`Scalar)
      in
      let b = Bookmarks.create objects ~conservative_clear:conservative in
      let n = Array.length containers in
      let m =
        {
          ledger = [];
          deferred = Array.make n [];
          lost = Array.make n 0;
          leaked = Array.make model_objects 0;
        }
      in
      let expect what ok =
        if not ok then QCheck.Test.fail_reportf "%s" what
      in
      let release page =
        let own = own_of page in
        let want =
          match List.assoc_opt page m.ledger with
          | None -> true
          | Some e ->
              m.ledger <- List.remove_assoc page m.ledger;
              model_release m e ~own ~conservative
        in
        expect
          (Printf.sprintf "release %d reports an underflow iff one happened"
             page)
          (Bookmarks.release b page ~own = want)
      in
      let apply = function
        | Evict (page, records) ->
            Bookmarks.begin_scan b;
            let scanned = Array.make model_objects 0 in
            let cs = ref [] and targets = ref [] and selves = ref [] in
            List.iter
              (function
                | Count c ->
                    Bookmarks.count b c;
                    if not (List.mem c !cs) then cs := c :: !cs
                | (Target i | Self i) as r ->
                    let self = match r with Self _ -> true | _ -> false in
                    let first = model_cover m i + scanned.(i) = 0 in
                    expect
                      (Printf.sprintf "cover of %d reports a first cover" i)
                      (Bookmarks.cover b ids.(i) ~self = first);
                    scanned.(i) <- scanned.(i) + 1;
                    if self then selves := i :: !selves
                    else targets := i :: !targets)
              records;
            let own = own_of page in
            let stale = List.assoc_opt page m.ledger in
            m.ledger <-
              (page, { cs = !cs; targets = !targets; selves = !selves })
              :: List.remove_assoc page m.ledger;
            let want =
              match stale with
              | None -> true
              | Some e -> model_release m e ~own ~conservative
            in
            expect
              (Printf.sprintf "record %d reports an underflow iff one happened"
                 page)
              (Bookmarks.record b page ~own = want)
        | Reload page -> release page
        | Reload_twice page ->
            release page;
            release page
        | Forget ->
            Bookmarks.forget b;
            m.ledger <- [];
            Array.fill m.deferred 0 n [];
            Array.fill m.lost 0 n 0;
            Array.fill m.leaked 0 model_objects 0
        | Lose c ->
            Bookmarks.drop_count b c;
            if model_count m c > 0 then m.lost.(slot c) <- m.lost.(slot c) + 1
      in
      let agrees () =
        Array.iter
          (fun c ->
            expect
              (Printf.sprintf "container %d count" c)
              (Bookmarks.incoming b c = model_count m c))
          containers;
        Array.iteri
          (fun i id ->
            let want = model_cover m i in
            expect
              (Printf.sprintf "object %d cover count %d, model %d" i
                 (Bookmarks.cover_count b id) want)
              (Bookmarks.cover_count b id = want);
            expect
              (Printf.sprintf "object %d bit" i)
              (OT.bookmarked objects id = (want > 0)))
          ids;
        expect "ledger pages"
          (List.sort compare (Bookmarks.fold_pages b List.cons [])
          = List.sort compare (List.map fst m.ledger));
        let roots = ref [] in
        Bookmarks.iter_roots b (fun id -> roots := id :: !roots);
        expect "roots are the covered objects"
          (List.sort compare !roots
          = List.sort compare
              (List.filteri
                 (fun i _ -> model_cover m i > 0)
                 (Array.to_list ids)));
        let consistent = Array.for_all (( = ) 0) m.lost in
        expect "check passes iff no update is lost"
          ((match Bookmarks.check b ~resident:(fun _ -> false) with
           | () -> true
           | exception Failure _ -> false)
          = consistent)
      in
      List.iter
        (fun step ->
          apply step;
          agrees ())
        steps;
      true)

let () =
  Alcotest.run "bc"
    [
      ( "bookmarking",
        [
          Alcotest.test_case "debug_of rejects baselines" `Quick
            test_debug_of_rejects_baselines;
          Alcotest.test_case "dropped collector reclaimed" `Quick
            test_dropped_collector_reclaimed;
          Alcotest.test_case "eviction creates bookmarks" `Quick
            test_eviction_creates_bookmarks;
          Alcotest.test_case "collection avoids evicted pages" `Quick
            test_collection_avoids_evicted_pages;
          Alcotest.test_case "resize-only pays faults" `Quick
            test_resize_only_pays_faults;
          Alcotest.test_case "reload clears bookmarks" `Quick
            test_reload_clears_bookmarks;
          Alcotest.test_case "LOS page notice bookmarked" `Quick
            test_los_page_notice_bookmarked;
          Alcotest.test_case "spurious resident notice keeps covers" `Quick
            test_spurious_resident_keeps_covers;
          Alcotest.test_case "counter underflow schedules the fail-safe"
            `Quick test_underflow_schedules_failsafe;
          Alcotest.test_case "header pages resident" `Quick
            test_header_pages_stay_resident;
        ] );
      ( "vm cooperation",
        [
          Alcotest.test_case "footprint target" `Quick
            test_footprint_target_shrinks;
          Alcotest.test_case "discards empty pages" `Quick
            test_discards_empty_pages_first;
          Alcotest.test_case "notices allocate nothing" `Quick
            test_notices_allocate_nothing;
          Alcotest.test_case "bookmark scan allocates its entry" `Quick
            (test_bookmark_scan_allocates_its_entry "BC");
          Alcotest.test_case "ptraware: bookmark scan allocates its entry"
            `Quick
            (test_bookmark_scan_allocates_its_entry "BC-ptraware");
          Alcotest.test_case "steady collection flat in stack depth" `Quick
            test_steady_collection_flat_in_stack_depth;
          Alcotest.test_case "steady compaction allocates O(1)" `Quick
            test_steady_compaction_allocates_o1;
          Alcotest.test_case "pointer-aware victims" `Quick
            test_pointer_aware_victims;
          Alcotest.test_case "Cooper-style discard-only" `Quick
            test_cooper_discards_but_does_not_bookmark;
        ] );
      ( "space",
        [
          Alcotest.test_case "compaction" `Quick
            test_compaction_shrinks_superpages;
          Alcotest.test_case "sweep frees in bucket order" `Quick
            test_sweep_frees_in_bucket_order;
          Alcotest.test_case "evacuation abort keeps survivors" `Quick
            test_evacuation_abort_keeps_survivors;
          Alcotest.test_case "fail-safe completeness" `Quick
            test_failsafe_preserves_completeness;
        ] );
      ( "integration",
        [
          Alcotest.test_case "invariants through pressure" `Quick
            test_invariants_hold_through_pressure_workload;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bc_random_pressure;
          QCheck_alcotest.to_alcotest prop_bookmarks_model;
        ] );
    ]
