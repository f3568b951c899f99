(* Quickstart: build a simulated machine, run the bookmarking collector
   on it, squeeze physical memory, and watch BC give pages back instead
   of paging.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* a machine: virtual clock, a VMM with 2048 page frames (8 MB) *)
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames:2048 () in
  let proc = Vmsim.Vmm.create_process vmm in
  let heap = Heapsim.Heap.create vmm proc in

  (* the bookmarking collector with a 4 MB heap *)
  let bc = Harness.Registry.create ~name:"BC" ~heap_bytes:(4 * 1024 * 1024) heap in

  (* allocate a linked list of 10,000 objects and keep it alive *)
  let head = ref Heapsim.Obj_id.null in
  Heapsim.Heap.set_roots heap (fun root ->
      if not (Heapsim.Obj_id.is_null !head) then root !head);
  for _ = 1 to 10_000 do
    let id = bc.Gc_common.Collector.alloc ~size:64 ~nrefs:1 ~kind:`Scalar in
    if not (Heapsim.Obj_id.is_null !head) then
      Heapsim.Heap.write_ref heap id 0 !head;
    head := id
  done;

  (* plus plenty of garbage *)
  for _ = 1 to 50_000 do
    ignore (bc.Gc_common.Collector.alloc ~size:64 ~nrefs:0 ~kind:`Scalar)
  done;

  bc.Gc_common.Collector.collect ();
  Format.printf "after a full collection: %a@." Gc_common.Gc_stats.pp
    bc.Gc_common.Collector.stats;

  (* now another process pins most of physical memory *)
  let signalmem =
    Workload.Signalmem.create vmm (Heapsim.Heap.address_space heap)
  in
  Workload.Signalmem.pin_pages signalmem (2048 - 110);
  Format.printf "squeezed to 110 frames: %a@." Vmsim.Vm_stats.pp
    (Vmsim.Process.stats proc);

  (* BC keeps collecting without touching whatever was evicted *)
  let faults_before = (Vmsim.Process.stats proc).Vmsim.Vm_stats.major_faults in
  bc.Gc_common.Collector.collect ();
  Format.printf
    "full collection under pressure touched %d evicted pages (paper: zero)@."
    ((Vmsim.Process.stats proc).Vmsim.Vm_stats.major_faults - faults_before);
  let dbg = Bookmarking.Bc.debug_of bc in
  Format.printf "bookmarked objects: %d, evicted pages: %d@."
    (dbg.Bookmarking.Bc.bookmarked_count ())
    (dbg.Bookmarking.Bc.evicted_pages ())
