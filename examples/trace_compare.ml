(* Exact apples-to-apples collector comparison via traces: record the
   heap-operation sequence of one workload run, then replay the identical
   sequence against several collectors under the same memory squeeze.

   Run with: dune exec examples/trace_compare.exe *)

let record () =
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames:8192 () in
  let proc = Vmsim.Vmm.create_process vmm in
  let heap = Heapsim.Heap.create vmm proc in
  let c =
    Harness.Registry.create ~name:"MarkSweep" ~heap_bytes:(8 * 1024 * 1024)
      heap
  in
  let trace = Workload.Trace.create () in
  let spec = Workload.Spec.scale_volume Workload.Benchmarks.javac 0.25 in
  let mutator = Workload.Mutator.create ~trace spec c in
  while not (Workload.Mutator.step mutator ~ops:1024) do
    ()
  done;
  Format.printf "recorded %d events from %s@." (Workload.Trace.length trace)
    spec.Workload.Spec.name;
  trace

let replay_exn trace collector =
  let heap_bytes = 4 * 1024 * 1024 in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 128 in
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames () in
  let proc = Vmsim.Vmm.create_process vmm in
  let heap = Heapsim.Heap.create vmm proc in
  let c = Harness.Registry.create ~name:collector ~heap_bytes heap in
  let signalmem =
    Workload.Signalmem.create vmm (Heapsim.Heap.address_space heap)
  in
  let start_ns = Vmsim.Clock.now clock in
  Workload.Trace.replay trace c ~on_slice:(fun slice ->
      (* squeeze to 45% of the heap a little way in *)
      if slice = 8 then
        Workload.Signalmem.pin_pages signalmem
          (frames - (heap_pages * 55 / 100)));
  let m =
    Harness.Metrics.of_run ~collector:c ~workload:"trace" ~start_ns
      ~end_ns:(Vmsim.Clock.now clock) ()
  in
  Format.printf
    "%-10s %7.3fs | avg pause %8.2fms | faults %5d (GC %d)@." collector
    (Harness.Metrics.elapsed_s m)
    m.Harness.Metrics.avg_pause_ms m.Harness.Metrics.major_faults
    m.Harness.Metrics.gc_major_faults

let replay trace collector =
  try replay_exn trace collector
  with Gc_common.Collector.Heap_exhausted msg ->
    Format.printf "%-10s heap exhausted: %s@." collector msg

let () =
  let trace = record () in
  Format.printf
    "replaying the identical operation sequence at 55%% memory:@.@.";
  List.iter (replay trace)
    [ "BC"; "BC-resize"; "GenMS"; "GenMS-coop"; "GenCopy"; "CopyMS" ]
