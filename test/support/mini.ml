type machine = {
  clock : Vmsim.Clock.t;
  vmm : Vmsim.Vmm.t;
  proc : Vmsim.Process.t;
  heap : Heapsim.Heap.t;
}

let machine ?(frames = 4096) () =
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames () in
  let proc = Vmsim.Vmm.create_process vmm in
  let heap = Heapsim.Heap.create vmm proc in
  { clock; vmm; proc; heap }

let collector ?frames ?(heap_bytes = 2 * 1024 * 1024) name =
  let m = machine ?frames () in
  let c = Harness.Registry.create ~name ~heap_bytes m.heap in
  (m, c)

let spec ?(volume = 600_000) ?(seed = 42) () =
  {
    (Workload.Benchmarks.pseudojbb) with
    Workload.Spec.name = "mini";
    total_alloc_bytes = volume;
    immortal_bytes = 100_000;
    window_bytes = 60_000;
    seed;
  }

let drive ?(ops_per_slice = 128) ?(between = fun _ -> ()) mutator =
  let slice = ref 0 in
  while not (Workload.Mutator.step mutator ~ops:ops_per_slice) do
    between !slice;
    incr slice
  done

let alloc_list (c : Gc_common.Collector.t) ~n ~size =
  let heap = c.Gc_common.Collector.heap in
  let ids = ref [] in
  let prev = ref Heapsim.Obj_id.null in
  (* root the chain head before allocating: a collection may run at any
     allocation *)
  Heapsim.Heap.set_roots heap (fun f ->
      if not (Heapsim.Obj_id.is_null !prev) then f !prev);
  for _ = 1 to n do
    let id = c.Gc_common.Collector.alloc ~size ~nrefs:1 ~kind:`Scalar in
    if not (Heapsim.Obj_id.is_null !prev) then
      Heapsim.Heap.write_ref heap id 0 !prev;
    prev := id;
    ids := id :: !ids
  done;
  List.rev !ids

let host_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  f ();
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0)
