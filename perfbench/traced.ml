(* One cell executed through the public Machine API with layer spans.

   The same steps as [Run.exec] on a single-process plan (create, spawn,
   instantiate, load, run, [Metrics.of_run]), with two wrappers added
   from outside: the collector record's [alloc] (installed with
   [Machine.set_collector] before [load], so the workload driver calls
   it) and the process's eviction-notice handler (re-registered with
   [Vmsim.Process.register]). Neither wrapper changes what the
   simulation does, so the cell's Metrics JSON must come out
   byte-identical to [Run.exec]'s; the benchmark checks that on every
   traced cell. *)

module Machine = Harness.Machine
module Gc_stats = Gc_common.Gc_stats

(* Span kinds. [mutator] is the run span's own kind: Machine.run time
   outside collector and notice spans, i.e. Workload + Heapsim + Vmm
   touches + the pressure schedule. Allocations made while [load] builds
   the mutator (window segments, the immortal chain) are not spanned:
   they are part of [setup]. *)
let k_setup = 0

let k_mutator = 1

let k_alloc = 2

let k_minor = 3

let k_full = 4

let k_compacting = 5

let k_notice = 6

let kinds = 7

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create_spans () = Spans.create ~kinds ~now:now_ns ~words:Gc.minor_words

type vm = {
  minor_faults : int;
  major_faults : int;
  evictions : int;
  notices : int;
  discards : int;
  relinquished : int;
  swap_ins : int;
  swap_outs : int;
}

let vm_zero =
  {
    minor_faults = 0;
    major_faults = 0;
    evictions = 0;
    notices = 0;
    discards = 0;
    relinquished = 0;
    swap_ins = 0;
    swap_outs = 0;
  }

let vm_add a b =
  {
    minor_faults = a.minor_faults + b.minor_faults;
    major_faults = a.major_faults + b.major_faults;
    evictions = a.evictions + b.evictions;
    notices = a.notices + b.notices;
    discards = a.discards + b.discards;
    relinquished = a.relinquished + b.relinquished;
    swap_ins = a.swap_ins + b.swap_ins;
    swap_outs = a.swap_outs + b.swap_outs;
  }

let vm_of_process p =
  let s = Vmsim.Process.stats (Machine.vm_process p) in
  {
    minor_faults = s.Vmsim.Vm_stats.minor_faults;
    major_faults = s.major_faults;
    evictions = s.evictions;
    notices = s.eviction_notices;
    discards = s.discards;
    relinquished = s.relinquished;
    swap_ins = s.swap_ins;
    swap_outs = s.swap_outs;
  }

type result = {
  outcome : Harness.Metrics.outcome;
  setup_ns : int;  (* create + spawn + instantiate + load *)
  run_ns : int;  (* Machine.run *)
  vm : vm;
}

(* The collector record with [alloc] spanned and classed by which
   collection count rose during the call. *)
let wrap_alloc sp ~loading (c : Gc_common.Collector.t) =
  let st = c.Gc_common.Collector.stats in
  let inner = c.Gc_common.Collector.alloc in
  let alloc ~size ~nrefs ~kind =
    if !loading then inner ~size ~nrefs ~kind
    else begin
      let minor = Gc_stats.count st Gc_stats.Minor
      and full = Gc_stats.count st Gc_stats.Full
      and compacting = Gc_stats.count st Gc_stats.Compacting in
      let classify () =
        if Gc_stats.count st Gc_stats.Compacting > compacting then k_compacting
        else if Gc_stats.count st Gc_stats.Full > full then k_full
        else if Gc_stats.count st Gc_stats.Minor > minor then k_minor
        else k_alloc
      in
      Spans.enter sp;
      match inner ~size ~nrefs ~kind with
      | id ->
          Spans.leave sp (classify ());
          id
      | exception e ->
          Spans.leave sp (classify ());
          raise e
    end
  in
  { c with Gc_common.Collector.alloc }

let wrap_notices sp p =
  let vp = Machine.vm_process p in
  match Vmsim.Process.handlers vp with
  | None -> ()
  | Some h ->
      let on_eviction_notice page =
        Spans.span sp k_notice (fun () ->
            h.Vmsim.Process.on_eviction_notice page)
      in
      Vmsim.Process.register vp { h with Vmsim.Process.on_eviction_notice }

let failed e =
  Harness.Metrics.Failed
    {
      Harness.Metrics.reason = Printexc.to_string e;
      exn_name = Printexc.exn_slot_name e;
      fault_stats = None;
      partial = None;
    }

let exec sp (c : Cells.cell) =
  let plan = Cells.plan c in
  let setup_ns = ref 0 and run_ns = ref 0 in
  let timed r f =
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> r := now_ns () - t0) f
  in
  let proc = ref None in
  let outcome =
    try
      let m, p =
        timed setup_ns @@ fun () ->
        Spans.span sp k_setup (fun () ->
            let m =
              Machine.create ~frames:(Harness.Run.Plan.frames plan) ()
            in
            let p = Machine.spawn m ~name:"jvm" ~heap_bytes:c.Cells.heap_bytes in
            proc := Some p;
            let col = Harness.Registry.instantiate_name ~name:c.Cells.collector p in
            wrap_notices sp p;
            let loading = ref true in
            Machine.set_collector p (wrap_alloc sp ~loading col);
            Machine.load p c.Cells.params;
            loading := false;
            (m, p))
      in
      (timed run_ns @@ fun () ->
       Spans.span sp k_mutator (fun () ->
          Machine.run ~pressure:c.Cells.pressure
            ~ops_per_slice:Harness.Run.default_slice ?event_cap:c.Cells.event_cap
            m));
      let end_ns =
        Option.value (Machine.finish_ns p)
          ~default:(Vmsim.Clock.now (Machine.clock m))
      in
      Harness.Metrics.Completed
        (Harness.Metrics.of_run
           ?serving:(Machine.serving_summary p)
           ~collector:(Machine.collector p)
           ~workload:(Workload.Catalog.params_name c.Cells.params)
           ~start_ns:(Machine.window_start_ns p) ~end_ns ())
    with
    | Gc_common.Collector.Heap_exhausted msg -> Harness.Metrics.Exhausted msg
    | Vmsim.Vmm.Thrashing msg -> Harness.Metrics.Thrashed msg
    | e -> failed e
  in
  {
    outcome;
    setup_ns = !setup_ns;
    run_ns = !run_ns;
    vm = (match !proc with Some p -> vm_of_process p | None -> vm_zero);
  }

let completed = function
  | Harness.Metrics.Completed _ -> true
  | Harness.Metrics.Exhausted _ | Harness.Metrics.Thrashed _
  | Harness.Metrics.Failed _ ->
      false
