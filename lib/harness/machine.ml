module Fault_plan = Faults.Fault_plan

type policy = Round_robin | Proportional | Priority

exception Budget_exceeded of string

(* Where a controller window opened: the counters its sample reports as
   window deltas, and how many pauses had been recorded by then. *)
type marks = {
  major_faults : int;
  evictions : int;
  notices : int;
  failsafes : int;
  pauses : int;
}

let marks_of gc (vm : Vmsim.Vm_stats.t) =
  {
    major_faults = vm.major_faults;
    evictions = vm.evictions;
    notices = vm.eviction_notices;
    failsafes = Gc_common.Gc_stats.failsafes gc;
    (* each recorded pause bumps exactly one kind counter *)
    pauses = Gc_common.Gc_stats.collections gc;
  }

(* Per-process controller attachment: the policy instance plus the marks
   its current window opened at. *)
type ctl = {
  ctl_c : Control.Controller.t;
  window_ns : int;
  mutable next_ns : int;
  mutable marks : marks;
  mutable windows : int;
}

type process = {
  name : string;
  vproc : Vmsim.Process.t;
  heap : Heapsim.Heap.t;
  heap_bytes : int;
  share : int;
  priority : int;
  trace : Telemetry.Sink.t option;  (* the machine's sink, for serving *)
  mutable collector : Gc_common.Collector.t option;
  mutable driver : Workload.Driver.t option;
  mutable workload : Workload.Catalog.params option;
  mutable finish_ns : int option;
  mutable window_start_ns : int;
  mutable control : ctl option;
}

type t = {
  clock : Vmsim.Clock.t;
  vmm : Vmsim.Vmm.t;
  address_space : Heapsim.Address_space.t;
  plan : Fault_plan.t option;
  trace : Telemetry.Sink.t option;
  policy : policy;
  mutable procs : process list;  (* spawn order *)
}

let default_slice = 256

let create ?(costs = Vmsim.Costs.default) ?faults ?trace
    ?(policy = Round_robin) ?first_page ~frames () =
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~costs ?faults:faults ~clock ~frames () in
  Vmsim.Vmm.set_trace vmm trace;
  {
    clock;
    vmm;
    address_space = Heapsim.Address_space.create ?first_page ();
    plan = faults;
    trace;
    policy;
    procs = [];
  }

let clock t = t.clock

let vmm t = t.vmm

let address_space t = t.address_space

let spawn ?(share = 1) ?(priority = 0) t ~name ~heap_bytes =
  if share < 1 then invalid_arg "Machine.spawn: share";
  let vproc = Vmsim.Vmm.create_process t.vmm ~name in
  let heap =
    Heapsim.Heap.create_with t.vmm vproc ~address_space:t.address_space
  in
  let p =
    {
      name;
      vproc;
      heap;
      heap_bytes;
      share;
      priority;
      trace = t.trace;
      collector = None;
      driver = None;
      workload = None;
      finish_ns = None;
      window_start_ns = Vmsim.Clock.now t.clock;
      control = None;
    }
  in
  t.procs <- t.procs @ [ p ];
  p

let name p = p.name

let pid p = Vmsim.Process.pid p.vproc

let vm_process p = p.vproc

let heap p = p.heap

let heap_bytes p = p.heap_bytes

let set_collector p c = p.collector <- Some c

let collector p =
  match p.collector with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Machine: process %S has no collector" p.name)

let load p workload =
  let c = collector p in
  p.window_start_ns <- Vmsim.Clock.now (Heapsim.Heap.clock p.heap);
  p.workload <- Some workload;
  p.finish_ns <- None;
  p.driver <- Some (Workload.Catalog.driver ?sink:p.trace workload c)

let warm_up p ~iterations ~ops_per_slice workload =
  let c = collector p in
  for i = 2 to iterations do
    ignore i;
    (* warm iterations are unmeasured: no per-request telemetry *)
    let warm = Workload.Catalog.driver workload c in
    while not (warm.Workload.Driver.step ~ops:ops_per_slice) do () done;
    c.Gc_common.Collector.collect ()
  done

let reset_window p =
  (match p.collector with
  | Some c -> Gc_common.Gc_stats.reset c.Gc_common.Collector.stats
  | None -> ());
  Vmsim.Vm_stats.reset (Vmsim.Process.stats p.vproc)

let finish_ns p = p.finish_ns

let window_start_ns p = p.window_start_ns

let allocated_bytes p =
  match p.driver with
  | Some d -> d.Workload.Driver.allocated_bytes ()
  | None -> 0

let serving_summary p =
  match p.driver with
  | Some d -> d.Workload.Driver.serving ()
  | None -> None

let set_controller p ~window_ns c =
  if window_ns < 1 then invalid_arg "Machine.set_controller: window_ns";
  let gc =
    match p.collector with
    | Some col -> col.Gc_common.Collector.stats
    | None ->
        invalid_arg
          (Printf.sprintf
             "Machine.set_controller: process %S has no collector" p.name)
  in
  p.control <-
    Some
      {
        ctl_c = c;
        window_ns;
        next_ns = Vmsim.Clock.now (Heapsim.Heap.clock p.heap) + window_ns;
        marks = marks_of gc (Vmsim.Process.stats p.vproc);
        windows = 0;
      }

let control_summary p =
  Option.map (fun c -> Control.Controller.summary c.ctl_c) p.control

let driver_exn p =
  match p.driver with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "Machine.run: process %S has no workload loaded"
           p.name)

(* One slice of one process; records its finish time on completion. *)
let step_slice t ~ops_per_slice p =
  if p.finish_ns = None then begin
    let finished = (driver_exn p).Workload.Driver.step ~ops:ops_per_slice in
    if finished then p.finish_ns <- Some (Vmsim.Clock.now t.clock)
  end

let run ?(pressure = Workload.Pressure.None_) ?(ops_per_slice = default_slice)
    ?event_cap t =
  (match t.procs with
  | [] -> invalid_arg "Machine.run: no processes"
  | ps -> List.iter (fun p -> ignore (driver_exn p)) ps);
  let first = List.hd t.procs in
  let first_driver = driver_exn first in
  let signalmem = Workload.Signalmem.create t.vmm t.address_space in
  let ramp_start = ref None in
  let spikes = match t.plan with Some p -> Fault_plan.spikes p | None -> [] in
  let unseen_spikes = ref spikes in
  let apply_pressure () =
    (* drive the schedule off the first process's progress *)
    let prog = first_driver.Workload.Driver.progress () in
    let now = Vmsim.Clock.now t.clock in
    (match !ramp_start with
    | None -> (
        match Workload.Pressure.after_progress pressure with
        | Some after when prog >= after -> ramp_start := Some now
        | Some _ | None -> ())
    | Some _ -> ());
    (* the fault plan's scripted spikes: each pins its pages while the
       first process's progress lies in its [from, until) window, so
       pressure falls again when a spike closes *)
    let spiked =
      match t.plan with
      | Some p ->
          let pages_where keep l =
            List.fold_left
              (fun acc (from, until, pages) ->
                if keep from until then acc + pages else acc)
              0 l
          in
          let opened, rest =
            List.partition (fun (from, _, _) -> prog >= from) !unseen_spikes
          in
          List.iter
            (fun (_, _, pages) ->
              if pages > 0 then Fault_plan.note_spike_applied p)
            opened;
          unseen_spikes := rest;
          (* one scheduling round can carry progress past a spike's whole
             window; such a spike must still fire at its virtual
             timestamp, so its pages are pinned for exactly this round and
             the next round retires the pin *)
          pages_where (fun from until -> prog >= from && prog < until) spikes
          + pages_where (fun _ until -> prog >= until) opened
      | None -> 0
    in
    let start_ns = Option.value !ramp_start ~default:now in
    let due =
      spiked
      + Workload.Pressure.due_pages pressure ~now_ns:now ~start_ns
          ~progress:prog
    in
    let have = Workload.Signalmem.pinned_pages signalmem in
    if due > have then Workload.Signalmem.pin_pages signalmem (due - have)
    else if due < have then
      (* a pressure spike receding: give the frames back *)
      Workload.Signalmem.unpin_pages signalmem (have - due)
  in
  let all_done () = List.for_all (fun p -> p.finish_ns <> None) t.procs in
  (* one Alloc_slice event per scheduling round: ops per slice plus the
     cumulative allocation volume (a Chrome counter track); on a
     multi-process machine, one Proc_progress per process so the trace
     can attribute the volume *)
  let slice_event () =
    match t.trace with
    | None -> ()
    | Some sink ->
        let bytes =
          List.fold_left (fun acc p -> acc + allocated_bytes p) 0 t.procs
        in
        let now = Vmsim.Clock.now t.clock in
        Telemetry.Sink.emit sink ~ts_ns:now Telemetry.Event.Alloc_slice
          ops_per_slice bytes;
        match t.procs with
        | [] | [ _ ] -> ()
        | ps ->
            List.iter
              (fun p ->
                Telemetry.Sink.emit sink ~ts_ns:now
                  Telemetry.Event.Proc_progress (pid p) (allocated_bytes p))
              ps
  in
  (* virtual-event budget: every slice dispatched to an unfinished
     process spends ops_per_slice events; a runaway cell trips the cap
     instead of spinning an unattended campaign forever *)
  let spent = ref 0 in
  let step p =
    if p.finish_ns = None then spent := !spent + ops_per_slice;
    step_slice t ~ops_per_slice p
  in
  (* One controller decision per elapsed window per live process: sample
     the process's counters against the window's marks, let the policy
     decide, actuate via the collector's tuning interface. The controller
     is a virtual-time observer — deciding costs nothing on the clock —
     so with no controller attached (or an inert one) the run is
     bit-identical. *)
  let control_tick () =
    List.iter
      (fun p ->
        match p.control with
        | None -> ()
        | Some ctl ->
            let now = Vmsim.Clock.now t.clock in
            if p.finish_ns = None && now >= ctl.next_ns then begin
              let c = collector p in
              let gc = c.Gc_common.Collector.stats in
              let vm = Vmsim.Process.stats p.vproc in
              let m = ctl.marks in
              let window_pauses_ms =
                List.filteri
                  (fun i _ -> i >= m.pauses)
                  (Gc_common.Gc_stats.pauses gc)
                |> List.map (fun q ->
                       Vmsim.Clock.ns_to_ms q.Gc_common.Gc_stats.duration_ns)
              in
              let sample =
                {
                  Control.Controller.major_faults =
                    vm.Vmsim.Vm_stats.major_faults - m.major_faults;
                  evictions = vm.Vmsim.Vm_stats.evictions - m.evictions;
                  notices = vm.Vmsim.Vm_stats.eviction_notices - m.notices;
                  resident_pages = vm.Vmsim.Vm_stats.resident_pages;
                  free_frames = Vmsim.Vmm.free_frames t.vmm;
                  p99_pause_ms =
                    Repro_util.Summary.percentile 0.99 window_pauses_ms;
                  failsafes = Gc_common.Gc_stats.failsafes gc - m.failsafes;
                }
              in
              ctl.marks <- marks_of gc vm;
              let before = Control.Controller.state ctl.ctl_c in
              let d = Control.Controller.decide ctl.ctl_c sample in
              let tu = c.Gc_common.Collector.tuning in
              (match d.Control.Controller.act.Control.Controller.target with
              | Control.Controller.Keep -> ()
              | Control.Controller.Clear ->
                  tu.Gc_common.Collector.set_target_pages None
              | Control.Controller.Cap n ->
                  tu.Gc_common.Collector.set_target_pages (Some n));
              tu.Gc_common.Collector.set_notice_batch
                d.Control.Controller.act.Control.Controller.notice_batch;
              tu.Gc_common.Collector.set_relinquish_extra
                d.Control.Controller.act.Control.Controller.relinquish_extra;
              if d.Control.Controller.act.Control.Controller.force_failsafe
              then tu.Gc_common.Collector.request_failsafe ();
              (match t.trace with
              | None -> ()
              | Some sink ->
                  Telemetry.Sink.emit sink ~ts_ns:now
                    Telemetry.Event.Control_decision
                    (Control.Controller.state_code d.Control.Controller.state)
                    ctl.windows;
                  if d.Control.Controller.state <> before then
                    Telemetry.Sink.emit sink ~ts_ns:now
                      Telemetry.Event.Control_state_change
                      (Control.Controller.state_code before)
                      (Control.Controller.state_code
                         d.Control.Controller.state));
              ctl.windows <- ctl.windows + 1;
              ctl.next_ns <- now + ctl.window_ns
            end)
      t.procs
  in
  let round () =
    match t.policy with
    | Round_robin -> List.iter step t.procs
    | Proportional ->
        List.iter
          (fun p ->
            for _ = 1 to p.share do
              step p
            done)
          t.procs
    | Priority -> (
        let best =
          List.fold_left
            (fun acc p ->
              if p.finish_ns <> None then acc
              else
                match acc with
                | Some b when b.priority >= p.priority -> acc
                | _ -> Some p)
            None t.procs
        in
        match best with Some p -> step p | None -> ())
  in
  while not (all_done ()) do
    round ();
    slice_event ();
    apply_pressure ();
    control_tick ();
    match event_cap with
    | Some cap when !spent > cap ->
        raise
          (Budget_exceeded
             (Printf.sprintf
                "virtual-event budget exceeded: %d mutator ops > cap %d"
                !spent cap))
    | Some _ | None -> ()
  done
