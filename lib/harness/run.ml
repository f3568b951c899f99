module Fault_plan = Faults.Fault_plan

let default_slice = Machine.default_slice

let default_fault_seed = 0x5eed

let ample_frames ~heap_bytes =
  (4 * Vmsim.Page.count_for_bytes heap_bytes) + 2048

module Plan = struct
  type proc = {
    collector : string;
    workload : Workload.Catalog.params;
    heap_bytes : int;
    share : int;
    priority : int;
  }

  type t = {
    procs : proc list;  (* head = primary process *)
    frames : int option;
    pressure : Workload.Pressure.t;
    ops_per_slice : int;
    costs : Vmsim.Costs.t;
    iterations : int;
    faults : Fault_plan.spec option;
    fault_seed : int;
    verify : bool;
    trace : Telemetry.Sink.t option;
    policy : Machine.policy;
    event_cap : int option;
    (* address-space base page; None = the Address_space default (16).
       Giant bases exercise the sparse page table. *)
    address_base : int option;
    (* online memory controller: registry policy name and decision
       window in virtual ns; None = no controller (bit-identical to the
       historical runs). One instance per process. *)
    controller : (string * int) option;
  }

  let make_workload ~collector ~workload ~heap_bytes =
    {
      procs = [ { collector; workload; heap_bytes; share = 1; priority = 0 } ];
      frames = None;
      pressure = Workload.Pressure.None_;
      ops_per_slice = default_slice;
      costs = Vmsim.Costs.default;
      iterations = 1;
      faults = None;
      fault_seed = default_fault_seed;
      verify = false;
      trace = None;
      policy = Machine.Round_robin;
      event_cap = None;
      address_base = None;
      controller = None;
    }

  let make ~collector ~spec ~heap_bytes =
    make_workload ~collector ~workload:(Workload.Catalog.Batch_spec spec)
      ~heap_bytes

  let with_frames frames t = { t with frames = Some frames }

  let with_pressure pressure t = { t with pressure }

  let with_ops_per_slice ops_per_slice t =
    if ops_per_slice < 1 then invalid_arg "Plan.with_ops_per_slice";
    { t with ops_per_slice }

  let with_costs costs t = { t with costs }

  let with_iterations iterations t =
    if iterations < 1 then invalid_arg "Plan.with_iterations";
    { t with iterations }

  let with_faults ?(seed = default_fault_seed) spec t =
    { t with faults = Some spec; fault_seed = seed }

  let with_verify t = { t with verify = true }

  let with_trace sink t = { t with trace = Some sink }

  let with_policy policy t = { t with policy }

  let with_event_cap event_cap t =
    if event_cap < 1 then invalid_arg "Plan.with_event_cap";
    { t with event_cap = Some event_cap }

  let with_address_base base t =
    if base < 0 then invalid_arg "Plan.with_address_base";
    { t with address_base = Some base }

  let default_control_window_ns = 5_000_000

  let with_controller ?(window_ns = default_control_window_ns) name t =
    if window_ns < 1 then invalid_arg "Plan.with_controller: window_ns";
    (* validate eagerly: a plan naming an unknown policy should fail at
       construction, not deep inside a campaign worker *)
    ignore (Control.Registry.find name);
    { t with controller = Some (name, window_ns) }

  let with_share share t =
    match t.procs with
    | p :: rest -> { t with procs = { p with share } :: rest }
    | [] -> assert false

  let with_priority priority t =
    match t.procs with
    | p :: rest -> { t with procs = { p with priority } :: rest }
    | [] -> assert false

  let with_process_workload ?(share = 1) ?(priority = 0) ?heap_bytes
      ~collector ~workload t =
    let heap_bytes =
      match heap_bytes with
      | Some b -> b
      | None -> (List.hd t.procs).heap_bytes
    in
    {
      t with
      procs =
        t.procs @ [ { collector; workload; heap_bytes; share; priority } ];
    }

  let with_process ?share ?priority ?heap_bytes ~collector ~spec t =
    with_process_workload ?share ?priority ?heap_bytes ~collector
      ~workload:(Workload.Catalog.Batch_spec spec) t

  let procs t = t.procs

  (* Frames needed to run without any physical-memory pressure: room for
     every process's heap plus slack. *)
  let frames t =
    match t.frames with
    | Some f -> f
    | None ->
        ample_frames
          ~heap_bytes:
            (List.fold_left (fun acc p -> acc + p.heap_bytes) 0 t.procs)

  (* Canonical text of everything that can influence a run's outcome.
     The trace sink is excluded on purpose: tracing is proven
     zero-overhead (bit-identical metrics), so a traced and an untraced
     run are the same cell. Field order is part of the format — changing
     it invalidates every journal, so append, don't reorder. *)
  let canonical t =
    let b = Buffer.create 512 in
    let spec_fields (s : Workload.Spec.t) =
      Printf.bprintf b
        "%s;%d;%d;%d;%.17g;%d;%d;%.17g;%.17g;%d;%.17g;%.17g;%.17g;%d;%d"
        s.Workload.Spec.name s.total_alloc_bytes s.immortal_bytes
        s.window_bytes s.long_frac s.mean_size s.max_size s.large_frac
        s.array_frac s.nrefs_mean s.mutation_rate s.access_rate
        s.cold_access_frac s.paper_min_heap_bytes s.seed
    in
    (* The serving encoding is new in bcgc-plan/1 and cannot collide
       with the batch one (no batch spec name contains "serving:"); the
       batch encoding is byte-identical to the historical format, so
       every pre-existing digest — hence every campaign journal cell
       key — is preserved. *)
    let serving_fields (s : Workload.Request.spec) =
      Printf.bprintf b
        "serving:%s;%s;%d;%d;%d;%.17g;%d;%d;%d;%d;%d;%d;%d"
        s.Workload.Request.name
        (Workload.Shapes.to_string s.shape)
        s.duration_ns s.req_alloc_bytes s.req_mean_size s.session_frac
        s.cache_bytes s.cache_entry_size s.cache_reads s.slo_ns s.window_ns
        s.base_heap_bytes s.seed
    in
    let workload_fields = function
      | Workload.Catalog.Batch_spec s -> spec_fields s
      | Workload.Catalog.Serving_spec s -> serving_fields s
    in
    let pressure = function
      | Workload.Pressure.None_ -> Buffer.add_string b "none"
      | Workload.Pressure.Steady { after_progress; pin_pages } ->
          Printf.bprintf b "steady(%.17g,%d)" after_progress pin_pages
      | Workload.Pressure.Ramp
          { after_progress; initial_pages; pages_per_step; step_ns; max_pages }
        ->
          Printf.bprintf b "ramp(%.17g,%d,%d,%d,%d)" after_progress
            initial_pages pages_per_step step_ns max_pages
    in
    Buffer.add_string b "bcgc-plan/1|procs=";
    List.iter
      (fun p ->
        Printf.bprintf b "{%s|" p.collector;
        workload_fields p.workload;
        Printf.bprintf b "|%d|%d|%d}" p.heap_bytes p.share p.priority)
      t.procs;
    Printf.bprintf b "|frames=%d|slice=%d|iters=%d" (frames t)
      t.ops_per_slice t.iterations;
    Buffer.add_string b "|pressure=";
    pressure t.pressure;
    let c = t.costs in
    Printf.bprintf b "|costs=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d"
      c.Vmsim.Costs.minor_fault_ns c.major_fault_ns c.protection_fault_ns
      c.syscall_ns c.swap_write_ns c.alloc_ns c.alloc_byte_ns
      c.freelist_alloc_extra_ns c.access_ns c.gc_object_ns c.gc_byte_copy_ns
      c.gc_page_sweep_ns c.gc_setup_ns;
    (match t.faults with
    | None -> Buffer.add_string b "|faults=none"
    | Some spec ->
        Printf.bprintf b "|faults=%s@%d"
          (Fault_plan.spec_to_string spec)
          t.fault_seed);
    Printf.bprintf b "|verify=%b|policy=%s|event_cap=%s" t.verify
      (match t.policy with
      | Machine.Round_robin -> "rr"
      | Machine.Proportional -> "prop"
      | Machine.Priority -> "prio")
      (match t.event_cap with None -> "none" | Some n -> string_of_int n);
    (* Appended only when non-default, so every historical canonical
       string — hence every campaign-journal digest — is byte-identical
       for plans that never set a base. *)
    (match t.address_base with
    | None -> ()
    | Some base -> Printf.bprintf b "|base=%d" base);
    (* same append-only discipline as |base= *)
    (match t.controller with
    | None -> ()
    | Some (name, window_ns) ->
        Printf.bprintf b "|controller=%s@%d" name window_ns);
    Buffer.contents b

  let digest t = Digest.to_hex (Digest.string (canonical t))
end

let exn_name e = Printexc.exn_slot_name e

(* Process names: the historical "jvm" for a single process, "jvm-a",
   "jvm-b", ... when several share the machine. *)
let proc_names n =
  if n = 1 then [ "jvm" ]
  else
    List.init n (fun i ->
        if i < 26 then Printf.sprintf "jvm-%c" (Char.chr (Char.code 'a' + i))
        else Printf.sprintf "jvm-%d" (i + 1))

let exec_all (p : Plan.t) =
  let n = List.length p.Plan.procs in
  let plan = Option.map (Fault_plan.create ~seed:p.Plan.fault_seed) p.Plan.faults in
  let m =
    Machine.create ~costs:p.Plan.costs ?faults:plan ?trace:p.Plan.trace
      ~policy:p.Plan.policy ?first_page:p.Plan.address_base
      ~frames:(Plan.frames p) ()
  in
  let clock = Machine.clock m in
  let fault_stats () = Option.map Fault_plan.stats plan in
  let mprocs =
    List.map2
      (fun (pr : Plan.proc) name ->
        Machine.spawn ~share:pr.Plan.share ~priority:pr.Plan.priority m ~name
          ~heap_bytes:pr.Plan.heap_bytes)
      p.Plan.procs (proc_names n)
  in
  let pairs = List.combine p.Plan.procs mprocs in
  let partial () =
    (* best-effort snapshot of whatever the primary accumulated *)
    match pairs with
    | (pr, mp) :: _ -> (
        match
          try Some (Machine.collector mp) with Invalid_argument _ -> None
        with
        | None -> None
        | Some c -> (
            try
              Some
                (Metrics.of_run ?faults:(fault_stats ())
                   ?serving:(Machine.serving_summary mp)
                   ?control:(Machine.control_summary mp) ~collector:c
                   ~workload:(Workload.Catalog.params_name pr.Plan.workload)
                   ~start_ns:(Machine.window_start_ns mp)
                   ~end_ns:(Vmsim.Clock.now clock) ())
            with _ -> None))
    | [] -> None
  in
  try
    List.iter
      (fun ((pr : Plan.proc), mp) ->
        ignore (Registry.instantiate_name ~name:pr.Plan.collector mp))
      pairs;
    (* warm-up iterations (§5.1): run, then collect away their residue *)
    List.iter
      (fun ((pr : Plan.proc), mp) ->
        Machine.warm_up mp ~iterations:p.Plan.iterations
          ~ops_per_slice:p.Plan.ops_per_slice pr.Plan.workload)
      pairs;
    if p.Plan.iterations > 1 then begin
      (* measure the final iteration only *)
      List.iter (fun (_, mp) -> Machine.reset_window mp) pairs;
      (* ... and keep the trace aligned with the measured interval *)
      Option.iter Telemetry.Sink.clear p.Plan.trace
    end;
    List.iter
      (fun ((pr : Plan.proc), mp) -> Machine.load mp pr.Plan.workload)
      pairs;
    (* controllers attach after the measurement window opens, so their
       first window counts from the measured run's baseline (not the
       warm-up residue). One instance per process. *)
    (match p.Plan.controller with
    | None -> ()
    | Some (cname, window_ns) ->
        List.iter
          (fun ((pr : Plan.proc), mp) ->
            let cfg =
              {
                Control.Controller.heap_pages =
                  Vmsim.Page.count_for_bytes pr.Plan.heap_bytes;
                frames = Plan.frames p;
              }
            in
            Machine.set_controller mp ~window_ns
              (Control.Registry.instantiate ~name:cname cfg))
          pairs);
    Machine.run ~pressure:p.Plan.pressure
      ~ops_per_slice:p.Plan.ops_per_slice ?event_cap:p.Plan.event_cap m;
    if p.Plan.verify then
      List.iter
        (fun (_, mp) ->
          Gc_common.Verify.heap (Machine.heap mp);
          (Machine.collector mp).Gc_common.Collector.check_invariants ())
        pairs;
    List.map
      (fun ((pr : Plan.proc), mp) ->
        let end_ns =
          Option.value (Machine.finish_ns mp)
            ~default:(Vmsim.Clock.now clock)
        in
        Metrics.Completed
          (Metrics.of_run ?faults:(fault_stats ())
             ?serving:(Machine.serving_summary mp)
             ?control:(Machine.control_summary mp)
             ~collector:(Machine.collector mp)
             ~workload:(Workload.Catalog.params_name pr.Plan.workload)
             ~start_ns:(Machine.window_start_ns mp) ~end_ns ()))
      pairs
  with
  | Gc_common.Collector.Heap_exhausted msg ->
      List.map (fun _ -> Metrics.Exhausted msg) p.Plan.procs
  | Vmsim.Vmm.Thrashing msg ->
      List.map (fun _ -> Metrics.Thrashed msg) p.Plan.procs
  | e ->
      (* one failing cell must not kill the whole matrix: record the
         exception, the injected-fault counters and any partial stats
         (for the primary; cohabitants share the machine's fate) *)
      let failure partial =
        Metrics.Failed
          {
            Metrics.reason = Printexc.to_string e;
            exn_name = exn_name e;
            fault_stats = fault_stats ();
            partial;
          }
      in
      List.mapi
        (fun i _ -> failure (if i = 0 then partial () else None))
        p.Plan.procs

let exec p =
  match exec_all p with o :: _ -> o | [] -> assert false
