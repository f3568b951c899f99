(* bcgc: command-line driver for the bookmarking-collection simulator.

   Subcommands:
     run          -- run one collector on one workload and print metrics
     list         -- list collectors and workloads
     minheap      -- measure a workload's minimum heap for a collector
     bench        -- regenerate a paper table/figure, or run a study
                     beyond the paper (the one entry point for them)
     campaign     -- run or list a supervised, resumable campaign
     trace        -- summarise and validate a Chrome trace
     trace-record -- record a workload's heap-operation trace
     trace-replay -- replay a recorded trace against a collector *)

open Cmdliner

let collector_arg =
  let doc = "Collector name (see `bcgc list')." in
  Arg.(value & opt string "BC" & info [ "c"; "collector" ] ~docv:"NAME" ~doc)

let workload_arg =
  let doc = "Workload name (see `bcgc list')." in
  Arg.(
    value & opt string "pseudoJBB" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let heap_arg =
  let doc = "Heap size in KB." in
  Arg.(value & opt int 8192 & info [ "heap-kb" ] ~docv:"KB" ~doc)

let frames_arg =
  let doc =
    "Physical memory in pages (default: ample, i.e. no memory pressure)."
  in
  Arg.(value & opt (some int) None & info [ "frames" ] ~docv:"PAGES" ~doc)

let pin_arg =
  let doc =
    "Steady memory pressure: pin this many pages once 10% of the workload \
     has run."
  in
  Arg.(value & opt (some int) None & info [ "pin" ] ~docv:"PAGES" ~doc)

let volume_arg =
  let doc = "Scale the workload's allocation volume." in
  Arg.(value & opt float 1.0 & info [ "volume" ] ~docv:"FACTOR" ~doc)

let verbose_arg =
  let doc = "Also print a BMU curve." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let faults_arg =
  let doc =
    "Fault-injection plan, e.g. \
     'drop-evict=0.3,swap-full=2,spikes=1'. Keys: drop-evict, \
     drop-resident, delay, dup, reorder, swap-write-err, swap-read-err, \
     swap-full, swap-full-len, swap-full-every, spikes, spike-pages. \
     'none' disables injection."
  in
  Arg.(value & opt string "none" & info [ "faults" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc = "Seed for the fault plan; same seed, same fault schedule." in
  Arg.(
    value
    & opt int Harness.Run.default_fault_seed
    & info [ "fault-seed" ] ~docv:"N" ~doc)

let verify_arg =
  let doc = "Run the heap/VM invariant verifier after the run." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON telemetry trace of the run to $(docv) \
     (load it in Perfetto or chrome://tracing; summarise it with `bcgc \
     trace')."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let timeline_arg =
  let doc = "Print an ASCII event timeline after the run (needs --trace)." in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let coworker_arg =
  let doc =
    "Run a second instance of the workload (seed shifted) under collector \
     $(docv) on the same machine, competing for the same frames; metrics \
     are reported for the primary instance."
  in
  Arg.(value & opt (some string) None & info [ "coworker" ] ~docv:"NAME" ~doc)

let controller_arg =
  let doc =
    "Attach the online memory controller $(docv) (see `bcgc list'); each \
     process gets its own instance actuating its collector's heap target, \
     notice batching and relinquish aggressiveness through the staged \
     degradation ladder. 'off' (the default) is bit-identical to no \
     controller at all."
  in
  Arg.(value & opt string "off" & info [ "controller" ] ~docv:"NAME" ~doc)

let control_window_arg =
  let doc =
    "Controller decision window in virtual milliseconds (default 5)."
  in
  Arg.(
    value & opt (some int) None & info [ "control-window" ] ~docv:"MS" ~doc)

let resolve_faults spec_str =
  match Faults.Fault_plan.spec_of_string spec_str with
  | Ok spec -> if spec = Faults.Fault_plan.none then None else Some spec
  | Error msg ->
      Printf.eprintf "bad --faults spec: %s\n" msg;
      exit 1

let spec_file_arg =
  let doc = "Load the workload from a key=value spec file instead of -w." in
  Arg.(
    value & opt (some string) None & info [ "spec-file" ] ~docv:"FILE" ~doc)

let find_workload name =
  match Workload.Catalog.find_opt name with
  | Some i -> i.Workload.Catalog.params
  | None ->
      Printf.eprintf "unknown workload %S; available: %s\n" name
        (String.concat ", " (Workload.Catalog.names ()));
      exit 1

(* Resolve a collector name before any work starts, so a typo is one
   line on stderr rather than a failed run or a misleading diagnosis. *)
let check_collector name =
  if Option.is_none (Harness.Registry.find name) then begin
    Printf.eprintf "unknown collector %S; available: %s\n" name
      (String.concat ", "
         (List.map
            (fun (i : Harness.Registry.info) -> i.Harness.Registry.name)
            Harness.Registry.all));
    exit 1
  end

(* For the batch-only subcommands (minheap, trace-record). *)
let find_spec name =
  match find_workload name with
  | Workload.Catalog.Batch_spec spec -> spec
  | Workload.Catalog.Serving_spec _ ->
      Printf.eprintf
        "workload %S is a serving workload; this command takes a batch \
         workload\n"
        name;
      exit 1

let resolve_workload workload spec_file =
  match spec_file with
  | Some path -> (
      try Workload.Catalog.Batch_spec (Workload.Spec.of_file path)
      with Failure msg | Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1)
  | None -> find_workload workload

let shape_arg =
  let doc =
    "Override a serving workload's load shape, e.g. 'fixed:1200', \
     'rampup:200:2500:1.5', 'pausing:2000:0.25:0.25', \
     'shaped:0=300,1=1800,2=400', 'diurnal:400:2200:1', \
     'flash:600:3000:0.8:0.4'."
  in
  Arg.(value & opt (some string) None & info [ "shape" ] ~docv:"SPEC" ~doc)

let run_cmd collector workload spec_file shape heap_kb frames pin volume
    verbose faults fault_seed verify trace_file timeline coworker controller
    control_window =
  check_collector collector;
  Option.iter check_collector coworker;
  let wparams =
    Workload.Catalog.scale_volume (resolve_workload workload spec_file) volume
  in
  let wparams =
    match shape with
    | None -> wparams
    | Some s -> (
        match Workload.Shapes.of_string s with
        | shape -> (
            try Workload.Catalog.with_shape shape wparams
            with Invalid_argument msg ->
              Printf.eprintf "%s\n" msg;
              exit 1)
        | exception Failure msg ->
            Printf.eprintf "bad --shape spec: %s\n" msg;
            exit 1)
  in
  let heap_bytes = heap_kb * 1024 in
  let pressure =
    match pin with
    | None -> Workload.Pressure.None_
    | Some pin_pages ->
        Workload.Pressure.Steady { after_progress = 0.1; pin_pages }
  in
  let sink =
    match trace_file with
    | None -> None
    | Some _ -> Some (Telemetry.Sink.create ())
  in
  let module Plan = Harness.Run.Plan in
  let opt v f = match v with None -> Fun.id | Some x -> f x in
  let shift_seed n = function
    | Workload.Catalog.Batch_spec s ->
        Workload.Catalog.Batch_spec
          { s with Workload.Spec.seed = s.Workload.Spec.seed + n }
    | Workload.Catalog.Serving_spec s ->
        Workload.Catalog.Serving_spec
          { s with Workload.Request.seed = s.Workload.Request.seed + n }
  in
  let plan =
    Plan.make_workload ~collector ~workload:wparams ~heap_bytes
    |> opt frames Plan.with_frames
    |> Plan.with_pressure pressure
    |> opt (resolve_faults faults) (Plan.with_faults ~seed:fault_seed)
    |> (if verify then Plan.with_verify else Fun.id)
    |> opt sink Plan.with_trace
    |> opt coworker (fun c plan ->
           Plan.with_process_workload ~collector:c
             ~workload:(shift_seed 17 wparams) plan)
    |> (match controller with
       | "off" -> Fun.id
       | name -> (
           fun plan ->
             let window_ns =
               Option.map (fun ms -> ms * 1_000_000) control_window
             in
             try Plan.with_controller ?window_ns name plan
             with Failure msg | Invalid_argument msg ->
               Printf.eprintf "bad --controller: %s\n" msg;
               exit 1))
  in
  let outcome = Harness.Run.exec plan in
  (* dump the trace for every outcome — a trace of a thrashed or failed
     run is exactly when you want to look at one *)
  (match (trace_file, sink) with
  | Some path, Some sink ->
      let metadata =
        ("outcome", Telemetry.Json.Str (Harness.Metrics.outcome_label outcome))
        ::
        (match outcome with
        | Harness.Metrics.Completed m ->
            [ ("metrics", Harness.Metrics.to_json m) ]
        | _ -> [])
      in
      let oc = open_out path in
      Telemetry.Export.write_chrome_json ~metadata sink oc;
      close_out oc;
      Printf.printf "trace: %d events (%d dropped) -> %s\n"
        (Telemetry.Sink.total sink)
        (Telemetry.Sink.dropped sink)
        path;
      if timeline then begin
        Telemetry.Export.ascii_timeline sink Format.std_formatter;
        Format.printf "%a@?" Telemetry.Report.pp sink
      end
  | _ -> ());
  match outcome with
  | Harness.Metrics.Completed m ->
      Format.printf "%a@." Harness.Metrics.pp m;
      if verbose then begin
        let windows =
          List.init 9 (fun i ->
              int_of_float (1e6 *. Float.pow 10.0 (float_of_int i /. 2.0)))
        in
        let curve =
          Harness.Bmu.curve ~pauses:m.Harness.Metrics.pauses
            ~total_ns:m.Harness.Metrics.elapsed_ns ~windows
        in
        Format.printf "BMU:";
        List.iter
          (fun (w, u) ->
            Format.printf " %.1fms:%.3f" (float_of_int w /. 1e6) u)
          curve;
        Format.printf "@."
      end;
      0
  | Harness.Metrics.Exhausted msg ->
      Printf.eprintf "heap exhausted: %s\n" msg;
      1
  | Harness.Metrics.Thrashed msg ->
      Printf.eprintf "thrashed: %s\n" msg;
      1
  | Harness.Metrics.Failed f ->
      Printf.eprintf "failed (%s): %s\n" f.Harness.Metrics.exn_name
        f.Harness.Metrics.reason;
      (match f.Harness.Metrics.fault_stats with
      | Some s when Faults.Fault_plan.injected_total s > 0 ->
          Format.eprintf "injected: %a@." Faults.Fault_plan.pp_stats s
      | Some _ | None -> ());
      1

let list_cmd () =
  let print_info (i : Harness.Registry.info) =
    Printf.printf "  %-14s %s\n" i.Harness.Registry.name i.Harness.Registry.doc
  in
  print_endline "collectors:";
  List.iter print_info
    (List.filter
       (fun i -> not i.Harness.Registry.ablation)
       Harness.Registry.all);
  print_endline "collector ablation variants:";
  List.iter print_info
    (List.filter (fun i -> i.Harness.Registry.ablation) Harness.Registry.all);
  print_endline "workloads (batch):";
  List.iter
    (fun spec -> Format.printf "  %a@." Workload.Spec.pp spec)
    Workload.Catalog.batch_specs;
  print_endline "workloads (serving):";
  List.iter
    (fun (i : Workload.Catalog.info) ->
      match i.Workload.Catalog.family with
      | Workload.Catalog.Serving -> Format.printf "  %a@." Workload.Catalog.pp i
      | Workload.Catalog.Batch -> ())
    Workload.Catalog.all;
  print_endline "controllers (run --controller NAME):";
  List.iter
    (fun (i : Control.Registry.info) ->
      Printf.printf "  %-14s %s\n" i.Control.Registry.name
        i.Control.Registry.doc)
    Control.Registry.all;
  0

let minheap_cmd collector workload volume =
  check_collector collector;
  let spec = find_spec workload in
  match Harness.Minheap.find ~volume_scale:volume ~collector ~spec () with
  | Some bytes ->
      Printf.printf "%s/%s minimum heap: %d bytes (%d KB)\n" collector
        workload bytes (bytes / 1024);
      0
  | None ->
      Printf.eprintf "%s/%s: no workable heap found\n" collector workload;
      1

let trace_record_cmd workload volume heap_kb output =
  let spec = Workload.Spec.scale_volume (find_spec workload) volume in
  let m_clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock:m_clock ~frames:(4 * heap_kb / 4 + 2048) () in
  let proc = Vmsim.Vmm.create_process vmm in
  let heap = Heapsim.Heap.create vmm proc in
  let c = Harness.Registry.create ~name:"MarkSweep" ~heap_bytes:(heap_kb * 1024) heap in
  let trace = Workload.Trace.create () in
  let mutator = Workload.Mutator.create ~trace spec c in
  while not (Workload.Mutator.step mutator ~ops:1024) do () done;
  Workload.Trace.save trace output;
  Printf.printf "recorded %d events (%d ops) to %s
"
    (Workload.Trace.length trace)
    (Workload.Mutator.ops_done mutator)
    output;
  0

let trace_replay_cmd collector input heap_kb frames pin =
  check_collector collector;
  let trace = Workload.Trace.load input in
  let heap_bytes = heap_kb * 1024 in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames =
    Option.value frames ~default:((4 * heap_pages) + 2048)
  in
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames () in
  let proc = Vmsim.Vmm.create_process vmm in
  let heap = Heapsim.Heap.create vmm proc in
  let c = Harness.Registry.create ~name:collector ~heap_bytes heap in
  let signalmem =
    Workload.Signalmem.create vmm (Heapsim.Heap.address_space heap)
  in
  let start_ns = Vmsim.Clock.now clock in
  (try
     Workload.Trace.replay trace c ~on_slice:(fun slice ->
         match pin with
         | Some pages when slice = 4 -> Workload.Signalmem.pin_pages signalmem pages
         | Some _ | None -> ())
   with
  | Gc_common.Collector.Heap_exhausted msg ->
      Printf.eprintf "heap exhausted: %s
" msg;
      exit 1
  | Vmsim.Vmm.Thrashing msg ->
      Printf.eprintf "thrashed: %s
" msg;
      exit 1);
  let m =
    Harness.Metrics.of_run ~collector:c ~workload:("replay:" ^ input)
      ~start_ns ~end_ns:(Vmsim.Clock.now clock) ()
  in
  Format.printf "%a@." Harness.Metrics.pp m;
  0

(* Summarise (and validate) a Chrome trace JSON file written by
   `bcgc run --trace`, using our own parser — the CI smoke step leans on
   this to prove the emitted JSON actually parses. *)
let trace_summary_cmd file expect_phases =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let content =
    try read_file file
    with Sys_error msg ->
      Printf.eprintf "bcgc trace: %s\n" msg;
      exit 1
  in
  match Telemetry.Json.of_string_opt content with
  | None ->
      Printf.eprintf "bcgc trace: %s is not valid JSON\n" file;
      1
  | Some json -> (
      match
        Option.bind (Telemetry.Json.member "traceEvents" json)
          Telemetry.Json.to_list_opt
      with
      | None ->
          Printf.eprintf "bcgc trace: %s has no traceEvents array\n" file;
          1
      | Some events ->
          let spans = Hashtbl.create 8 in
          let open_ts = Hashtbl.create 8 in
          let instants = Hashtbl.create 8 in
          let counters = Hashtbl.create 8 in
          let bump tbl key by =
            let n, dur =
              Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0.0)
            in
            Hashtbl.replace tbl key (n + fst by, dur +. snd by)
          in
          List.iter
            (fun e ->
              let field k conv = Option.bind (Telemetry.Json.member k e) conv in
              match
                (field "ph" Telemetry.Json.str_opt,
                 field "name" Telemetry.Json.str_opt)
              with
              | Some "B", Some name ->
                  let ts =
                    Option.value ~default:0.0 (field "ts" Telemetry.Json.num_opt)
                  in
                  Hashtbl.replace open_ts name ts;
                  bump spans name (1, 0.0)
              | Some "E", Some name -> (
                  match Hashtbl.find_opt open_ts name with
                  | None -> ()
                  | Some ts0 ->
                      Hashtbl.remove open_ts name;
                      let ts =
                        Option.value ~default:ts0
                          (field "ts" Telemetry.Json.num_opt)
                      in
                      bump spans name (0, ts -. ts0))
              | Some "i", Some name -> bump instants name (1, 0.0)
              | Some "C", Some name -> bump counters name (1, 0.0)
              | _ -> ())
            events;
          Printf.printf "%s: %d trace events\n" file (List.length events);
          let sorted tbl =
            List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
          in
          List.iter
            (fun (name, (n, dur)) ->
              Printf.printf "  span    %-14s %6d  %10.3f ms\n" name n
                (dur /. 1e3))
            (sorted spans);
          List.iter
            (fun (name, (n, _)) ->
              Printf.printf "  instant %-22s %6d\n" name n)
            (sorted instants);
          List.iter
            (fun (name, (n, _)) ->
              Printf.printf "  counter %-14s %6d samples\n" name n)
            (sorted counters);
          let missing =
            match expect_phases with
            | None -> []
            | Some spec ->
                List.filter
                  (fun name ->
                    name <> "" && not (Hashtbl.mem spans name))
                  (String.split_on_char ',' spec)
          in
          if missing <> [] then begin
            Printf.eprintf "bcgc trace: missing expected phase span(s): %s\n"
              (String.concat ", " missing);
            1
          end
          else 0)

(* Wall-clock perf suite: run, write BENCH_perf.json, validate it back
   (the perf-smoke CI step relies on the validation), print a summary.
   With [guard], don't write anything: compare the fresh medians against
   the committed baseline at [out] and fail on a >20% regression. *)
let bench_perf ~reps ~out ~guard =
  let r =
    Harness.Perf.run ~repetitions:reps
      ~progress:(fun label -> Printf.eprintf "perf: %s\n%!" label)
      ()
  in
  Format.printf "%a" Harness.Perf.pp r;
  if guard then
    match Harness.Perf.guard_file ~baseline_path:out r with
    | Ok () ->
        Printf.printf "perf guard: no benchmark regressed more than %.0f%% vs %s\n"
          (100.0 *. Harness.Perf.default_guard_tolerance)
          out;
        0
    | Error lines ->
        List.iter
          (fun l -> Printf.eprintf "bcgc bench perf: regression: %s\n" l)
          lines;
        1
  else begin
    Harness.Perf.write_file ~path:out r;
    match Harness.Perf.validate_file out with
    | Ok () ->
        Printf.printf "wrote %s (schema %s)\n" out Harness.Perf.schema_version;
        0
    | Error msg ->
        Printf.eprintf "bcgc bench perf: %s failed validation: %s\n" out msg;
        1
  end

let bench_targets = List.map fst Harness.Experiments.targets @ [ "perf" ]

let bench_cmd target full jobs backend perf_reps perf_out perf_guard slo_out
    csv_dir charts =
  if jobs < 1 then begin
    Printf.eprintf "bcgc bench: -j must be >= 1 (got %d)\n" jobs;
    2
  end
  else if target = "perf" then
    bench_perf ~reps:perf_reps ~out:perf_out ~guard:perf_guard
  else
    match Harness.Experiments.find target with
    | None ->
        Printf.eprintf "bcgc bench: unknown target %S (known: %s)\n" target
          (String.concat " " bench_targets);
        2
    | Some run ->
        let mode =
          if full then Harness.Experiments.Full else Harness.Experiments.Quick
        in
        run
          (Harness.Experiments.create ~jobs ?backend ?csv_dir ~charts ?slo_out
             mode);
        0

(* --- supervised campaigns ------------------------------------------ *)

let load_campaign spec_path =
  match Harness.Campaign.of_file spec_path with
  | Ok t -> t
  | Error e ->
      Printf.eprintf "bcgc campaign: %s\n" e;
      exit 1

let campaign_run_cmd spec_path resume jobs backend journal_override stop_after
    chaos chaos_seed =
  let open Harness.Campaign in
  let t = load_campaign spec_path in
  let chaos =
    match chaos with
    | None -> None
    | Some "kill-workers" ->
        (* bounded so a pathological draw can't stall the sweep forever:
           at most two kills per cell across the whole campaign *)
        let ncells = List.length (cells t) in
        Some
          {
            Harness.Supervisor.chaos_seed;
            kill_prob = 0.25;
            max_kills = 2 * ncells;
          }
    | Some other ->
        Printf.eprintf
          "bcgc campaign: unknown chaos mode %S (known: kill-workers)\n"
          other;
        exit 1
  in
  match
    run ~jobs ?backend ?chaos ?stop_after ~resume ?journal_override
      ~log:(fun m -> Printf.printf "%s\n%!" m)
      t
  with
  | Ok (Complete { report_path; summary = s }) ->
      Printf.printf
        "campaign %S complete: %d cells (%d ok, %d degraded, %d exhausted, \
         %d thrashed, %d failed)\n"
        t.name s.total s.ok s.degraded s.exhausted s.thrashed s.failed;
      if s.retried > 0 || s.quarantined > 0 || s.chaos_kills > 0 then
        Printf.printf
          "supervision: %d attempt(s) retried, %d cell(s) quarantined, %d \
           chaos kill(s)\n"
          s.retried s.quarantined s.chaos_kills;
      Printf.printf "report: %s\n" report_path;
      if s.failed > 0 then 1 else 0
  | Ok (Interrupted { completed; total }) ->
      Printf.printf
        "campaign %S interrupted: %d/%d cells journaled; finish with \
         --resume\n"
        t.name completed total;
      3
  | Error e ->
      Printf.eprintf "bcgc campaign: %s\n" e;
      1

let campaign_cells_cmd spec_path =
  let open Harness.Campaign in
  let t = load_campaign spec_path in
  let cs = cells t in
  List.iter (fun c -> Printf.printf "%s  %s\n" c.digest c.label) cs;
  Printf.printf "%d cells; campaign digest %s\n" (List.length cs)
    (campaign_digest t);
  0

let campaign_spec_arg =
  let doc = "Campaign spec file (JSON, schema bcgc-campaign/1)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)

(* Shared by `bench' and `campaign run': the execution engine behind the
   cell fan-out. Results are byte-identical across all three — the
   simulation runs in virtual time — only isolation and speed differ. *)
let backend_arg =
  let engine =
    Arg.enum [ ("fork", `Fork); ("domains", `Domains); ("seq", `Seq) ]
  in
  let doc =
    "Execution backend for the cells: `fork' (supervised worker \
     processes — crash isolation, deadlines, chaos), `domains' \
     (shared-memory pool of OCaml domains, each claiming the next cell \
     from one shared cursor — no per-cell fork/Marshal cost; \
     incompatible with --chaos, and fork becomes unavailable for the \
     rest of the process), or `seq' (inline). Default: seq at -j 1, \
     fork otherwise."
  in
  Arg.(
    value
    & opt (some engine) None
    & info [ "backend" ] ~docv:"ENGINE" ~doc)

let cmd_campaign =
  let resume =
    let doc =
      "Resume an interrupted campaign: skip cells already recorded in the \
       journal and extend it in place."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let jobs =
    let doc =
      "Supervised worker processes. Each worker leases one cell at a time; \
       a crashed, hung or killed worker costs only its in-flight cell."
    in
    Arg.(
      value
      & opt int (Harness.Supervisor.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let journal =
    let doc = "Override the spec's journal path." in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let stop_after =
    let doc =
      "Stop (exit 3) after journaling $(docv) more cells — a deterministic \
       interruption, for drills and CI."
    in
    Arg.(value & opt (some int) None & info [ "stop-after" ] ~docv:"N" ~doc)
  in
  let chaos =
    let doc =
      "Chaos mode `kill-workers': randomly SIGKILL supervised workers to \
       exercise recovery; the report must come out identical anyway."
    in
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"MODE" ~doc)
  in
  let chaos_seed =
    let doc = "Seed for the chaos schedule." in
    Arg.(value & opt int 1 & info [ "chaos-seed" ] ~docv:"N" ~doc)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Execute a campaign under supervision, journaling each cell; \
            resumable after any crash")
      Term.(
        const campaign_run_cmd $ campaign_spec_arg $ resume $ jobs
        $ backend_arg $ journal $ stop_after $ chaos $ chaos_seed)
  in
  let cells_cmd =
    Cmd.v
      (Cmd.info "cells"
         ~doc:"List a campaign's cells (plan digest and label) without running")
      Term.(const campaign_cells_cmd $ campaign_spec_arg)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Supervised, resumable experiment campaigns with crash-safe \
          journals")
    [ run_cmd; cells_cmd ]

let run_t =
  Term.(
    const run_cmd $ collector_arg $ workload_arg $ spec_file_arg $ shape_arg
    $ heap_arg $ frames_arg $ pin_arg $ volume_arg $ verbose_arg $ faults_arg
    $ fault_seed_arg $ verify_arg $ trace_arg $ timeline_arg $ coworker_arg
    $ controller_arg $ control_window_arg)

let cmd_run =
  Cmd.v (Cmd.info "run" ~doc:"Run one collector on one workload") run_t

let cmd_list =
  Cmd.v
    (Cmd.info "list" ~doc:"List collectors and workloads")
    Term.(const list_cmd $ const ())

let cmd_minheap =
  Cmd.v
    (Cmd.info "minheap" ~doc:"Measure the minimum workable heap")
    Term.(const minheap_cmd $ collector_arg $ workload_arg $ volume_arg)

let cmd_trace_record =
  let output =
    Arg.(value & opt string "trace.txt" & info [ "o"; "output" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "trace-record"
       ~doc:"Record a workload's heap-operation trace to a file")
    Term.(const trace_record_cmd $ workload_arg $ volume_arg $ heap_arg $ output)

let cmd_trace_replay =
  let input =
    Arg.(value & opt string "trace.txt" & info [ "i"; "input" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "trace-replay"
       ~doc:"Replay a recorded trace against a collector")
    Term.(
      const trace_replay_cmd $ collector_arg $ input $ heap_arg $ frames_arg
      $ pin_arg)

let cmd_bench =
  let target =
    let doc =
      Printf.sprintf "One of: %s. $(b,fig4) and $(b,fig5) also name $(b,fig45)."
        (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") bench_targets))
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"TARGET" ~doc)
  in
  let full = Arg.(value & flag & info [ "full" ]) in
  let jobs =
    let doc =
      "Fan independent cells out over $(docv) workers, on the engine \
       --backend picks. Results are byte-identical to -j 1 — the \
       simulation runs in virtual time."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let perf_reps =
    let doc =
      "Measured repetitions per microbenchmark for the `perf' target \
       (after one warm-up run)."
    in
    Arg.(
      value
      & opt int Harness.Perf.default_repetitions
      & info [ "perf-reps" ] ~docv:"N" ~doc)
  in
  let perf_out =
    let doc = "Output file for the `perf' target." in
    Arg.(
      value
      & opt string Harness.Perf.default_output
      & info [ "perf-out" ] ~docv:"FILE" ~doc)
  in
  let perf_guard =
    let doc =
      "For the `perf' target: instead of writing the output file, compare \
       fresh medians against the committed baseline (--perf-out names it) \
       and exit non-zero when any regresses by more than 20%."
    in
    Arg.(value & flag & info [ "guard" ] ~doc)
  in
  let slo_out =
    let doc =
      "For the `slo' target: also write a bcgc-slo-report/1 JSON report to \
       $(docv) (self-validated before the file stands)."
    in
    Arg.(value & opt (some string) None & info [ "slo-out" ] ~docv:"FILE" ~doc)
  in
  let csv_dir =
    let doc =
      "Also write each figure series as CSV, and the `trace' target's \
       Chrome trace JSON and event CSV, into $(docv) (created when \
       missing)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc ~env:(Cmd.Env.info "CSV_DIR"))
  in
  let charts =
    let doc = "Print an ASCII chart under each figure series." in
    Arg.(value & flag & info [ "charts" ] ~doc ~env:(Cmd.Env.info "CHARTS"))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate a paper table or figure, run the request-serving SLO \
          matrix (target `slo'), the adaptive-controller matrix (target \
          `control'), or the wall-clock perf suite (target `perf')")
    Term.(
      const bench_cmd $ target $ full $ jobs $ backend_arg $ perf_reps
      $ perf_out $ perf_guard $ slo_out $ csv_dir $ charts)

let cmd_trace =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let expect =
    let doc =
      "Comma-separated span names that must appear in the trace (e.g. \
       'minor,compacting,mark'); exit nonzero when one is missing."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-phases" ] ~docv:"NAMES" ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Summarise and validate a Chrome trace written by run --trace")
    Term.(const trace_summary_cmd $ file $ expect)

let () =
  let info =
    Cmd.info "bcgc" ~version:"1.0.0"
      ~doc:"Bookmarking collection (PLDI 2005) simulator"
  in
  let code =
    (* last-resort guard: a stray resource exception must produce a
       one-line diagnosis and a nonzero exit, never a backtrace *)
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             cmd_run;
             cmd_list;
             cmd_minheap;
             cmd_bench;
             cmd_campaign;
             cmd_trace;
             cmd_trace_record;
             cmd_trace_replay;
           ])
    with
    | Vmsim.Vmm.Thrashing msg ->
        Printf.eprintf "bcgc: thrashing: %s\n" msg;
        1
    | Vmsim.Swap.Full ->
        Printf.eprintf "bcgc: swap device full\n";
        1
    | Gc_common.Collector.Heap_exhausted msg ->
        Printf.eprintf "bcgc: heap exhausted: %s\n" msg;
        1
    | e ->
        Printf.eprintf "bcgc: %s\n" (Printexc.to_string e);
        1
  in
  exit code
