(* Telemetry subsystem: ring-buffer retention, Chrome trace JSON golden,
   the JSON parser, phase reports, the typed registry, and the zero-overhead
   contract — a traced-off run is bit-identical to the seed behaviour,
   and attaching a sink changes no virtual-time result. *)

module Event = Telemetry.Event
module Sink = Telemetry.Sink
module Json = Telemetry.Json
module Export = Telemetry.Export
module Report = Telemetry.Report
module Metrics = Harness.Metrics
module Registry = Harness.Registry

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Ring buffer                                                        *)

let test_ring_wraparound () =
  let sink = Sink.create ~capacity:8 () in
  let kinds = [| Event.Minor_fault; Event.Major_fault; Event.Eviction |] in
  for i = 0 to 19 do
    Sink.emit sink ~ts_ns:(i * 10) kinds.(i mod 3) i 0
  done;
  check Alcotest.int "total" 20 (Sink.total sink);
  check Alcotest.int "length" 8 (Sink.length sink);
  check Alcotest.int "dropped" 12 (Sink.dropped sink);
  (* the newest 8 events survive, oldest-first *)
  let retained = Sink.to_list sink in
  check (Alcotest.list Alcotest.int) "newest retained, in order"
    [ 120; 130; 140; 150; 160; 170; 180; 190 ]
    (List.map (fun e -> e.Event.ts_ns) retained);
  (* per-kind counters stay exact across the wrap: kinds cycle 0,1,2 so
     kind 0 was emitted for i = 0,3,...,18 — 7 times *)
  check Alcotest.int "minor-fault count" 7 (Sink.count sink Event.Minor_fault);
  check Alcotest.int "major-fault count" 7 (Sink.count sink Event.Major_fault);
  check Alcotest.int "eviction count" 6 (Sink.count sink Event.Eviction);
  Sink.clear sink;
  check Alcotest.int "clear resets total" 0 (Sink.total sink);
  check Alcotest.int "clear resets counts" 0 (Sink.count sink Event.Eviction)

let test_codes_roundtrip () =
  (* kind codes are dense and distinct (they index the sink's per-kind
     counter array) *)
  let codes = List.map Event.kind_code Event.all_kinds in
  check Alcotest.int "kind_count" Event.kind_count (List.length codes);
  check Alcotest.bool "codes dense" true
    (List.sort_uniq compare codes = List.init Event.kind_count Fun.id);
  List.iter
    (fun p ->
      check Alcotest.bool (Event.phase_name p) true
        (Event.phase_of_code (Event.phase_code p) = p))
    Event.all_phases

(* ----------------------------------------------------------------- *)
(* Chrome trace JSON                                                  *)

let test_chrome_golden () =
  let sink = Sink.create ~capacity:16 () in
  Sink.emit sink ~ts_ns:1000 Event.Phase_begin (Event.phase_code Event.Minor) 1;
  Sink.emit sink ~ts_ns:3000 Event.Major_fault 42 1;
  Sink.emit sink ~ts_ns:5000 Event.Phase_end (Event.phase_code Event.Minor) 1;
  let expected =
    "{\"traceEvents\":[{\"name\":\"minor\",\"cat\":\"gc\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1},{\"name\":\"major-fault\",\"cat\":\"vm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3,\"pid\":1,\"tid\":1,\"args\":{\"page\":42}},{\"name\":\"minor\",\"cat\":\"gc\",\"ph\":\"E\",\"ts\":5,\"pid\":1,\"tid\":1}],\"displayTimeUnit\":\"ms\",\"otherData\":{\"emitted\":3,\"dropped\":0}}"
  in
  check Alcotest.string "golden" expected
    (Json.to_string (Export.chrome_json sink))

let test_chrome_closes_open_spans () =
  let sink = Sink.create ~capacity:16 () in
  Sink.emit sink ~ts_ns:100 Event.Phase_begin (Event.phase_code Event.Full) 2;
  Sink.emit sink ~ts_ns:900 Event.Eviction 7 2;
  (* no Phase_end: the exporter must synthesise one so B/E stay balanced *)
  match Export.chrome_json sink with
  | Json.Obj fields ->
      let events =
        match List.assoc "traceEvents" fields with
        | Json.List l -> l
        | _ -> Alcotest.fail "traceEvents not a list"
      in
      check Alcotest.int "begin + instant + synthetic end" 3
        (List.length events);
      let phs =
        List.filter_map
          (fun e -> Option.bind (Json.member "ph" e) Json.str_opt)
          events
      in
      check Alcotest.bool "has E" true (List.mem "E" phs)
  | _ -> Alcotest.fail "not an object"

let test_json_parser () =
  (* roundtrip of a real trace document through our own parser *)
  let sink = Sink.create ~capacity:16 () in
  Sink.emit sink ~ts_ns:500 Event.Phase_begin (Event.phase_code Event.Compacting) 3;
  Sink.emit sink ~ts_ns:1500 Event.Phase_end (Event.phase_code Event.Compacting) 3;
  Sink.emit sink ~ts_ns:1600 Event.Gauge_resident 12 4;
  let doc =
    Export.chrome_json ~metadata:[ ("outcome", Json.Str "ok") ] sink
  in
  let s = Json.to_string doc in
  (match Json.of_string_opt s with
  | None -> Alcotest.fail "emitted JSON does not parse"
  | Some parsed ->
      check Alcotest.bool "roundtrip equal" true (parsed = doc);
      check (Alcotest.option Alcotest.string) "metadata survives" (Some "ok")
        (Option.bind
           (Option.bind (Json.member "otherData" parsed)
              (Json.member "outcome"))
           Json.str_opt));
  (* malformed inputs are rejected, not crashed on *)
  List.iter
    (fun bad ->
      check Alcotest.bool ("rejects " ^ bad) true
        (Json.of_string_opt bad = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "{}trailing"; "\"unterminated" ]

(* ----------------------------------------------------------------- *)
(* Report                                                             *)

let test_report_phases () =
  let sink = Sink.create ~capacity:64 () in
  let span phase t0 t1 =
    Sink.emit sink ~ts_ns:t0 Event.Phase_begin (Event.phase_code phase) 1;
    Sink.emit sink ~ts_ns:t1 Event.Phase_end (Event.phase_code phase) 1
  in
  span Event.Minor 0 1_000;
  span Event.Minor 5_000 7_000;
  span Event.Compacting 10_000 14_000;
  let stats = Report.phases sink in
  let find p = List.find (fun s -> s.Report.phase = p) stats in
  check Alcotest.int "minor spans" 2 (find Event.Minor).Report.count;
  check Alcotest.int "minor total" 3_000 (find Event.Minor).Report.total_ns;
  check Alcotest.int "compacting max" 4_000
    (find Event.Compacting).Report.max_ns;
  check Alcotest.bool "observed collection phases" true
    (Report.observed_collection_phases sink
    = [ Event.Minor; Event.Compacting ])

(* ----------------------------------------------------------------- *)
(* Typed registry                                                     *)

let test_registry_info () =
  check Alcotest.int "all covers both lists"
    (List.length Registry.names + List.length Registry.ablation_names)
    (List.length Registry.all);
  (match Registry.find "BC" with
  | Some i ->
      check Alcotest.string "family" "BC" i.Registry.family;
      check Alcotest.bool "canonical" true (i.Registry.variant = None);
      check Alcotest.bool "not ablation" false i.Registry.ablation;
      check Alcotest.bool "documented" true (String.length i.Registry.doc > 0)
  | None -> Alcotest.fail "BC not registered");
  (match Registry.find "BC-fixed" with
  | Some i ->
      check Alcotest.string "variant family" "BC" i.Registry.family;
      check (Alcotest.option Alcotest.string) "variant" (Some "fixed")
        i.Registry.variant
  | None -> Alcotest.fail "BC-fixed not registered");
  check Alcotest.bool "unknown absent" true (Registry.find "NoSuchGC" = None);
  (* the derived lists keep the documented shape and order *)
  check (Alcotest.list Alcotest.string) "names derivation"
    [ "BC"; "BC-resize"; "BC-fixed"; "GenMS"; "GenMS-fixed"; "GenMS-coop";
      "GenCopy"; "GenCopy-fixed"; "CopyMS"; "MarkSweep"; "SemiSpace" ]
    Registry.names;
  check Alcotest.bool "ablations flagged" true
    (List.for_all
       (fun n ->
         match Registry.find n with
         | Some i -> i.Registry.ablation
         | None -> false)
       Registry.ablation_names);
  (* every entry's stored config agrees with the legacy accessor *)
  List.iter
    (fun (i : Registry.info) ->
      check Alcotest.bool ("config " ^ i.Registry.name) true
        (i.Registry.config ~heap_bytes:1_048_576
        = Registry.config_for ~name:i.Registry.name ~heap_bytes:1_048_576))
    Registry.all

(* ----------------------------------------------------------------- *)
(* Metrics: degraded label and the one serialisation path             *)

let mk_metrics ?(failsafes = 0) ?faults () =
  {
    Metrics.collector = "BC";
    workload = "wl";
    heap_bytes = 1024 * 1024;
    elapsed_ns = 2_000_000;
    gc_ns = 500_000;
    minor = 3;
    full = 1;
    compacting = 2;
    failsafes;
    avg_pause_ms = 0.25;
    p50_pause_ms = 0.2;
    p95_pause_ms = 0.4;
    max_pause_ms = 0.5;
    major_faults = 7;
    gc_major_faults = 1;
    evictions = 4;
    discards = 5;
    relinquished = 6;
    footprint_pages = 300;
    resident_peak_pages = 280;
    allocated_bytes = 4_000_000;
    pauses = [ (0, 100); (200, 300) ];
    faults;
    serving = None;
    control = None;
  }

let test_outcome_label () =
  check Alcotest.string "ok" "ok"
    (Metrics.outcome_label (Metrics.Completed (mk_metrics ())));
  check Alcotest.string "failsafe degrades" "degraded"
    (Metrics.outcome_label (Metrics.Completed (mk_metrics ~failsafes:2 ())));
  let injected =
    {
      Faults.Fault_plan.dropped_eviction = 1;
      dropped_resident = 0;
      delayed = 0;
      duplicated = 0;
      reordered_flushes = 0;
      swap_write_errors = 0;
      swap_read_errors = 0;
      swap_full_rejections = 0;
      spikes_applied = 0;
    }
  in
  check Alcotest.string "faults degrade" "degraded"
    (Metrics.outcome_label (Metrics.Completed (mk_metrics ~faults:injected ())));
  let clean = { injected with Faults.Fault_plan.dropped_eviction = 0 } in
  check Alcotest.string "armed but uninjected plan stays ok" "ok"
    (Metrics.outcome_label (Metrics.Completed (mk_metrics ~faults:clean ())));
  check Alcotest.string "thrashed" "thrashed"
    (Metrics.outcome_label (Metrics.Thrashed "x"))

let test_metrics_to_json () =
  let m = mk_metrics ~failsafes:1 () in
  let s = Json.to_string (Metrics.to_json m) in
  match Json.of_string_opt s with
  | None -> Alcotest.fail "metrics JSON does not parse"
  | Some j ->
      let str k = Option.bind (Json.member k j) Json.str_opt in
      let num k = Option.bind (Json.member k j) Json.num_opt in
      check (Alcotest.option Alcotest.string) "collector" (Some "BC")
        (str "collector");
      check (Alcotest.option (Alcotest.float 0.0)) "failsafes" (Some 1.0)
        (num "failsafes");
      check (Alcotest.option (Alcotest.float 0.0)) "elapsed" (Some 2e6)
        (num "elapsed_ns");
      check Alcotest.bool "null faults" true
        (Json.member "faults" j = Some Json.Null);
      check Alcotest.int "pauses" 2
        (match Option.bind (Json.member "pauses" j) Json.to_list_opt with
        | Some l -> List.length l
        | None -> -1)

(* ----------------------------------------------------------------- *)
(* Zero overhead: tracing must not change virtual-time results        *)

let scaled name volume =
  match Workload.Catalog.find_opt name with
  | Some { Workload.Catalog.params = Workload.Catalog.Batch_spec s; _ } ->
      Workload.Spec.scale_volume s volume
  | Some _ | None -> invalid_arg ("not a batch workload: " ^ name)

let run_once ?trace ~collector ~spec ~heap_kb ?frames ?pin () =
  let pressure =
    match pin with
    | None -> Workload.Pressure.None_
    | Some pin_pages ->
        Workload.Pressure.Steady { after_progress = 0.1; pin_pages }
  in
  let opt v f = match v with None -> Fun.id | Some x -> f x in
  Harness.Run.exec
    (Harness.Run.Plan.make ~collector ~spec ~heap_bytes:(heap_kb * 1024)
    |> opt frames Harness.Run.Plan.with_frames
    |> Harness.Run.Plan.with_pressure pressure
    |> opt trace Harness.Run.Plan.with_trace)

let test_traced_bit_identical () =
  let spec = scaled "_201_compress" 0.05 in
  let sink = Sink.create () in
  let plain = run_once ~collector:"BC" ~spec ~heap_kb:1024 ~frames:400
      ~pin:200 () in
  let traced = run_once ~trace:sink ~collector:"BC" ~spec ~heap_kb:1024
      ~frames:400 ~pin:200 () in
  match (plain, traced) with
  | Metrics.Completed a, Metrics.Completed b ->
      check Alcotest.bool "metrics bit-identical with tracing on" true (a = b);
      check Alcotest.bool "sink saw the run" true (Sink.total sink > 0)
  | _ -> Alcotest.fail "runs did not complete"

(* Golden lines captured from the seed (pre-telemetry) build: the traced-
   off stack must keep producing them byte for byte. *)
let test_seed_golden () =
  let golden =
    [
      ( "GenMS", scaled "_201_compress" 0.05, 1024,
        "GenMS/_201_compress heap=1024KB: 0.004s (gc 0.002s) pauses \
         avg=0.46ms p50=0.49ms p95=0.94ms max=0.94ms gc=[4 minor, 0 full, 0 \
         compact] faults=0 (gc 0) evict=0 discard=0 relinq=0" );
      ( "BC", scaled "_202_jess" 0.02, 2048,
        "BC/_202_jess heap=2048KB: 0.003s (gc 0.000s) pauses avg=0.00ms \
         p50=0.00ms p95=0.00ms max=0.00ms gc=[0 minor, 0 full, 0 compact] \
         faults=0 (gc 0) evict=0 discard=0 relinq=0" );
    ]
  in
  List.iter
    (fun (collector, spec, heap_kb, expected) ->
      match run_once ~collector ~spec ~heap_kb () with
      | Metrics.Completed m ->
          check Alcotest.string (collector ^ " seed line") expected
            (Format.asprintf "%a" Metrics.pp m)
      | _ -> Alcotest.fail (collector ^ ": did not complete"))
    golden

let () =
  Alcotest.run "telemetry"
    [
      ( "sink",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "code roundtrips" `Quick test_codes_roundtrip;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "closes open spans" `Quick
            test_chrome_closes_open_spans;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
      ( "report",
        [
          Alcotest.test_case "phase pairing" `Quick test_report_phases;
        ] );
      ( "registry",
        [ Alcotest.test_case "typed info" `Quick test_registry_info ] );
      ( "metrics",
        [
          Alcotest.test_case "outcome label" `Quick test_outcome_label;
          Alcotest.test_case "to_json" `Quick test_metrics_to_json;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "traced run identical" `Quick
            test_traced_bit_identical;
          Alcotest.test_case "seed golden lines" `Quick test_seed_golden;
        ] );
    ]
