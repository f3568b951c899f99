(* Request-serving workloads: shape grammar round-trips, golden
   nearest-rank percentile extraction, SLO violation windows, open-loop
   arrival determinism, and the serving path end-to-end over real
   collectors. *)

module Mini = Test_support.Mini
module Shapes = Workload.Shapes
module Slo = Workload.Slo
module Request = Workload.Request
module Catalog = Workload.Catalog

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Shapes                                                             *)

let test_shape_grammar_roundtrip () =
  (* every registered serving workload's shape survives the grammar *)
  List.iter
    (fun (s : Request.spec) ->
      let text = Shapes.to_string s.Request.shape in
      check Alcotest.bool
        (s.Request.name ^ " shape round-trips via " ^ text)
        true
        (Shapes.of_string text = s.Request.shape))
    Catalog.serving_specs;
  (* and each grammar form parses from hand-written text *)
  List.iter
    (fun (text, shape) ->
      check Alcotest.bool (text ^ " parses") true
        (Shapes.of_string text = shape))
    [
      ("fixed:1200", Shapes.Fixed { rps = 1200.0 });
      ( "rampup:200:2500:1.5",
        Shapes.Rampup { from_rps = 200.0; to_rps = 2500.0; over_s = 1.5 } );
      ( "pausing:2000:0.25:0.25",
        Shapes.Pausing { rps = 2000.0; on_s = 0.25; off_s = 0.25 } );
      ( "shaped:0=300,1=1800,2=400",
        Shapes.Shaped { points = [ (0.0, 300.0); (1.0, 1800.0); (2.0, 400.0) ] }
      );
      ( "diurnal:400:2200:1",
        Shapes.Diurnal { base_rps = 400.0; peak_rps = 2200.0; period_s = 1.0 }
      );
      ( "flash:600:3000:0.8:0.4",
        Shapes.Flash
          { base_rps = 600.0; spike_rps = 3000.0; at_s = 0.8; for_s = 0.4 } );
    ]

let test_shape_grammar_rejects_garbage () =
  List.iter
    (fun text ->
      check Alcotest.bool (text ^ " rejected") true
        (match Shapes.of_string text with
        | (_ : Shapes.t) -> false
        | exception Failure _ -> true))
    [ ""; "nope"; "fixed:"; "fixed:abc"; "rampup:1:2"; "shaped:"; "flash:1:2:3" ]

let test_shape_rates () =
  let near what a b =
    check Alcotest.bool (Printf.sprintf "%s (%g ~ %g)" what a b) true
      (Float.abs (a -. b) < 1e-6)
  in
  near "fixed" (Shapes.rate (Shapes.Fixed { rps = 100.0 }) ~at_s:5.0) 100.0;
  let ramp = Shapes.Rampup { from_rps = 100.0; to_rps = 300.0; over_s = 2.0 } in
  near "rampup midpoint" (Shapes.rate ramp ~at_s:1.0) 200.0;
  near "rampup saturates" (Shapes.rate ramp ~at_s:10.0) 300.0;
  let pause = Shapes.Pausing { rps = 100.0; on_s = 1.0; off_s = 1.0 } in
  near "pausing on" (Shapes.rate pause ~at_s:0.5) 100.0;
  near "pausing off" (Shapes.rate pause ~at_s:1.5) 0.0;
  let flash =
    Shapes.Flash { base_rps = 100.0; spike_rps = 900.0; at_s = 1.0; for_s = 0.5 }
  in
  near "flash before" (Shapes.rate flash ~at_s:0.5) 100.0;
  near "flash during" (Shapes.rate flash ~at_s:1.2) 900.0;
  near "flash after" (Shapes.rate flash ~at_s:2.0) 100.0;
  let diurnal =
    Shapes.Diurnal { base_rps = 100.0; peak_rps = 300.0; period_s = 2.0 }
  in
  near "diurnal trough" (Shapes.rate diurnal ~at_s:0.0) 100.0;
  near "diurnal peak" (Shapes.rate diurnal ~at_s:1.0) 300.0;
  (* the thinning envelope must dominate the instantaneous rate *)
  List.iter
    (fun shape ->
      let peak = Shapes.peak_rate shape in
      for i = 0 to 40 do
        let at_s = float_of_int i /. 10.0 in
        check Alcotest.bool "peak_rate dominates" true
          (Shapes.rate shape ~at_s <= peak +. 1e-9)
      done)
    [ ramp; pause; flash; diurnal; Shapes.Fixed { rps = 100.0 } ]

let test_shape_validate () =
  List.iter
    (fun (what, shape) ->
      check Alcotest.bool (what ^ " rejected") true
        (match Shapes.validate shape with
        | () -> false
        | exception Invalid_argument _ -> true))
    [
      ("negative rate", Shapes.Fixed { rps = -1.0 });
      ( "zero ramp window",
        Shapes.Rampup { from_rps = 1.0; to_rps = 2.0; over_s = 0.0 } );
      ("empty shaped", Shapes.Shaped { points = [] });
      ( "unsorted shaped",
        Shapes.Shaped { points = [ (1.0, 10.0); (0.0, 10.0) ] } );
    ]

(* ----------------------------------------------------------------- *)
(* Golden percentile extraction                                       *)

(* 1000 latencies of 1,2,...,1000 us, fed in shuffled order. Exact
   nearest-rank percentiles are known in closed form. *)
let synthetic_latencies () =
  let n = 1000 in
  let lat = Array.init n (fun i -> (i + 1) * 1_000) in
  (* deterministic shuffle so order carries no information *)
  let rng = Repro_util.Rng.create 99 in
  for i = n - 1 downto 1 do
    let j = Repro_util.Rng.int rng (i + 1) in
    let tmp = lat.(i) in
    lat.(i) <- lat.(j);
    lat.(j) <- tmp
  done;
  lat

let test_percentile_golden_exact () =
  let lat = synthetic_latencies () in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  check Alcotest.int "p50" 500_000 (Slo.percentile sorted 0.5);
  check Alcotest.int "p99" 990_000 (Slo.percentile sorted 0.99);
  check Alcotest.int "p999" 999_000 (Slo.percentile sorted 0.999);
  check Alcotest.int "p100" 1_000_000 (Slo.percentile sorted 1.0);
  check Alcotest.int "empty" 0 (Slo.percentile [||] 0.5)

let test_summary_of_samples () =
  let lat = synthetic_latencies () in
  (* spread finishes uniformly over 1s of virtual time *)
  let samples = Array.mapi (fun i l -> (i * 1_000_000, l)) lat in
  let s =
    Slo.of_samples ~slo_ns:900_000 ~start_ns:0 ~end_ns:1_000_000_000 samples
  in
  check Alcotest.int "requests" 1000 s.Slo.requests;
  check Alcotest.int "p50" 500_000 s.Slo.p50_ns;
  check Alcotest.int "p99" 990_000 s.Slo.p99_ns;
  check Alcotest.int "p999" 999_000 s.Slo.p999_ns;
  check Alcotest.int "max" 1_000_000 s.Slo.max_ns;
  check Alcotest.int "violations" 100 s.Slo.violations;
  check Alcotest.bool "mean" true (Float.abs (s.Slo.mean_ns -. 500_500.0) < 1.0);
  check Alcotest.bool "throughput" true
    (Float.abs (s.Slo.throughput_rps -. 1000.0) < 1e-6);
  check Alcotest.bool "p999 over slo" true (not (Slo.meets_p999 s))

(* ----------------------------------------------------------------- *)
(* Violation windows                                                  *)

let test_violation_windows_merge () =
  let ok finish = (finish, 1_000_000) in
  let bad finish = (finish, 20_000_000) in
  let ms x = x * 1_000_000 in
  let samples =
    [|
      (* violating cluster across two adjacent 100ms windows *)
      bad (ms 50);
      bad (ms 150);
      bad (ms 160);
      ok (ms 170);
      (* clean middle *)
      ok (ms 250);
      ok (ms 350);
      (* one late violator *)
      bad (ms 450);
      ok (ms 460);
    |]
  in
  let s =
    Slo.of_samples ~slo_ns:10_000_000 ~start_ns:0 ~end_ns:(ms 1000) samples
  in
  check Alcotest.int "violations" 4 s.Slo.violations;
  (match s.Slo.windows with
  | [ w1; w2 ] ->
      check Alcotest.int "merged span start" 0 w1.Slo.from_ns;
      check Alcotest.int "merged span end" (ms 200) w1.Slo.until_ns;
      check Alcotest.int "merged span violations" 3 w1.Slo.violations;
      check Alcotest.int "merged span requests" 4 w1.Slo.requests;
      check Alcotest.int "late window start" (ms 400) w2.Slo.from_ns;
      check Alcotest.int "late window end" (ms 500) w2.Slo.until_ns;
      check Alcotest.int "late window violations" 1 w2.Slo.violations
  | ws -> Alcotest.failf "expected 2 maximal spans, got %d" (List.length ws));
  check Alcotest.int "violation_ns sums the spans" (ms 300) s.Slo.violation_ns

let test_summary_json_roundtrip () =
  let lat = synthetic_latencies () in
  let samples = Array.mapi (fun i l -> (i * 1_000_000, l)) lat in
  let s =
    Slo.of_samples ~slo_ns:900_000 ~start_ns:0 ~end_ns:1_000_000_000 samples
  in
  (match Slo.of_json (Slo.to_json s) with
  | Some s' -> check Alcotest.bool "round-trips" true (s = s')
  | None -> Alcotest.fail "summary did not parse back");
  check Alcotest.bool "garbage is None" true
    (Slo.of_json (Telemetry.Json.Str "nope") = None)

(* ----------------------------------------------------------------- *)
(* The request mutator over real collectors                           *)

let tiny_spec ?(seed = 7) () =
  (* ~100ms arrival window at 1.5k rps: ~150 requests, milliseconds of
     virtual time *)
  { (Request.scale_volume Catalog.srv_fixed 0.05) with Request.seed }

let drive_serving ?(collector = "BC") ?(heap_bytes = 6 * 1024 * 1024) spec =
  let m, c = Mini.collector ~heap_bytes collector in
  let t = Request.create spec c in
  let guard = ref 0 in
  while (not (Request.step t ~ops:256)) && !guard < 1_000_000 do
    incr guard
  done;
  check Alcotest.bool "finished" true (Request.finished t);
  (m, t)

let test_serving_runs_and_summarises () =
  let _, t = drive_serving (tiny_spec ()) in
  let s = Request.summary t in
  check Alcotest.bool "served a plausible request count" true
    (s.Slo.requests > 50 && s.Slo.requests < 500);
  check Alcotest.int "summary covers every request" (Request.requests_done t)
    s.Slo.requests;
  check Alcotest.bool "percentiles ordered" true
    (s.Slo.p50_ns <= s.Slo.p99_ns
    && s.Slo.p99_ns <= s.Slo.p999_ns
    && s.Slo.p999_ns <= s.Slo.max_ns);
  check Alcotest.bool "throughput positive" true (s.Slo.throughput_rps > 0.0);
  check Alcotest.bool "allocated" true (Request.allocated_bytes t > 0);
  check Alcotest.bool "progress complete" true (Request.progress t >= 1.0)

let test_arrival_determinism () =
  let run seed =
    let m, t = drive_serving (tiny_spec ~seed ()) in
    ( Request.requests_done t,
      Request.ops_done t,
      Vmsim.Clock.now m.Mini.clock,
      Request.summary t )
  in
  check Alcotest.bool "same seed, identical run" true (run 7 = run 7);
  let r1, o1, c1, _ = run 7 and r2, o2, c2, _ = run 8 in
  check Alcotest.bool "different seed, different schedule" true
    ((r1, o1, c1) <> (r2, o2, c2))

let test_serving_across_collectors () =
  List.iter
    (fun collector ->
      let _, t = drive_serving ~collector (tiny_spec ()) in
      check Alcotest.bool (collector ^ " served requests") true
        (Request.requests_done t > 0))
    [ "BC"; "GenMS"; "GenCopy" ]

let test_serving_telemetry_events () =
  let sink = Telemetry.Sink.create () in
  let _, c = Mini.collector ~heap_bytes:(6 * 1024 * 1024) "BC" in
  let t = Request.create ~sink (tiny_spec ()) c in
  while not (Request.step t ~ops:256) do
    ()
  done;
  let arrivals = ref 0 and dones = ref 0 in
  Telemetry.Sink.iter sink (fun e ->
      match e.Telemetry.Event.kind with
      | Telemetry.Event.Request_arrival -> incr arrivals
      | Telemetry.Event.Request_done -> incr dones
      | _ -> ());
  check Alcotest.int "one arrival per request" (Request.requests_done t)
    !arrivals;
  check Alcotest.int "one completion per request" (Request.requests_done t)
    !dones

let test_scale_volume_stretches_window () =
  let base = Catalog.srv_fixed in
  let double = Request.scale_volume base 2.0 in
  check Alcotest.int "duration doubled" (2 * base.Request.duration_ns)
    double.Request.duration_ns;
  check Alcotest.int "live set untouched" base.Request.cache_bytes
    double.Request.cache_bytes

let test_catalog_driver_serving () =
  let _, c = Mini.collector ~heap_bytes:(6 * 1024 * 1024) "BC" in
  let d =
    Catalog.driver (Catalog.Serving_spec (tiny_spec ())) c
  in
  while not (d.Workload.Driver.step ~ops:256) do
    ()
  done;
  match d.Workload.Driver.serving () with
  | Some s -> check Alcotest.bool "driver surfaces the summary" true
      (s.Slo.requests > 0)
  | None -> Alcotest.fail "serving driver returned no summary"

let () =
  Alcotest.run "serving"
    [
      ( "shapes",
        [
          Alcotest.test_case "grammar roundtrip" `Quick
            test_shape_grammar_roundtrip;
          Alcotest.test_case "grammar rejects" `Quick
            test_shape_grammar_rejects_garbage;
          Alcotest.test_case "rates" `Quick test_shape_rates;
          Alcotest.test_case "validate" `Quick test_shape_validate;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "golden exact" `Quick test_percentile_golden_exact;
          Alcotest.test_case "summary" `Quick test_summary_of_samples;
        ] );
      ( "slo windows",
        [
          Alcotest.test_case "merge" `Quick test_violation_windows_merge;
          Alcotest.test_case "json roundtrip" `Quick
            test_summary_json_roundtrip;
        ] );
      ( "requests",
        [
          Alcotest.test_case "runs + summarises" `Quick
            test_serving_runs_and_summarises;
          Alcotest.test_case "arrival determinism" `Quick
            test_arrival_determinism;
          Alcotest.test_case "across collectors" `Quick
            test_serving_across_collectors;
          Alcotest.test_case "telemetry events" `Quick
            test_serving_telemetry_events;
          Alcotest.test_case "scale_volume" `Quick
            test_scale_volume_stretches_window;
          Alcotest.test_case "catalog driver" `Quick
            test_catalog_driver_serving;
        ] );
    ]
