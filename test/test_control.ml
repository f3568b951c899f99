(* The online memory controller: degradation ladder, policy actuation,
   and the determinism contract — same seed + plan means a byte-identical
   decision trace, and a run with no controller (or an inert one) is
   byte-identical to seed. The committed golden matrices are the other
   half of that contract; test_identity pins those. *)

module Controller = Control.Controller
module Registry = Control.Registry
module FP = Faults.Fault_plan
module Metrics = Harness.Metrics
module Plan = Harness.Run.Plan
module Machine = Harness.Machine
module Gc_stats = Gc_common.Gc_stats
module Json = Telemetry.Json

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let sample ?(mf = 0) ?(notices = 0) ?(res = 500) ?(free = 500) () =
  {
    Controller.major_faults = mf;
    evictions = 0;
    notices;
    resident_pages = res;
    free_frames = free;
    p99_pause_ms = 0.0;
    failsafes = 0;
  }

(* ----------------------------------------------------------------- *)
(* Degradation ladder                                                 *)

let test_fsm_ladder () =
  let fsm = Controller.Fsm.create ~frames:1000 () in
  let step s = Controller.Fsm.step fsm s in
  check Alcotest.bool "quiet stays Normal" true
    (step (sample ()) = (Controller.Normal, false));
  check Alcotest.bool "one fault escalates to Pressure" true
    (step (sample ~mf:1 ()) = (Controller.Pressure, false));
  check Alcotest.bool "a heavy window jumps to Emergency" true
    (step (sample ~mf:8 ()) = (Controller.Emergency, false));
  (* hysteresis: the dwell holds the state through short quiet spells *)
  check Alcotest.bool "1st quiet window holds" true
    (fst (step (sample ())) = Controller.Emergency);
  check Alcotest.bool "2nd quiet window holds" true
    (fst (step (sample ())) = Controller.Emergency);
  check Alcotest.bool "3rd quiet window steps down one level" true
    (fst (step (sample ())) = Controller.Pressure);
  check Alcotest.bool "4th quiet window reaches Normal" true
    (fst (step (sample ())) = Controller.Normal)

let test_fsm_pressure_signals () =
  (* each escalation signal alone reaches Pressure *)
  let reaches s =
    let fsm = Controller.Fsm.create ~frames:1000 () in
    fst (Controller.Fsm.step fsm s) = Controller.Pressure
  in
  check Alcotest.bool "major fault" true (reaches (sample ~mf:1 ()));
  check Alcotest.bool "notice burst" true (reaches (sample ~notices:4 ()));
  check Alcotest.bool "low free frames" true (reaches (sample ~free:100 ()));
  check Alcotest.bool "ample free frames is quiet" false
    (reaches (sample ~free:500 ()))

let test_watchdog () =
  let fsm = Controller.Fsm.create ~frames:1000 () in
  let step s = Controller.Fsm.step fsm s in
  ignore (step (sample ~mf:8 ()));
  (* rising faults + flat residency: three windows force the fail-safe *)
  check Alcotest.bool "rising 1" true
    (step (sample ~mf:9 ()) = (Controller.Emergency, false));
  check Alcotest.bool "rising 2" true
    (step (sample ~mf:10 ()) = (Controller.Emergency, false));
  check Alcotest.bool "rising 3 forces Failsafe" true
    (step (sample ~mf:11 ()) = (Controller.Failsafe, true));
  (* recovery leaves through the quiet path, one level per window *)
  ignore (step (sample ()));
  ignore (step (sample ()));
  check Alcotest.bool "quiet dwell leaves Failsafe" true
    (fst (step (sample ())) = Controller.Pressure)

let test_watchdog_ignores_plateau () =
  let fsm = Controller.Fsm.create ~frames:1000 () in
  let step s = Controller.Fsm.step fsm s in
  ignore (step (sample ~mf:8 ()));
  (* a steady fault plateau is Emergency's job, not the watchdog's *)
  for _ = 1 to 6 do
    let st, forced = step (sample ~mf:9 ()) in
    check Alcotest.bool "plateau never forces" false forced;
    check Alcotest.bool "plateau stays Emergency" true
      (st = Controller.Emergency)
  done

(* ----------------------------------------------------------------- *)
(* Registry & policies                                                *)

let cfg = { Controller.heap_pages = 768; frames = 960 }

let test_registry () =
  check
    Alcotest.(list string)
    "registered policies"
    [ "static"; "static-tight"; "threshold"; "pi" ]
    (Registry.names ());
  check Alcotest.bool "find_opt misses politely" true
    (Registry.find_opt "nope" = None);
  (match Registry.find "nope" with
  | exception Failure m ->
      check Alcotest.bool "failure names the known policies" true
        (contains m "threshold")
  | _ -> Alcotest.fail "unknown policy must be refused");
  List.iter
    (fun name ->
      let c = Registry.instantiate ~name cfg in
      check Alcotest.string ("instantiate " ^ name) name
        (Controller.policy c))
    (Registry.names ())

let test_threshold_actuation () =
  let c = Registry.instantiate ~name:"threshold" cfg in
  let quiet = Controller.decide c (sample ()) in
  check Alcotest.bool "quiet window is inert" true
    (quiet.Controller.state = Controller.Normal
    && quiet.Controller.act = Controller.inert_actuation);
  let pressured = Controller.decide c (sample ~mf:1 ()) in
  check Alcotest.bool "pressure caps at 3/4 of frames" true
    (pressured.Controller.state = Controller.Pressure
    && pressured.Controller.act.Controller.target = Controller.Cap 720);
  (* dwell out, then the cap is cleared exactly once *)
  ignore (Controller.decide c (sample ()));
  ignore (Controller.decide c (sample ()));
  let back = Controller.decide c (sample ()) in
  check Alcotest.bool "return to Normal clears the cap" true
    (back.Controller.state = Controller.Normal
    && back.Controller.act.Controller.target = Controller.Clear);
  let after = Controller.decide c (sample ()) in
  check Alcotest.bool "subsequent quiet windows keep" true
    (after.Controller.act.Controller.target = Controller.Keep)

let test_pi_trims_deeper () =
  let c = Registry.instantiate ~name:"pi" cfg in
  let cap_of d =
    match d.Controller.act.Controller.target with
    | Controller.Cap n -> n
    | _ -> Alcotest.fail "expected a cap"
  in
  let first = cap_of (Controller.decide c (sample ~mf:4 ())) in
  let second = cap_of (Controller.decide c (sample ~mf:4 ())) in
  check Alcotest.bool "base cap is 3/4 of frames or below" true (first <= 720);
  check Alcotest.bool "sustained faults trim deeper" true (second < first);
  check Alcotest.bool "trim bottoms out at 5/8 of frames" true (second >= 600)

let test_summary_counters () =
  let c = Registry.instantiate ~name:"threshold" cfg in
  ignore (Controller.decide c (sample ~mf:1 ()));
  ignore (Controller.decide c (sample ()));
  let s = Controller.summary c in
  check Alcotest.int "decisions counted" 2 s.Controller.decisions;
  check Alcotest.bool "peak recorded" true
    (s.Controller.peak_state = Controller.Pressure);
  check Alcotest.string "digest matches the trace" s.Controller.trace_digest
    (Digest.to_hex (Digest.string (Controller.trace_text c)))

(* ----------------------------------------------------------------- *)
(* End-to-end determinism                                             *)

let mini_spec =
  {
    (Workload.Benchmarks.pseudojbb) with
    Workload.Spec.total_alloc_bytes = 2_000_000;
    immortal_bytes = 200_000;
    window_bytes = 100_000;
  }

let storm =
  { FP.none with FP.drop_eviction = 0.4; drop_resident = 0.2; delay_notice = 0.1 }

(* The storm cell: a small heap on tight frames, most of them pinned
   from 20% progress, under lossy and late eviction notices. *)
let heap_bytes = 1_500_000

let frames = Vmsim.Page.count_for_bytes heap_bytes + 256

let pressure =
  Workload.Pressure.Steady { after_progress = 0.2; pin_pages = frames - 150 }

let plan ?controller () =
  let p =
    Plan.make ~collector:"BC" ~spec:mini_spec ~heap_bytes
    |> Plan.with_frames frames
    |> Plan.with_pressure pressure
    |> Plan.with_faults ~seed:7 storm
  in
  match controller with
  | None -> p
  | Some name -> Plan.with_controller ~window_ns:1_000_000 name p

let completed outcome =
  match outcome with
  | Metrics.Completed m -> m
  | _ -> Alcotest.fail "plan should complete"

let test_canonical_controller_tag () =
  check Alcotest.bool "controller-off canonical carries no tag" true
    (not (contains (Plan.canonical (plan ())) "controller="));
  check Alcotest.bool "controller lands in the canonical" true
    (contains
       (Plan.canonical (plan ~controller:"threshold" ()))
       "controller=threshold@1000000");
  check Alcotest.bool "unknown policy refused at plan construction" true
    (match Plan.with_controller "nope" (plan ()) with
    | exception Failure _ -> true
    | _ -> false)

let test_decision_trace_deterministic () =
  let m1 = completed (Harness.Run.exec (plan ~controller:"threshold" ())) in
  let m2 = completed (Harness.Run.exec (plan ~controller:"threshold" ())) in
  let s1 = Option.get m1.Metrics.control
  and s2 = Option.get m2.Metrics.control in
  check Alcotest.string "same plan, same decision-trace digest"
    s1.Controller.trace_digest s2.Controller.trace_digest;
  check Alcotest.int "same decision count" s1.Controller.decisions
    s2.Controller.decisions;
  check Alcotest.bool "the controller actually decided" true
    (s1.Controller.decisions > 0);
  check Alcotest.string "byte-identical metrics JSON"
    (Json.to_string (Metrics.to_json m1))
    (Json.to_string (Metrics.to_json m2))

(* Strip the conditional "control" member so an inert controller's
   metrics can be compared byte-for-byte against a controller-off run. *)
let strip_control = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "control") fields)
  | j -> j

let test_off_and_inert_identical () =
  let off = completed (Harness.Run.exec (plan ())) in
  let inert = completed (Harness.Run.exec (plan ~controller:"static" ())) in
  check Alcotest.bool "controller-off metrics carry no control key" true
    (off.Metrics.control = None);
  check Alcotest.bool "inert controller reports a summary" true
    (inert.Metrics.control <> None);
  check Alcotest.string
    "inert controller perturbs nothing (metrics modulo the control key)"
    (Json.to_string (Metrics.to_json off))
    (Json.to_string (strip_control (Metrics.to_json inert)))

(* Every sample carries exact window deltas: a probe policy re-reads the
   process's live counters at each decision and checks the sample
   against the change since its own previous call. *)
let test_window_samples_exact () =
  let m = Machine.create ~faults:(FP.create ~seed:7 storm) ~frames () in
  let p = Machine.spawn m ~name:"jvm" ~heap_bytes in
  Machine.set_collector p (Harness.Registry.instantiate_name ~name:"BC" p);
  Machine.load p (Workload.Catalog.Batch_spec mini_spec);
  let gc = (Machine.collector p).Gc_common.Collector.stats in
  let vm = Vmsim.Process.stats (Machine.vm_process p) in
  let read () =
    ( vm.Vmsim.Vm_stats.major_faults,
      vm.Vmsim.Vm_stats.evictions,
      vm.Vmsim.Vm_stats.eviction_notices,
      Gc_stats.failsafes gc,
      List.length (Gc_stats.pauses gc) )
  in
  let last = ref (read ()) in
  let faulted = ref false and noticed = ref false and paused = ref false in
  let probe (s : Controller.sample) =
    let mf, ev, no, fs, np = !last in
    let window_ms =
      List.filteri (fun i _ -> i >= np) (Gc_stats.pauses gc)
      |> List.map (fun q -> Vmsim.Clock.ns_to_ms q.Gc_stats.duration_ns)
    in
    check Alcotest.int "major faults"
      (vm.Vmsim.Vm_stats.major_faults - mf)
      s.Controller.major_faults;
    check Alcotest.int "evictions" (vm.Vmsim.Vm_stats.evictions - ev)
      s.Controller.evictions;
    check Alcotest.int "notices"
      (vm.Vmsim.Vm_stats.eviction_notices - no)
      s.Controller.notices;
    check Alcotest.int "failsafes" (Gc_stats.failsafes gc - fs)
      s.Controller.failsafes;
    check Alcotest.int "resident gauge" vm.Vmsim.Vm_stats.resident_pages
      s.Controller.resident_pages;
    check (Alcotest.float 0.0) "p99 of the window's pauses"
      (Repro_util.Summary.percentile 0.99 window_ms)
      s.Controller.p99_pause_ms;
    if s.Controller.major_faults > 0 then faulted := true;
    if s.Controller.notices > 0 then noticed := true;
    if window_ms <> [] then paused := true;
    last := read ();
    { Controller.state = Controller.Normal; act = Controller.inert_actuation }
  in
  Machine.set_controller p ~window_ns:1_000_000
    (Controller.make ~policy:"probe" ~decide:probe);
  Machine.run ~pressure m;
  check Alcotest.bool "a window saw a major fault" true !faulted;
  check Alcotest.bool "a window saw a notice" true !noticed;
  check Alcotest.bool "a window saw a pause" true !paused

let () =
  Alcotest.run "control"
    [
      ( "fsm",
        [
          Alcotest.test_case "ladder" `Quick test_fsm_ladder;
          Alcotest.test_case "pressure signals" `Quick
            test_fsm_pressure_signals;
          Alcotest.test_case "watchdog" `Quick test_watchdog;
          Alcotest.test_case "watchdog ignores plateau" `Quick
            test_watchdog_ignores_plateau;
        ] );
      ( "policies",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "threshold actuation" `Quick
            test_threshold_actuation;
          Alcotest.test_case "pi trims deeper" `Quick test_pi_trims_deeper;
          Alcotest.test_case "summary counters" `Quick test_summary_counters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "canonical tag" `Quick
            test_canonical_controller_tag;
          Alcotest.test_case "decision trace" `Quick
            test_decision_trace_deterministic;
          Alcotest.test_case "off and inert identical" `Quick
            test_off_and_inert_identical;
          Alcotest.test_case "window samples exact" `Quick
            test_window_samples_exact;
        ] );
    ]
