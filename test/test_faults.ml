(* Fault injection: the plan's determinism and the stack's graceful
   degradation under lost notices, swap errors and device-full episodes. *)

module FP = Faults.Fault_plan
module Vmm = Vmsim.Vmm
module Clock = Vmsim.Clock
module Process = Vmsim.Process
module Metrics = Harness.Metrics

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Spec parsing                                                       *)

let test_spec_parse () =
  (match FP.spec_of_string "drop-evict=0.3,swap-full=2,spikes=1" with
  | Ok spec ->
      check (Alcotest.float 1e-9) "drop" 0.3 spec.FP.drop_eviction;
      check Alcotest.int "episodes" 2 spec.FP.swap_full_episodes;
      check Alcotest.int "spikes" 1 spec.FP.spike_count
  | Error msg -> Alcotest.fail msg);
  (match FP.spec_of_string "drop=0.5" with
  | Ok spec -> check (Alcotest.float 1e-9) "drop alias" 0.5 spec.FP.drop_eviction
  | Error msg -> Alcotest.fail msg);
  check Alcotest.bool "none parses" true (FP.spec_of_string "none" = Ok FP.none);
  check Alcotest.bool "empty parses" true (FP.spec_of_string "" = Ok FP.none);
  check Alcotest.bool "unknown key rejected" true
    (Result.is_error (FP.spec_of_string "frobnicate=1"));
  check Alcotest.bool "bad probability rejected" true
    (Result.is_error (FP.spec_of_string "drop-evict=1.5"));
  check Alcotest.bool "missing value rejected" true
    (Result.is_error (FP.spec_of_string "drop-evict"))

let test_spec_roundtrip () =
  let specs =
    [
      FP.none;
      { FP.none with FP.drop_eviction = 0.25; delay_notice = 0.1 };
      {
        FP.none with
        FP.swap_full_episodes = 3;
        swap_full_len = 4;
        swap_write_error = 0.05;
        spike_count = 2;
        spike_pages = 64;
      };
    ]
  in
  List.iter
    (fun spec ->
      let s = FP.spec_to_string spec in
      match FP.spec_of_string s with
      | Ok spec' -> check Alcotest.bool ("roundtrip " ^ s) true (spec = spec')
      | Error msg -> Alcotest.fail msg)
    specs

(* ----------------------------------------------------------------- *)
(* VMM-level injection                                                *)

let faulty_machine ?(frames = 4) plan_spec ~seed =
  let clock = Clock.create () in
  let plan = FP.create ~seed plan_spec in
  let vmm = Vmm.create ~reclaim_batch:1 ~faults:plan ~clock ~frames () in
  let proc = Vmm.create_process vmm ~name:"p" in
  (vmm, proc, plan)

let test_drop_all_eviction_notices () =
  let vmm, proc, plan =
    faulty_machine { FP.none with FP.drop_eviction = 1.0 } ~seed:42
  in
  let noticed = ref 0 in
  Process.register proc
    {
      Process.on_eviction_notice = (fun _ -> incr noticed);
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.int "every notice dropped" 0 !noticed;
  check Alcotest.bool "drops counted" true ((FP.stats plan).FP.dropped_eviction > 0);
  check Alcotest.bool "evictions proceeded anyway" true
    ((Process.stats proc).Vmsim.Vm_stats.evictions > 0)

let test_delayed_notices_flushed () =
  let vmm, proc, plan =
    faulty_machine { FP.none with FP.delay_notice = 1.0 } ~seed:11
  in
  let noticed = ref 0 in
  Process.register proc
    {
      Process.on_eviction_notice = (fun _ -> incr noticed);
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "delays counted" true ((FP.stats plan).FP.delayed > 0);
  (* late notices were queued, and subsequent touches flushed them *)
  check Alcotest.bool "late notices eventually delivered" true (!noticed > 0)

(* Transient swap-write errors under tight frames: every retried write
   is counted on the record of the process whose page was being
   evicted. *)
let test_swap_write_retries_counted () =
  let vmm, proc, plan =
    faulty_machine { FP.none with FP.swap_write_error = 0.5 } ~seed:3
  in
  Vmm.map_range vmm proc ~first_page:0 ~npages:32;
  for p = 0 to 31 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "write errors injected" true
    ((FP.stats plan).FP.swap_write_errors > 0);
  check Alcotest.bool "retries counted on the owner" true
    ((Process.stats proc).Vmsim.Vm_stats.swap_retries > 0)

(* ----------------------------------------------------------------- *)
(* End-to-end degradation                                             *)

let mini_spec =
  {
    (Workload.Benchmarks.pseudojbb) with
    Workload.Spec.total_alloc_bytes = 2_000_000;
    immortal_bytes = 200_000;
    window_bytes = 100_000;
  }

let pressured_setup ?(collector = "BC") ~faults ~fault_seed () =
  let heap_bytes = 1_500_000 in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 256 in
  let pressure =
    Workload.Pressure.Steady { after_progress = 0.2; pin_pages = frames - 150 }
  in
  Harness.Run.Plan.make ~collector ~spec:mini_spec ~heap_bytes
  |> Harness.Run.Plan.with_frames frames
  |> Harness.Run.Plan.with_pressure pressure
  |> Harness.Run.Plan.with_faults ~seed:fault_seed faults
  |> Harness.Run.Plan.with_verify

let degradation_plan =
  {
    FP.none with
    FP.drop_eviction = 0.3;
    drop_resident = 0.1;
    delay_notice = 0.1;
    duplicate_notice = 0.05;
  }

let test_bc_degrades_gracefully () =
  match Harness.Run.exec (pressured_setup ~faults:degradation_plan ~fault_seed:7 ()) with
  | Metrics.Completed m ->
      (* verify:true already ran the heap verifier and BC's own
         invariant check before this outcome was produced *)
      let s =
        match m.Metrics.faults with
        | Some s -> s
        | None -> Alcotest.fail "no fault stats on a faulted run"
      in
      check Alcotest.bool "notices actually dropped" true
        (s.FP.dropped_eviction > 0);
      check Alcotest.bool "collections completed" true
        (m.Metrics.minor + m.Metrics.full + m.Metrics.compacting > 0);
      check Alcotest.string "outcome degraded" "degraded"
        (Metrics.outcome_label (Metrics.Completed m))
  | Metrics.Exhausted msg -> Alcotest.failf "exhausted: %s" msg
  | Metrics.Thrashed msg -> Alcotest.failf "thrashed: %s" msg
  | Metrics.Failed f -> Alcotest.failf "failed: %s" f.Metrics.reason

let test_swap_full_episodes () =
  let faults =
    {
      FP.none with
      FP.swap_full_episodes = 2;
      swap_full_len = 4;
      swap_full_every = 16;
      swap_write_error = 0.02;
    }
  in
  (* GenMS pages heavily under pressure, guaranteeing swap writes for the
     episode script to reject *)
  match
    Harness.Run.exec (pressured_setup ~collector:"GenMS" ~faults ~fault_seed:3 ())
  with
  | Metrics.Completed m ->
      let s = Option.get m.Metrics.faults in
      check Alcotest.bool "device-full rejections" true
        (s.FP.swap_full_rejections >= 1)
  | Metrics.Exhausted msg -> Alcotest.failf "exhausted: %s" msg
  | Metrics.Thrashed msg -> Alcotest.failf "thrashed: %s" msg
  | Metrics.Failed f -> Alcotest.failf "failed: %s" f.Metrics.reason

let test_determinism () =
  let once () =
    match Harness.Run.exec (pressured_setup ~faults:degradation_plan ~fault_seed:21 ()) with
    | Metrics.Completed m -> m
    | Metrics.Exhausted msg | Metrics.Thrashed msg -> Alcotest.fail msg
    | Metrics.Failed f -> Alcotest.fail f.Metrics.reason
  in
  let a = once () and b = once () in
  (* same seed, same plan: the entire fault schedule and therefore the
     final metrics must be bit-identical *)
  check Alcotest.bool "identical metrics" true (a = b);
  check Alcotest.string "identical fault stats"
    (Format.asprintf "%a" FP.pp_stats (Option.get a.Metrics.faults))
    (Format.asprintf "%a" FP.pp_stats (Option.get b.Metrics.faults))

(* Pressure spikes vs coarse scheduling rounds: a spike whose whole
   [from, until) progress window falls inside one scheduling round — the
   round's slice jumped progress right over it — must still fire:
   counted in the fault stats, pages pinned for one round, then released.
   The slice here is sized so every round jumps more progress than the
   widest spike window (0.15), so without the machine's jumped-spike
   handling no spike would ever pin a page. *)
let test_spikes_fire_inside_skipped_spans () =
  let spike_plan = { FP.none with FP.spike_count = 3; spike_pages = 64 } in
  let fault_seed = 5 in
  let expected_spikes =
    List.length (FP.spikes (FP.create ~seed:fault_seed spike_plan))
  in
  check Alcotest.bool "seed generates spikes" true (expected_spikes >= 1);
  let sink = Telemetry.Sink.create () in
  let plan =
    Harness.Run.Plan.make ~collector:"BC" ~spec:mini_spec
      ~heap_bytes:1_500_000
    |> Harness.Run.Plan.with_faults ~seed:fault_seed spike_plan
    |> Harness.Run.Plan.with_ops_per_slice 8192
    |> Harness.Run.Plan.with_trace sink
  in
  (match Harness.Run.exec plan with
  | Metrics.Completed m ->
      let s = Option.get m.Metrics.faults in
      check Alcotest.int "every spike fired despite the jumps"
        expected_spikes s.FP.spikes_applied
  | _ -> Alcotest.fail "run did not complete");
  let rounds = Telemetry.Sink.count sink Telemetry.Event.Alloc_slice in
  check Alcotest.bool "rounds jump wider than any spike window" true
    (rounds >= 2 && rounds <= 6);
  (* event order: pins and releases alternate and the running pinned
     total is consistent — each spike rises before it falls *)
  let steps = ref [] in
  Telemetry.Sink.iter sink (fun e ->
      if e.Telemetry.Event.kind = Telemetry.Event.Pressure_step then
        steps := (e.Telemetry.Event.a, e.Telemetry.Event.b) :: !steps);
  let steps = List.rev !steps in
  check Alcotest.bool "spikes pinned pages" true (steps <> []);
  (match steps with
  | (a0, b0) :: _ ->
      check Alcotest.bool "first step is a rise from zero" true
        (b0 > 0 && a0 = b0)
  | [] -> ());
  check Alcotest.bool "a jumped spike recedes after its round" true
    (List.exists (fun (_, b) -> b < 0) steps);
  ignore
    (List.fold_left
       (fun prev (a, b) ->
         check Alcotest.int "pinned total tracks the deltas" (prev + b) a;
         a)
       0 steps)

(* A spike that pins no page is no injected fault: the cell stays "ok"
   and no spike is counted. *)
let test_zero_page_spikes_not_counted () =
  let plan =
    Harness.Run.Plan.make ~collector:"BC"
      ~spec:(Workload.Spec.scale_volume Workload.Benchmarks.jess 0.36)
      ~heap_bytes:(3072 * 1024)
    |> Harness.Run.Plan.with_frames 960
    |> Harness.Run.Plan.with_faults
         { FP.none with FP.spike_count = 2; spike_pages = 0 }
  in
  match Harness.Run.exec plan with
  | Metrics.Completed m as o ->
      check Alcotest.string "outcome ok" "ok" (Metrics.outcome_label o);
      check Alcotest.int "no spike applied" 0
        (Option.get m.Metrics.faults).FP.spikes_applied
  | o -> Alcotest.failf "run did not complete: %s" (Metrics.outcome_label o)

let test_different_seed_differs () =
  let stats_for seed =
    match Harness.Run.exec (pressured_setup ~faults:degradation_plan ~fault_seed:seed ()) with
    | Metrics.Completed m -> Option.get m.Metrics.faults
    | _ -> Alcotest.fail "run did not complete"
  in
  let a = stats_for 1 and b = stats_for 2 in
  (* not a hard guarantee for any pair of seeds, but these two differ *)
  check Alcotest.bool "schedules differ across seeds" true (a <> b)

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
        ] );
      ( "vmm",
        [
          Alcotest.test_case "drop all notices" `Quick
            test_drop_all_eviction_notices;
          Alcotest.test_case "delayed notices flushed" `Quick
            test_delayed_notices_flushed;
          Alcotest.test_case "swap write retries counted" `Quick
            test_swap_write_retries_counted;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "BC survives 30% dropped notices" `Quick
            test_bc_degrades_gracefully;
          Alcotest.test_case "swap-full episodes" `Quick test_swap_full_episodes;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "spikes fire inside skipped spans" `Quick
            test_spikes_fire_inside_skipped_spans;
          Alcotest.test_case "zero-page spikes not counted" `Quick
            test_zero_page_spikes_not_counted;
          Alcotest.test_case "seed sensitivity" `Quick test_different_seed_differs;
        ] );
    ]
