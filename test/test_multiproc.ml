(* Multi-process machines: scheduling policies, per-process accounting,
   determinism of the shared machine, and the fork-parallel driver's
   byte-equivalence to a sequential sweep. *)

module Metrics = Harness.Metrics
module Plan = Harness.Run.Plan
module Machine = Harness.Machine

let check = Alcotest.check

let mini_spec =
  {
    (Workload.Benchmarks.pseudojbb) with
    Workload.Spec.total_alloc_bytes = 1_200_000;
    immortal_bytes = 150_000;
    window_bytes = 80_000;
  }

let heap_bytes = 1_200_000

let heap_pages = Vmsim.Page.count_for_bytes heap_bytes

(* a §5-style contended machine: two heaps, ~55% of their combined pages *)
let contended_frames = 2 * heap_pages * 55 / 100

let pair_plan ?frames ?(coworker = "GenMS") collector =
  Plan.make ~collector ~spec:mini_spec ~heap_bytes
  |> Plan.with_frames (Option.value frames ~default:contended_frames)
  |> Plan.with_process ~collector:coworker
       ~spec:
         { mini_spec with Workload.Spec.seed = mini_spec.Workload.Spec.seed + 17 }

let completed = function
  | Metrics.Completed m -> m
  | Metrics.Exhausted msg | Metrics.Thrashed msg -> Alcotest.fail msg
  | Metrics.Failed f -> Alcotest.fail f.Metrics.reason

(* ----------------------------------------------------------------- *)
(* Determinism                                                        *)

let test_pair_deterministic () =
  let once () = List.map completed (Harness.Run.exec_all (pair_plan "BC")) in
  let a = once () and b = once () in
  check Alcotest.bool "two-process machine is bit-identical across runs" true
    (a = b)

let test_policies_deterministic () =
  let once policy =
    List.map completed
      (Harness.Run.exec_all (pair_plan "BC" |> Plan.with_policy policy))
  in
  check Alcotest.bool "proportional repeatable" true
    (once Machine.Proportional = once Machine.Proportional);
  check Alcotest.bool "priority repeatable" true
    (once Machine.Priority = once Machine.Priority)

(* ----------------------------------------------------------------- *)
(* Forked fan-out must be byte-identical to a sequential sweep        *)

let sweep_plans () =
  List.map
    (fun collector -> Plan.make ~collector ~spec:mini_spec ~heap_bytes)
    [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace"; "MarkSweep" ]

let values cells =
  Array.map
    (function
      | Harness.Supervisor.Done { value; _ } -> Some value
      | Harness.Supervisor.Quarantined _ -> None)
    cells

let test_parallel_matches_sequential () =
  let sweep jobs =
    values
      (fst
         (Harness.Supervisor.run ~jobs Harness.Run.exec
            (Array.of_list (sweep_plans ()))))
  in
  let seq = sweep 1 and par = sweep 3 in
  check Alcotest.int "same number of cells" (Array.length seq) (Array.length par);
  check Alcotest.bool "forked results identical to sequential" true (seq = par)

let test_parallel_isolates_failures () =
  let cells, _ =
    Harness.Supervisor.run ~jobs:2
      (fun i -> if i = 2 then failwith "cell exploded" else i * 10)
      [| 0; 1; 2; 3 |]
  in
  check Alcotest.bool "good cells survive a bad one" true
    (values cells = [| Some 0; Some 10; None; Some 30 |])

(* ----------------------------------------------------------------- *)
(* Contention (§5): BC stays flat, the baseline page-storms           *)

let test_contention_bc_flat () =
  match Harness.Run.exec_all (pair_plan "BC") with
  | [ Metrics.Completed bc; Metrics.Completed genms ] ->
      check Alcotest.bool "BC's collections stay virtually fault-free" true
        (bc.Metrics.gc_major_faults <= 5);
      check Alcotest.bool "the competing GenMS instance pages" true
        (genms.Metrics.major_faults > 0);
      check Alcotest.bool "BC keeps p95 pause below the paging baseline" true
        (bc.Metrics.p95_pause_ms < genms.Metrics.p95_pause_ms)
  | _ -> Alcotest.fail "contended pair did not complete"

let test_solo_vs_contended () =
  let solo =
    completed
      (Harness.Run.exec
         (Plan.make ~collector:"GenMS" ~spec:mini_spec ~heap_bytes
         |> Plan.with_frames contended_frames))
  in
  match Harness.Run.exec_all (pair_plan "GenMS" ~coworker:"GenMS") with
  | [ Metrics.Completed contended; Metrics.Completed _ ] ->
      (* the same frame count is comfortable solo and brutal shared *)
      check Alcotest.int "no paging solo" 0 solo.Metrics.major_faults;
      check Alcotest.bool "paging under contention" true
        (contended.Metrics.major_faults > 0);
      check Alcotest.bool "contention costs real time" true
        (contended.Metrics.elapsed_ns > solo.Metrics.elapsed_ns)
  | _ -> Alcotest.fail "contended pair did not complete"

(* ----------------------------------------------------------------- *)
(* Scheduling policies                                                *)

let test_priority_shields_primary () =
  let rr = List.map completed (Harness.Run.exec_all (pair_plan "BC")) in
  let prio =
    List.map completed
      (Harness.Run.exec_all
         (pair_plan "BC" |> Plan.with_priority 1
         |> Plan.with_policy Machine.Priority))
  in
  match (rr, prio) with
  | [ rr_bc; _ ], [ prio_bc; _ ] ->
      check Alcotest.bool "priority finishes the primary faster" true
        (prio_bc.Metrics.elapsed_ns < rr_bc.Metrics.elapsed_ns)
  | _ -> Alcotest.fail "unexpected process count"

let test_proportional_share_skews () =
  let shares share =
    match
      List.map completed
        (Harness.Run.exec_all
           (pair_plan "BC" ~coworker:"BC"
           |> Plan.with_share share
           |> Plan.with_policy Machine.Proportional))
    with
    | [ a; b ] -> (a.Metrics.elapsed_ns, b.Metrics.elapsed_ns)
    | _ -> Alcotest.fail "unexpected process count"
  in
  let a4, b4 = shares 4 in
  (* identical workloads: 4 slices per round vs 1 must finish the primary
     well before its twin *)
  check Alcotest.bool "4:1 share finishes the primary first" true (a4 < b4)

(* ----------------------------------------------------------------- *)
(* Per-process accounting                                             *)

let test_residency_attribution () =
  let machine = Machine.create ~frames:(4 * heap_pages) () in
  let spawn name =
    let p = Machine.spawn machine ~name ~heap_bytes in
    ignore (Harness.Registry.instantiate_name ~name:"BC" p);
    Machine.load p (Workload.Catalog.Batch_spec mini_spec);
    p
  in
  let pa = spawn "jvm-a" and pb = spawn "jvm-b" in
  Machine.run machine;
  let vmm = Machine.vmm machine in
  List.iter
    (fun p ->
      let vp = Machine.vm_process p in
      check Alcotest.int
        (Machine.name p ^ " residency gauge matches the frame table")
        (Vmsim.Vmm.count_resident_owned vmm vp)
        (Vmsim.Process.stats vp).Vmsim.Vm_stats.resident_pages)
    [ pa; pb ];
  let gauges =
    List.fold_left
      (fun acc p ->
        acc
        + (Vmsim.Process.stats (Machine.vm_process p))
            .Vmsim.Vm_stats.resident_pages)
      0 [ pa; pb ]
  in
  check Alcotest.int "process gauges sum to the VMM's count"
    (Vmsim.Vmm.resident_count vmm) gauges

let test_per_process_metrics_windows () =
  match Harness.Run.exec_all (pair_plan "BC" ~frames:(4 * heap_pages)) with
  | [ Metrics.Completed a; Metrics.Completed b ] ->
      check Alcotest.bool "both windows measured" true
        (a.Metrics.elapsed_ns > 0 && b.Metrics.elapsed_ns > 0);
      check Alcotest.bool "each process reports its own allocation" true
        (a.Metrics.allocated_bytes >= 1_000_000
        && b.Metrics.allocated_bytes >= 1_000_000);
      check Alcotest.string "primary keeps its collector" "BC"
        a.Metrics.collector;
      check Alcotest.string "coworker keeps its collector" "GenMS"
        b.Metrics.collector
  | _ -> Alcotest.fail "pair did not complete"

let test_proc_progress_tagging () =
  let traced plan =
    let sink = Telemetry.Sink.create () in
    ignore (Harness.Run.exec_all (plan |> Plan.with_trace sink));
    Telemetry.Sink.count sink Telemetry.Event.Proc_progress
  in
  let single =
    traced (Plan.make ~collector:"BC" ~spec:mini_spec ~heap_bytes)
  in
  let pair = traced (pair_plan "BC" ~frames:(4 * heap_pages)) in
  (* single-process traces are unchanged by the multi-process machinery *)
  check Alcotest.int "no per-process counters on a solo machine" 0 single;
  check Alcotest.bool "multi-process runs tag per-process progress" true
    (pair > 0)

let () =
  Alcotest.run "multiproc"
    [
      ( "determinism",
        [
          Alcotest.test_case "pair bit-identical" `Quick test_pair_deterministic;
          Alcotest.test_case "policies repeatable" `Quick
            test_policies_deterministic;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "forked = sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "failure isolation" `Quick
            test_parallel_isolates_failures;
        ] );
      ( "contention",
        [
          Alcotest.test_case "BC stays flat" `Quick test_contention_bc_flat;
          Alcotest.test_case "solo vs contended" `Quick test_solo_vs_contended;
        ] );
      ( "policies",
        [
          Alcotest.test_case "priority shields primary" `Quick
            test_priority_shields_primary;
          Alcotest.test_case "proportional share skews" `Quick
            test_proportional_share_skews;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "residency attribution" `Quick
            test_residency_attribution;
          Alcotest.test_case "per-process windows" `Quick
            test_per_process_metrics_windows;
          Alcotest.test_case "proc-progress tagging" `Quick
            test_proc_progress_tagging;
        ] );
    ]
