(* Supervised campaigns: plan digests, the work-queue supervisor's
   failure attribution (crash / exit / raise / hang), retry and chaos
   recovery, crash-safe journals (torn tails, mid-file corruption,
   digest mismatches) and byte-identical resumed reports — including a
   resume after the campaign parent itself is SIGKILLed. *)

module Campaign = Harness.Campaign
module Supervisor = Harness.Supervisor
module Metrics = Harness.Metrics
module Plan = Harness.Run.Plan
module Json = Telemetry.Json

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_path () =
  let p = Filename.temp_file "bcgc-test-campaign" ".journal" in
  Sys.remove p;
  p

(* ----------------------------------------------------------------- *)
(* Plan digests                                                       *)

let spec = Workload.Benchmarks.jess
let mk () = Plan.make ~collector:"BC" ~spec ~heap_bytes:2_000_000

let test_digest_stable () =
  check Alcotest.string "same plan, same digest" (Plan.digest (mk ()))
    (Plan.digest (mk ()));
  check Alcotest.bool "canonical text is non-trivial" true
    (String.length (Plan.canonical (mk ())) > 40)

let test_digest_sensitive () =
  let base = Plan.digest (mk ()) in
  let differs what plan =
    check Alcotest.bool (what ^ " changes the digest") true
      (Plan.digest plan <> base)
  in
  differs "heap size"
    (Plan.make ~collector:"BC" ~spec ~heap_bytes:2_000_001);
  differs "collector" (Plan.make ~collector:"GenMS" ~spec ~heap_bytes:2_000_000);
  differs "frames" (mk () |> Plan.with_frames 900);
  differs "iterations" (mk () |> Plan.with_iterations 2);
  differs "pressure"
    (mk ()
    |> Plan.with_pressure
         (Workload.Pressure.Steady { after_progress = 0.1; pin_pages = 100 }));
  differs "event cap" (mk () |> Plan.with_event_cap 1_000_000);
  (match Faults.Fault_plan.spec_of_string "drop-evict=0.3" with
  | Ok fp -> differs "fault plan" (mk () |> Plan.with_faults fp)
  | Error e -> Alcotest.fail e)

let test_digest_ignores_trace () =
  check Alcotest.string "a trace sink does not change the cell identity"
    (Plan.digest (mk ()))
    (Plan.digest (mk () |> Plan.with_trace (Telemetry.Sink.create ())))

(* ----------------------------------------------------------------- *)
(* Supervisor failure attribution                                     *)

(* A quarantined cell as every sweep and campaign report prints it: the
   failed outcome's exception name and reason. *)
let quarantined = function
  | Supervisor.Quarantined { failures; _ } -> (
      match Supervisor.failed_outcome failures with
      | Metrics.Failed f -> (f.Metrics.exn_name, f.Metrics.reason)
      | _ -> Alcotest.fail "a quarantined cell must read as failed")
  | Supervisor.Done _ -> Alcotest.fail "expected a quarantined cell"

let test_crash_attribution () =
  (* the worker running item 2 SIGKILLs itself mid-cell; every other
     cell must come back intact, and the loss must name the victim *)
  let f x =
    if x = 2 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    x * 10
  in
  let cells, stats = Supervisor.run ~jobs:2 f [| 0; 1; 2; 3 |] in
  Array.iteri
    (fun i c ->
      match c with
      | Supervisor.Done { value; _ } ->
          check Alcotest.int "streamed results kept" (i * 10) value
      | Supervisor.Quarantined _ ->
          let name, reason = quarantined c in
          check Alcotest.int "only the in-flight cell is charged" 2 i;
          check Alcotest.string "named by how the worker was lost"
            "Supervisor.Crashed" name;
          check Alcotest.bool "reason names the signal" true
            (contains reason "SIGKILL"))
    cells;
  check Alcotest.bool "a worker loss was recorded" true
    (stats.Supervisor.workers_lost >= 1)

let test_exit_code_attribution () =
  let f x = if x = 1 then Unix._exit 9 else x in
  let cells, _ = Supervisor.run ~jobs:2 f [| 0; 1; 2 |] in
  check Alcotest.bool "exit status lands in the failure reason" true
    (contains (snd (quarantined cells.(1))) "exited with code 9")

let test_raise_carries_backtrace () =
  let f x = if x = 1 then failwith "boom-in-worker" else x in
  let cells, _ = Supervisor.run ~jobs:2 f [| 0; 1 |] in
  let name, reason = quarantined cells.(1) in
  check Alcotest.bool "raised exception message survives the pipe" true
    (contains reason "boom-in-worker");
  check Alcotest.bool "constructor name survives too" true
    (contains reason "Failure");
  check Alcotest.string "and names the failed outcome" "Failure" name

(* A worker stuck in SIGSTOP must not stall the supervisor past the
   configured deadline. *)
let test_sigstop_bounded_by_deadline () =
  let f x =
    if x = 1 then Unix.kill (Unix.getpid ()) Sys.sigstop;
    x + 100
  in
  let t0 = Unix.gettimeofday () in
  let cells, _ = Supervisor.run ~jobs:2 ~deadline_s:1.0 f [| 0; 1; 2 |] in
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "returned well before a hang would" true (elapsed < 20.);
  match cells with
  | [|
   Supervisor.Done { value = 100; _ };
   stopped;
   Supervisor.Done { value = 102; _ };
  |] ->
      let name, reason = quarantined stopped in
      check Alcotest.string "named a hang" "Supervisor.Hung" name;
      check Alcotest.bool "stalled cell reports the deadline" true
        (contains reason "deadline")
  | _ -> Alcotest.fail "expected exactly the stopped cell to fail"

let test_retry_recovers () =
  let marker = Filename.temp_file "bcgc-test-retry" ".marker" in
  Sys.remove marker;
  let f x =
    if x = 1 && not (Sys.file_exists marker) then begin
      let oc = open_out marker in
      close_out oc;
      Unix._exit 7
    end;
    x * 10
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      let cells, stats =
        Supervisor.run ~jobs:2 ~attempts:2 ~backoff_s:0.01 f [| 0; 1; 2 |]
      in
      (match cells.(1) with
      | Supervisor.Done { value; attempts; _ } ->
          check Alcotest.int "second attempt produced the value" 10 value;
          check Alcotest.int "and was charged as attempt 2" 2 attempts
      | Supervisor.Quarantined _ ->
          Alcotest.fail "cell should recover on retry");
      check Alcotest.bool "retry was counted" true
        (stats.Supervisor.retried >= 1))

(* ----------------------------------------------------------------- *)
(* Campaigns                                                          *)

let tiny ?(volume = 0.01) ?(collectors = [ "BC"; "GenMS" ])
    ?(mults = [ 2.0; 3.0 ]) ?event_cap ~journal () =
  {
    Campaign.name = "tiny";
    collectors;
    workloads = [ "_202_jess" ];
    volume;
    heap_multipliers = mults;
    fault_plans = [ "none" ];
    pressures = [ "none" ];
    controllers = [ "off" ];
    fault_seed = Harness.Run.default_fault_seed;
    iterations = 1;
    frames_fraction = None;
    deadline_s = Some 60.;
    event_cap;
    retry = { Campaign.attempts = 2; backoff_s = 0.05 };
    journal;
  }

let run_ok ?jobs ?chaos ?stop_after ?resume t =
  match Campaign.run ?jobs ?chaos ?stop_after ?resume t with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let complete_report = function
  | Campaign.Complete { report_path; _ } -> read_file report_path
  | Campaign.Interrupted _ -> Alcotest.fail "campaign did not complete"

(* One uninterrupted reference run, reused by the identity tests. *)
let reference_report =
  lazy
    (let j = fresh_path () in
     complete_report (run_ok ~jobs:2 (tiny ~journal:j ())))

let test_run_and_report () =
  let j = fresh_path () in
  let t = tiny ~journal:j () in
  (match run_ok ~jobs:2 t with
  | Campaign.Complete { report_path; summary } ->
      check Alcotest.int "all four cells ran" 4 summary.Campaign.total;
      check Alcotest.int "all completed ok" 4 summary.Campaign.ok;
      let report = Json.of_string_opt (read_file report_path) in
      (match report with
      | None -> Alcotest.fail "report is not valid JSON"
      | Some r ->
          check Alcotest.bool "report carries the campaign digest" true
            (Option.bind (Json.member "campaign_digest" r) Json.str_opt
            = Some (Campaign.campaign_digest t));
          let cells =
            Option.bind (Json.member "cells" r) Json.to_list_opt
          in
          check Alcotest.int "one report record per cell" 4
            (List.length (Option.value cells ~default:[])))
  | Campaign.Interrupted _ -> Alcotest.fail "unexpected interruption");
  match
    Campaign.Journal.load ~path:j
      ~expect_digest:(Campaign.campaign_digest t)
  with
  | Ok (entries, dropped) ->
      check Alcotest.int "journal holds every cell" 4 (List.length entries);
      check Alcotest.int "nothing was torn" 0 dropped
  | Error e -> Alcotest.fail e

let test_refuses_existing_journal () =
  let j = fresh_path () in
  let t = tiny ~journal:j () in
  ignore (run_ok ~jobs:2 t);
  match Campaign.run ~jobs:2 t with
  | Error e ->
      check Alcotest.bool "points at --resume" true (contains e "resume")
  | Ok _ -> Alcotest.fail "must refuse to overwrite a journal"

let test_resume_byte_identical () =
  let j = fresh_path () in
  let t = tiny ~journal:j () in
  (match run_ok ~jobs:2 ~stop_after:1 t with
  | Campaign.Interrupted { completed; total } ->
      check Alcotest.int "stopped after one cell" 1 completed;
      check Alcotest.int "out of four" 4 total
  | Campaign.Complete _ -> Alcotest.fail "stop_after must interrupt");
  let report = complete_report (run_ok ~jobs:2 ~resume:true t) in
  check Alcotest.string "resumed report is byte-identical"
    (Lazy.force reference_report) report

let test_torn_tail_tolerated () =
  let j = fresh_path () in
  let t = tiny ~journal:j () in
  ignore (run_ok ~jobs:1 ~stop_after:1 t);
  (* simulate a crash mid-append: garbage with no trailing newline *)
  let oc = open_out_gen [ Open_append ] 0o644 j in
  output_string oc "{\"cell\":\"zzz";
  close_out oc;
  (match
     Campaign.Journal.load ~path:j
       ~expect_digest:(Campaign.campaign_digest t)
   with
  | Ok (entries, dropped) ->
      check Alcotest.int "good records kept" 1 (List.length entries);
      check Alcotest.int "exactly the torn tail dropped" 1 dropped
  | Error e -> Alcotest.fail e);
  let report = complete_report (run_ok ~jobs:2 ~resume:true t) in
  check Alcotest.string "report unaffected by the torn record"
    (Lazy.force reference_report) report;
  (* and the resumed journal must be clean again end to end *)
  match
    Campaign.Journal.load ~path:j
      ~expect_digest:(Campaign.campaign_digest t)
  with
  | Ok (entries, dropped) ->
      check Alcotest.int "torn bytes were excised before appending" 0 dropped;
      check Alcotest.int "full journal" 4 (List.length entries)
  | Error e -> Alcotest.fail e

let test_midfile_corruption_fatal () =
  let j = fresh_path () in
  let t = tiny ~journal:j () in
  ignore (run_ok ~jobs:2 t);
  (match String.split_on_char '\n' (read_file j) with
  | header :: rest ->
      let oc = open_out j in
      output_string oc (header ^ "\ngarbage not json\n");
      output_string oc (String.concat "\n" rest);
      close_out oc
  | [] -> Alcotest.fail "empty journal");
  match
    Campaign.Journal.load ~path:j
      ~expect_digest:(Campaign.campaign_digest t)
  with
  | Error e ->
      check Alcotest.bool "mid-file corruption is fatal" true
        (contains e "corrupt")
  | Ok _ -> Alcotest.fail "corruption anywhere but the tail must be fatal"

let test_digest_mismatch_refused () =
  let j = fresh_path () in
  ignore (run_ok ~jobs:2 ~stop_after:1 (tiny ~journal:j ()));
  let other = tiny ~mults:[ 4.0; 5.0 ] ~journal:j () in
  match Campaign.run ~jobs:2 ~resume:true other with
  | Error e ->
      check Alcotest.bool "names the spec mismatch" true
        (contains e "different campaign")
  | Ok _ -> Alcotest.fail "must refuse a journal from another spec"

let test_chaos_recovery_identical () =
  let j = fresh_path () in
  let chaos =
    { Supervisor.chaos_seed = 5; kill_prob = 1.0; max_kills = 3 }
  in
  match run_ok ~jobs:3 ~chaos (tiny ~journal:j ()) with
  | Campaign.Complete { report_path; summary } ->
      check Alcotest.int "chaos killed the budgeted workers" 3
        summary.Campaign.chaos_kills;
      check Alcotest.string "chaotic report identical to calm one"
        (Lazy.force reference_report)
        (read_file report_path)
  | Campaign.Interrupted _ -> Alcotest.fail "chaos must not abort"

let test_event_cap_quarantines_cell () =
  (* direct: the machine raises once the virtual-event budget is blown *)
  (match
     Harness.Run.exec
       (Plan.make ~collector:"BC" ~spec ~heap_bytes:2_000_000
       |> Plan.with_event_cap 10)
   with
  | Metrics.Failed f ->
      check Alcotest.bool "failure names the budget" true
        (contains f.Metrics.reason "virtual-event budget")
  | _ -> Alcotest.fail "a 10-event cap must fail the run");
  (* and through a campaign: the cell is recorded failed, not fatal *)
  let j = fresh_path () in
  let t =
    tiny ~collectors:[ "BC" ] ~mults:[ 2.0 ] ~event_cap:10 ~journal:j ()
  in
  match run_ok ~jobs:1 t with
  | Campaign.Complete { summary; _ } ->
      check Alcotest.int "cell failed" 1 summary.Campaign.failed;
      check Alcotest.int "campaign still completed" 1 summary.Campaign.total
  | Campaign.Interrupted _ -> Alcotest.fail "expected completion"

(* Satellite: SIGKILL the campaign parent itself mid-run, then resume —
   the journal must carry everything finished and the consolidated
   report must come out byte-identical. *)
let test_parent_sigkill_then_resume () =
  let j = fresh_path () in
  (* a little more work per cell so the kill lands mid-campaign *)
  let t = tiny ~volume:0.05 ~journal:j () in
  let reference =
    let j0 = fresh_path () in
    complete_report (run_ok ~jobs:2 (tiny ~volume:0.05 ~journal:j0 ()))
  in
  (match Unix.fork () with
  | 0 ->
      (try ignore (Campaign.run ~jobs:1 t) with _ -> ());
      Unix._exit 0
  | pid ->
      let deadline = Unix.gettimeofday () +. 30. in
      let journaled_records () =
        match read_file j with
        | content ->
            String.fold_left
              (fun n c -> if c = '\n' then n + 1 else n)
              0 content
        | exception Sys_error _ -> 0
      in
      let rec wait () =
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "journal never accumulated a record"
        end
        else if journaled_records () >= 2 then ()
        else begin
          ignore (Unix.select [] [] [] 0.005);
          wait ()
        end
      in
      wait ();
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid));
  let report = complete_report (run_ok ~jobs:2 ~resume:true t) in
  check Alcotest.string "post-SIGKILL resume is byte-identical" reference
    report

(* ----------------------------------------------------------------- *)
(* Spec parsing                                                       *)

let example_spec_path () =
  (* dune runtest runs in test/, dune exec in the project root *)
  List.find Sys.file_exists
    [ "../examples/campaign_smoke.json"; "examples/campaign_smoke.json" ]

let test_example_spec_parses () =
  match Campaign.of_file (example_spec_path ()) with
  | Ok t ->
      check Alcotest.int "smoke spec enumerates 8 cells" 8
        (List.length (Campaign.cells t));
      check Alcotest.int "retry policy read" 2 t.Campaign.retry.Campaign.attempts
  | Error e -> Alcotest.fail e

let spec_json overrides =
  let base =
    [
      ("schema", Json.Str Campaign.schema_version);
      ("name", Json.Str "t");
      ("collectors", Json.List [ Json.Str "BC" ]);
      ("workloads", Json.List [ Json.Str "_202_jess" ]);
      ("heap_multipliers", Json.List [ Json.Num 2.0 ]);
      ("journal", Json.Str "/tmp/t.journal");
    ]
  in
  Json.Obj
    (List.map
       (fun (k, v) ->
         match List.assoc_opt k overrides with
         | Some v' -> (k, v')
         | None -> (k, v))
       base
    @ List.filter (fun (k, _) -> not (List.mem_assoc k base)) overrides)

let rejects what overrides needle =
  match Campaign.of_json (spec_json overrides) with
  | Error e ->
      check Alcotest.bool (what ^ ": error mentions the cause") true
        (contains e needle)
  | Ok _ -> Alcotest.fail (what ^ ": spec should have been rejected")

let test_spec_validation () =
  (match Campaign.of_json (spec_json []) with
  | Ok t ->
      check Alcotest.bool "defaults fill in" true
        (t.Campaign.fault_plans = [ "none" ] && t.Campaign.iterations = 1)
  | Error e -> Alcotest.fail e);
  rejects "unknown collector"
    [ ("collectors", Json.List [ Json.Str "NoSuchGC" ]) ]
    "unknown collector";
  rejects "unknown workload"
    [ ("workloads", Json.List [ Json.Str "nope" ]) ]
    "unknown workload";
  rejects "duplicate entry"
    [ ("collectors", Json.List [ Json.Str "BC"; Json.Str "BC" ]) ]
    "duplicate";
  rejects "unknown field" [ ("typo_field", Json.Num 1.0) ] "unknown field";
  rejects "bad pressure"
    [ ("pressures", Json.List [ Json.Str "steady:banana" ]) ]
    "bad pressure";
  rejects "bad fault plan"
    [ ("fault_plans", Json.List [ Json.Str "no-such-fault=1" ]) ]
    "fault";
  rejects "wrong schema" [ ("schema", Json.Str "v999") ] "schema"

let test_pressure_grammar () =
  (match Campaign.pressure_of_string "steady:300" with
  | Ok (Workload.Pressure.Steady { after_progress; pin_pages }) ->
      check Alcotest.int "pages" 300 pin_pages;
      check (Alcotest.float 1e-9) "default engage point" 0.1 after_progress
  | _ -> Alcotest.fail "steady:300 should parse");
  (match Campaign.pressure_of_string "steady:300@0.5" with
  | Ok (Workload.Pressure.Steady { after_progress; _ }) ->
      check (Alcotest.float 1e-9) "explicit engage point" 0.5 after_progress
  | _ -> Alcotest.fail "steady:300@0.5 should parse");
  (match Campaign.pressure_of_string "ramp:100:50:10:800" with
  | Ok (Workload.Pressure.Ramp { initial_pages; step_ns; _ }) ->
      check Alcotest.int "initial" 100 initial_pages;
      check Alcotest.int "step_ns from ms" 10_000_000 step_ns
  | _ -> Alcotest.fail "ramp should parse");
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Campaign.pressure_of_string "steady:banana"));
  check Alcotest.bool "unknown kind rejected" true
    (Result.is_error (Campaign.pressure_of_string "sawtooth:1:2"))

(* ----------------------------------------------------------------- *)
(* Serving workloads in the campaign grammar                          *)

let test_serving_spec_cells () =
  match
    Campaign.of_json
      (spec_json
         [
           ( "workloads",
             Json.List [ Json.Str "srv_fixed"; Json.Str "srv_flash@fixed:800" ]
           );
         ])
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let cells = Campaign.cells t in
      check Alcotest.int "1 collector x 2 workloads x 1 mult" 2
        (List.length cells);
      List.iter
        (fun c ->
          check Alcotest.bool "serving cell canonical is marked" true
            (contains (Plan.canonical c.Campaign.plan) "serving:"))
        cells;
      check Alcotest.bool "@fixed:800 override lands in the canonical" true
        (List.exists
           (fun c -> contains (Plan.canonical c.Campaign.plan) "fixed:800")
           cells)

let test_serving_spec_rejections () =
  rejects "bad shape argument"
    [ ("workloads", Json.List [ Json.Str "srv_flash@fixed:banana" ]) ]
    "bad number";
  rejects "shape override on a batch workload"
    [ ("workloads", Json.List [ Json.Str "_202_jess@fixed:800" ]) ]
    "no @SHAPE";
  rejects "unknown name keeps naming the catalog"
    [ ("workloads", Json.List [ Json.Str "srv_nope@fixed:800" ]) ]
    "unknown workload"

let test_serving_digests () =
  let digest_of w =
    match
      Campaign.of_json (spec_json [ ("workloads", Json.List [ Json.Str w ]) ])
    with
    | Error e -> Alcotest.fail e
    | Ok t -> (
        match Campaign.cells t with
        | [ c ] -> c.Campaign.digest
        | _ -> Alcotest.fail "expected exactly one cell")
  in
  check Alcotest.string "serving digests are stable across enumerations"
    (digest_of "srv_flash") (digest_of "srv_flash");
  check Alcotest.bool "a shape override changes the cell digest" true
    (digest_of "srv_flash" <> digest_of "srv_flash@fixed:800");
  check Alcotest.bool "different shapes, different digests" true
    (digest_of "srv_flash@fixed:800" <> digest_of "srv_flash@fixed:900");
  (* batch canonicals are untouched by the serving extension *)
  check Alcotest.bool "batch canonical carries no serving marker" true
    (not (contains (Plan.canonical (mk ())) "serving:"))

(* ----------------------------------------------------------------- *)
(* Controllers in the campaign grammar                                *)

let test_controller_spec_cells () =
  (match Campaign.of_json (spec_json []) with
  | Ok t ->
      check
        Alcotest.(list string)
        "controllers default to off"
        [ "off" ] t.Campaign.controllers
  | Error e -> Alcotest.fail e);
  match
    Campaign.of_json
      (spec_json
         [ ("controllers", Json.List [ Json.Str "off"; Json.Str "threshold" ]) ])
  with
  | Error e -> Alcotest.fail e
  | Ok t -> (
      match Campaign.cells t with
      | [ off_cell; ctl_cell ] ->
          check Alcotest.bool "off cell keeps the historical canonical" true
            (not (contains (Plan.canonical off_cell.Campaign.plan) "controller="));
          check Alcotest.bool "off cell keeps the historical label" true
            (not (contains off_cell.Campaign.label "ctl="));
          check Alcotest.bool "controller lands in the canonical" true
            (contains
               (Plan.canonical ctl_cell.Campaign.plan)
               "controller=threshold");
          check Alcotest.bool "controller lands in the label" true
            (contains ctl_cell.Campaign.label "ctl=threshold");
          check Alcotest.bool "controller changes the cell digest" true
            (off_cell.Campaign.digest <> ctl_cell.Campaign.digest)
      | cs ->
          Alcotest.failf "expected 2 cells (off + threshold), got %d"
            (List.length cs))

let test_controller_spec_rejections () =
  rejects "unknown controller"
    [ ("controllers", Json.List [ Json.Str "nope" ]) ]
    "unknown controller";
  rejects "duplicate controller"
    [ ("controllers", Json.List [ Json.Str "off"; Json.Str "off" ]) ]
    "duplicate";
  rejects "empty controller list"
    [ ("controllers", Json.List []) ]
    "must not be empty"

let () =
  Alcotest.run "campaign"
    [
      ( "digest",
        [
          Alcotest.test_case "stable" `Quick test_digest_stable;
          Alcotest.test_case "sensitive" `Quick test_digest_sensitive;
          Alcotest.test_case "trace-invariant" `Quick
            test_digest_ignores_trace;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "crash attribution" `Quick
            test_crash_attribution;
          Alcotest.test_case "exit-code attribution" `Quick
            test_exit_code_attribution;
          Alcotest.test_case "raise carries backtrace" `Quick
            test_raise_carries_backtrace;
          Alcotest.test_case "sigstop bounded by deadline" `Quick
            test_sigstop_bounded_by_deadline;
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "run and report" `Quick test_run_and_report;
          Alcotest.test_case "refuses existing journal" `Quick
            test_refuses_existing_journal;
          Alcotest.test_case "resume byte-identical" `Quick
            test_resume_byte_identical;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_torn_tail_tolerated;
          Alcotest.test_case "mid-file corruption fatal" `Quick
            test_midfile_corruption_fatal;
          Alcotest.test_case "digest mismatch refused" `Quick
            test_digest_mismatch_refused;
          Alcotest.test_case "chaos recovery identical" `Quick
            test_chaos_recovery_identical;
          Alcotest.test_case "event cap quarantines cell" `Quick
            test_event_cap_quarantines_cell;
          Alcotest.test_case "parent sigkill then resume" `Quick
            test_parent_sigkill_then_resume;
        ] );
      ( "spec",
        [
          Alcotest.test_case "example parses" `Quick test_example_spec_parses;
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "pressure grammar" `Quick test_pressure_grammar;
          Alcotest.test_case "serving cells build" `Quick
            test_serving_spec_cells;
          Alcotest.test_case "serving rejections" `Quick
            test_serving_spec_rejections;
          Alcotest.test_case "serving digests" `Quick test_serving_digests;
          Alcotest.test_case "controller cells build" `Quick
            test_controller_spec_cells;
          Alcotest.test_case "controller rejections" `Quick
            test_controller_spec_rejections;
        ] );
    ]
