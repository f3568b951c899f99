(* Host-time benchmark of the simulator, one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run is a fixed number of rounds, each in a fresh process forked from
   this one, which prepares nothing itself. A round sets up — the cell
   list, the plans and an untimed warm-up pass — and times that from the
   fork. It then executes every cell in the seed's order, each in its own
   process forked from the warmed-up round, timing the [Run.exec] call
   with a monotonic clock and checking the cell's Metrics JSON. The sweep
   instead times one [Campaign.run] on the domain pool. Host times are
   scaled to a quiet machine by reference passes timed around them
   ([Reference]). Untraced (--trace 0) runs report the end-to-end
   metrics; traced (--trace 1) runs alternate untraced rounds with rounds
   that rebuild each cell through the Machine API with layer spans, and
   report per-layer self times and counts. The last stdout line is the result object; the line before it
   is a report with the machine fingerprint and each host-time metric's
   within-run quartiles and sample count. See METRICS.md. *)

open Perfbench_core
module Run = Harness.Run
module Campaign = Harness.Campaign
module Metrics = Harness.Metrics
module Json = Telemetry.Json

let now_ns = Traced.now_ns

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* A reported metric: its value, unit and, for host-time metrics, the
   samples it summarises (for the within-run quartiles) and the number
   of cell executions behind them. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : float list;
  executions : int;
}

let metric ?(samples = []) ?(executions = 0) name unit_ value =
  { name; value; unit_; samples; executions }

let metric_detail m =
  let base = [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] in
  let base =
    if m.executions > 0 then base @ [ ("executions", Json.int m.executions) ]
    else base
  in
  match m.samples with
  | [] -> Json.Obj base
  | xs ->
      let q1, _, q3 = Stats.quartiles xs in
      Json.Obj
        (base
        @ [
            ("q1", Json.Num q1);
            ("q3", Json.Num q3);
            ("n", Json.int (List.length xs));
          ])

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

(* Cell results are compared by the digest of their outcome JSON after
   one print/parse round trip — the form a campaign report stores — so
   direct and campaign-run cells share one digest format. *)
let outcome_digest o =
  let j = Metrics.outcome_to_json o in
  let j = Option.value (Json.of_string_opt (Json.to_string j)) ~default:j in
  Digest.to_hex (Digest.string (Json.to_string j))

let expected_file = Filename.concat "perfbench" "expected_digests.txt"

(* "workload plan-digest outcome-digest label..." per line. *)
let load_expected ~workload =
  let tbl = Hashtbl.create 64 in
  (match open_in expected_file with
  | exception Sys_error e -> failwith ("cannot read expected digests: " ^ e)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              let line = input_line ic in
              if line <> "" && line.[0] <> '#' then
                match String.split_on_char ' ' line with
                | w :: key :: d :: _ when w = workload -> Hashtbl.replace tbl key d
                | _ -> ()
            done
          with End_of_file -> ()));
  tbl

type checker = {
  expected : (string, string) Hashtbl.t;  (* committed *)
  seen : (string, string) Hashtbl.t;  (* first digest of each cell this run *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let checker ~workload =
  let expected = load_expected ~workload in
  if Hashtbl.length expected = 0 then
    failwith ("no expected digests for " ^ workload ^ " in " ^ expected_file);
  { expected; seen = Hashtbl.create 64; attempted = 0; failed = 0; failures = [] }

(* One checked cell execution. *)
type exec = { key : string; label : string; ok : bool; digest : string; ns : int }

(* A cell execution fails when it does not complete, when it is not in
   the committed list or its digest differs from the committed one, or
   when it differs from the digest this cell gave earlier in the run
   (untraced or traced). *)
let check ck e =
  ck.attempted <- ck.attempted + 1;
  let bad reason =
    ck.failed <- ck.failed + 1;
    if List.length ck.failures < 20 then
      ck.failures <- Printf.sprintf "%s: %s" e.label reason :: ck.failures
  in
  if not e.ok then bad "did not complete"
  else
    match Hashtbl.find_opt ck.expected e.key with
    | None -> bad "not in the committed digest list"
    | Some d when d <> e.digest -> bad "digest differs from the committed one"
    | Some _ -> (
        match Hashtbl.find_opt ck.seen e.key with
        | Some d when d <> e.digest -> bad "digest differs from an earlier execution"
        | Some _ -> ()
        | None -> Hashtbl.replace ck.seen e.key e.digest)

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)

(* Rounds per 10 s of --seconds: about 15 s of rounds, set-up and
   reference passes included, on a loaded 2-vCPU 2.1 GHz Xeon VM, and
   at least 110 cell executions per run (p90 then has at least 11 beyond
   it), which holds `paging` to more rounds than this.
   The count is fixed by --seconds alone, never by elapsed time, so every
   run does the same work. *)
let rounds_per_10s = function
  | Cells.Ample_heap -> 5
  | Cells.Tight_heap -> 14
  | Cells.Paging -> 9
  | Cells.Sweep_domains -> 7

let min_cells = 110

let rounds w ~seconds ~ncells =
  let r =
    int_of_float (Float.round (float_of_int (rounds_per_10s w) *. seconds /. 10.0))
  in
  max (max 1 r) ((min_cells + ncells - 1) / ncells)

(* Cells executed by a round's warm-up pass: the first [warm_cells] of the
   workload's fixed list, some 0.2 s of host time. *)
let warm_cells = function
  | Cells.Ample_heap -> 6
  | Cells.Tight_heap -> 8
  | Cells.Paging -> 2
  | Cells.Sweep_domains -> 20

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

(* [f ()] in a forked child, which reports back over a pipe. Rounds fork
   from this process and cells from their round, so each round starts
   from the same state and each cell from its warmed-up round: state the
   simulator keeps across cells — every BC instance stays reachable from
   [Bc]'s debug registry — never carries from one cell into the next, and
   a cell's host time, allocation and peak memory do not depend on the
   order cells run in. The sweep's domain pool is spawned inside its
   round, so no process that forks ever creates a domain. Results may
   hold closures (a span table's clock), hence [Marshal.Closures]; both
   sides are the same executable. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc r [ Marshal.Closures ];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r : ('a, string) result option =
        try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (r, status) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error e), _ -> failwith e
      | _ -> failwith "child process died without a result"

(* One reference pass in a process of its own: forked like a cell, it
   runs under the same conditions, and it leaves nothing in this
   process's heap for later cells to inherit or for [peak_rss_mb] to
   count. *)
let reference () = in_child (fun () -> Reference.time_ns now_ns)

let s_of_ns n = float_of_int n /. 1e9

type host = { minor_gcs : float; major_gcs : float; promoted_mwords : float }

let host_now () =
  let s = Gc.quick_stat () in
  {
    minor_gcs = float_of_int s.Gc.minor_collections;
    major_gcs = float_of_int s.Gc.major_collections;
    promoted_mwords = s.Gc.promoted_words /. 1e6;
  }

let host_zero = { minor_gcs = 0.0; major_gcs = 0.0; promoted_mwords = 0.0 }

let host_diff a b =
  {
    minor_gcs = b.minor_gcs -. a.minor_gcs;
    major_gcs = b.major_gcs -. a.major_gcs;
    promoted_mwords = b.promoted_mwords -. a.promoted_mwords;
  }

let host_add a b =
  {
    minor_gcs = a.minor_gcs +. b.minor_gcs;
    major_gcs = a.major_gcs +. b.major_gcs;
    promoted_mwords = a.promoted_mwords +. b.promoted_mwords;
  }

let heap_top_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* What one round reports. Host times are scaled to a quiet machine by
   the reference passes around them ([Reference.scale]). *)
type round = {
  ncells : int;
  setup_s : float;  (* from the fork to the first timed cell *)
  execs : exec list;  (* warm-up and timed, in execution order *)
  wall_s : float;
      (* single-process: Σ timed cell executions; sweep: Campaign.run *)
  raw_wall_s : float;  (* the same, unscaled *)
  timings : (string * float) list;
      (* ms by key — single-process: each cell's host time, keyed by
         cell; sweep: the time from the start of Campaign.run until its
         k-th cell completed, keyed by k *)
  reference_ms : float list;  (* the round's reference passes *)
  words : float;  (* host words allocated by the timed calls *)
  rss_mb : float;  (* VmHWM: the largest cell process's, or the sweep's *)
  host : host;
  heap_top_mb : float;
  layers : (string * string * float) list;  (* traced rounds only *)
  extra : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Per-layer totals of a traced round                                  *)

type layers = {
  spans : Spans.t;
  mutable setup_ns : int;
  mutable run_ns : int;
  mutable vm : Traced.vm;
  mutable cell_ns : int;  (* Σ traced cell executions *)
  mutable cells : int;
}

let layers () =
  {
    spans = Traced.create_spans ();
    setup_ns = 0;
    run_ns = 0;
    vm = Traced.vm_zero;
    cell_ns = 0;
    cells = 0;
  }

let add_result l (r : Traced.result) sp ~cell_ns =
  Spans.add_into ~dst:l.spans sp;
  l.setup_ns <- l.setup_ns + r.Traced.setup_ns;
  l.run_ns <- l.run_ns + r.Traced.run_ns;
  l.vm <- Traced.vm_add l.vm r.Traced.vm;
  l.cell_ns <- l.cell_ns + cell_ns;
  l.cells <- l.cells + 1

let layer_values l =
  let sp = l.spans in
  let self k = Spans.self_ns sp k and calls k = Spans.calls sp k in
  let count k = float_of_int (calls k) in
  let allocs =
    calls Traced.k_alloc + calls Traced.k_minor + calls Traced.k_full
    + calls Traced.k_compacting
  in
  let per_alloc ns =
    if allocs = 0 then 0.0 else float_of_int ns /. float_of_int allocs
  in
  let collector_mwords =
    List.fold_left
      (fun acc k -> acc +. Spans.self_words sp k)
      0.0
      Traced.[ k_alloc; k_minor; k_full; k_compacting; k_notice ]
    /. 1e6
  in
  let vm = l.vm in
  let n x = float_of_int x in
  [
    ( "machine.setup_ms",
      "ms",
      float_of_int l.setup_ns /. 1e6 /. float_of_int (max 1 l.cells) );
    ("machine.run_s", "s", s_of_ns l.run_ns);
    ("machine.host_ns_per_alloc", "ns", per_alloc l.run_ns);
    ("collector.alloc_calls", "count", count Traced.k_alloc);
    ("collector.alloc_s", "s", s_of_ns (self Traced.k_alloc));
    ("collector.minor_n", "count", count Traced.k_minor);
    ("collector.minor_s", "s", s_of_ns (self Traced.k_minor));
    ("collector.full_n", "count", count Traced.k_full);
    ("collector.full_s", "s", s_of_ns (self Traced.k_full));
    ("collector.compacting_n", "count", count Traced.k_compacting);
    ("collector.compacting_s", "s", s_of_ns (self Traced.k_compacting));
    ("collector.notice_calls", "count", count Traced.k_notice);
    ("collector.notice_s", "s", s_of_ns (self Traced.k_notice));
    ("collector.host_mwords", "Mwords", collector_mwords);
    ("mutator.self_s", "s", s_of_ns (self Traced.k_mutator));
    ("mutator.ns_per_op", "ns", per_alloc (self Traced.k_mutator));
    ("mutator.host_mwords", "Mwords", Spans.self_words sp Traced.k_mutator /. 1e6);
    ("vmm.minor_faults", "count", n vm.Traced.minor_faults);
    ("vmm.major_faults", "count", n vm.Traced.major_faults);
    ("vmm.evictions", "count", n vm.Traced.evictions);
    ("vmm.notices", "count", n vm.Traced.notices);
    ("vmm.discards", "count", n vm.Traced.discards);
    ("vmm.relinquished", "count", n vm.Traced.relinquished);
    ("vmm.swap_ins", "count", n vm.Traced.swap_ins);
    ("vmm.swap_outs", "count", n vm.Traced.swap_outs);
  ]

(* The span accounting of a round, for the report: self times of all
   kinds sum to the outermost spans (machine set-up plus run), and no
   kind's self time is negative. The shares show where a traced round's
   time went. *)
let accounting l =
  let sum = ref 0 and lowest = ref max_int in
  for k = 0 to Traced.kinds - 1 do
    sum := !sum + Spans.self_ns l.spans k;
    lowest := min !lowest (Spans.self_ns l.spans k)
  done;
  let share k =
    float_of_int (Spans.self_ns l.spans k) /. float_of_int (max 1 !sum)
  in
  [
    ("span_self_sum_s", s_of_ns !sum);
    ("setup_plus_run_s", s_of_ns (l.setup_ns + l.run_ns));
    ("lowest_self_s", s_of_ns !lowest);
    ("setup_share", share Traced.k_setup);
    ("mutator_share", share Traced.k_mutator);
    ("alloc_share", share Traced.k_alloc);
    ("minor_share", share Traced.k_minor);
    ("full_share", share Traced.k_full);
    ("compacting_share", share Traced.k_compacting);
    ("notice_share", share Traced.k_notice);
  ]

(* ------------------------------------------------------------------ *)
(* Single-process workloads                                            *)

type prepared = {
  cells : Cells.cell array;
  plans : Run.Plan.t array;
  keys : string array;
}

let prepare w =
  let cells = Array.of_list (Cells.single_process_cells w) in
  let plans = Array.map Cells.plan cells in
  { cells; plans; keys = Array.map Run.Plan.digest plans }

let exec_of p i ~ns o =
  {
    key = p.keys.(i);
    label = p.cells.(i).Cells.label;
    ok = Traced.completed o;
    digest = outcome_digest o;
    ns;
  }

(* One cell execution, as its process reports it. *)
type cell_run = {
  exec : exec;
  cell_words : float;
  cell_host : host;
  cell_rss_mb : float;
  cell_heap_top_mb : float;
  traced : (Traced.result * Spans.t) option;
}

let run_cell p i ~traced () =
  (* an empty minor heap at the start makes minor + major - promoted
     words exactly what the call allocated *)
  Gc.minor ();
  let host0 = host_now () and w0 = Stats.allocated_words () in
  let t0 = now_ns () in
  let outcome, tr =
    if traced then begin
      let sp = Traced.create_spans () in
      let r = Traced.exec sp p.cells.(i) in
      (r.Traced.outcome, Some (r, sp))
    end
    else (Run.exec p.plans.(i), None)
  in
  let ns = now_ns () - t0 in
  let cell_words = Stats.allocated_words () -. w0 in
  let exec = exec_of p i ~ns outcome in
  {
    exec = (if traced then { exec with label = exec.label ^ " (traced)" } else exec);
    cell_words;
    cell_host = host_diff host0 (host_now ());
    cell_rss_mb = Stats.peak_rss_mb ();
    cell_heap_top_mb = heap_top_mb ();
    traced = tr;
  }

let ms_of_ns x = x /. 1e6

(* Reference passes: [k0] before the set-up (run by the parent just
   before the fork), then [ks]: one before each cell's process is forked
   and one after the last. *)
let single_round w ~seed ~traced ~t0 ~k0 () =
  let p = prepare w in
  let n = Array.length p.cells in
  let warm =
    List.init (min (warm_cells w) n) (fun i -> exec_of p i ~ns:0 (Run.exec p.plans.(i)))
  in
  Gc.compact ();
  let setup_ns = now_ns () - t0 in
  let ks = Array.make (n + 1) 0 in
  let runs =
    Array.to_list
      (Array.mapi
         (fun j i ->
           ks.(j) <- reference ();
           in_child (run_cell p i ~traced))
         (Cells.order ~seed n))
  in
  ks.(n) <- reference ();
  let scaled_ms =
    List.mapi
      (fun j r -> ms_of_ns (Reference.scale ~before:ks.(j) ~after:ks.(j + 1) r.exec.ns))
      runs
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  let max_of f = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 runs in
  let l = layers () in
  List.iter
    (fun r ->
      Option.iter (fun (tr, sp) -> add_result l tr sp ~cell_ns:r.exec.ns) r.traced)
    runs;
  {
    ncells = n;
    setup_s = Reference.scale ~before:k0 ~after:ks.(0) setup_ns /. 1e9;
    execs = warm @ List.map (fun r -> r.exec) runs;
    wall_s = List.fold_left ( +. ) 0.0 scaled_ms /. 1e3;
    raw_wall_s = sum (fun r -> s_of_ns r.exec.ns);
    timings = List.map2 (fun r ms -> (r.exec.key, ms)) runs scaled_ms;
    reference_ms = Array.to_list (Array.map (fun k -> ms_of_ns (float_of_int k)) ks);
    words = sum (fun r -> r.cell_words);
    rss_mb = max_of (fun r -> r.cell_rss_mb);
    host = List.fold_left (fun acc r -> host_add acc r.cell_host) host_zero runs;
    heap_top_mb = max_of (fun r -> r.cell_heap_top_mb);
    layers = (if traced then layer_values l else []);
    extra = (if traced then accounting l else []);
  }

(* ------------------------------------------------------------------ *)
(* The campaign sweep on the domain pool                               *)

let jobs () = max 1 (Domain.recommended_domain_count ())

(* The sweep's journal and report go under the build directory, inside
   the checkout. *)
let scratch_dir =
  let build =
    match Sys.getenv_opt "CARGO_TARGET_DIR" with
    | Some d when d <> "" -> d
    | _ -> ".bench_build"
  in
  Filename.concat build "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let journal_path = Filename.concat scratch_dir "sweep.journal"

let remove_journal () =
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ journal_path; Campaign.report_path ~journal:journal_path ]

type sweep = {
  campaign : Campaign.t;
  ccells : Campaign.cell array;
  bcells : Cells.cell array;  (* the same cells, rebuilt for tracing *)
}

let prepare_sweep () =
  let campaign = Cells.sweep_campaign ~journal:journal_path in
  let ccells = Array.of_list (Campaign.cells campaign) in
  let bcells = Array.of_list (Cells.of_campaign campaign) in
  if Array.length bcells <> Array.length ccells then
    failwith "sweep: rebuilt cell count differs";
  Array.iteri
    (fun i (c : Campaign.cell) ->
      if Run.Plan.digest (Cells.plan bcells.(i)) <> c.Campaign.digest then
        failwith ("sweep: rebuilt plan differs for " ^ c.Campaign.label))
    ccells;
  { campaign; ccells; bcells }

let sweep_exec (c : Campaign.cell) ~ns o =
  {
    key = c.Campaign.digest;
    label = c.Campaign.label;
    ok = Traced.completed o;
    digest = outcome_digest o;
    ns;
  }

(* Every cell of a finished campaign, from its consolidated report. *)
let report_execs () =
  let path = Campaign.report_path ~journal:journal_path in
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let cells =
    match Json.of_string_opt text with
    | Some j ->
        Option.value
          (Option.bind (Json.member "cells" j) Json.to_list_opt)
          ~default:[]
    | None -> failwith ("sweep: unreadable report " ^ path)
  in
  List.map
    (fun c ->
      let str k =
        Option.value (Option.bind (Json.member k c) Json.str_opt) ~default:""
      in
      let outcome_label = str "outcome_label" in
      {
        key = str "cell";
        label = str "label";
        ok = outcome_label = "ok" || outcome_label = "degraded";
        digest =
          Digest.to_hex
            (Digest.string
               (Json.to_string
                  (Option.value (Json.member "outcome" c) ~default:Json.Null)));
        ns = 0;
      })
    cells

(* The campaign on the domain pool: every domain's words, read after the
   pool's domains are joined, and the time until each cell completed. *)
let untraced_sweep s ~jobs =
  mkdir_p scratch_dir;
  remove_journal ();
  ignore (Harness.Domain_pool.get ~jobs);
  let host0 = host_now () in
  let done_ns = ref [] in
  let w0 = Stats.all_domains_allocated_words () in
  let t0 = now_ns () in
  let res =
    Campaign.run ~jobs ~backend:`Domains
      ~log:(fun _ -> done_ns := now_ns () :: !done_ns)
      s.campaign
  in
  let t1 = now_ns () in
  (* a joined domain's counters are folded into the process totals *)
  Harness.Domain_pool.shutdown_global ();
  let w1 = Stats.all_domains_allocated_words () in
  (match res with
  | Ok (Campaign.Complete _) -> ()
  | Ok (Campaign.Interrupted _) -> failwith "sweep: campaign interrupted"
  | Error e -> failwith ("sweep: " ^ e));
  let execs = report_execs () in
  remove_journal ();
  ( execs,
    t1 - t0,
    List.mapi (fun k t -> (string_of_int k, t - t0)) (List.rev !done_ns),
    w1 -. w0,
    host_diff host0 (host_now ()),
    [],
    [] )

(* The same cells through [Supervisor.run] on the domain pool, each
   rebuilt through the Machine API with its own spans and timed by a
   closure around it. *)
let traced_sweep s ~jobs =
  let pool = Harness.Domain_pool.get ~jobs in
  let host0 = host_now () in
  let t0 = now_ns () in
  let results, _ =
    Harness.Supervisor.run ~jobs ~backend:`Domains
      (fun c ->
        let sp = Traced.create_spans () in
        let c0 = now_ns () in
        let r = Traced.exec sp c in
        (r, sp, now_ns () - c0))
      s.bcells
  in
  let wall_ns = now_ns () - t0 in
  let steals = (Harness.Domain_pool.last_stats pool).Harness.Domain_pool.steals in
  let l = layers () in
  let execs =
    Array.to_list
      (Array.mapi
         (fun i cell ->
           let c = s.ccells.(i) in
           let label = c.Campaign.label ^ " (traced)" in
           match cell with
           | Harness.Supervisor.Done { value = r, sp, ns; _ } ->
               add_result l r sp ~cell_ns:ns;
               { (sweep_exec c ~ns r.Traced.outcome) with label }
           | Harness.Supervisor.Quarantined _ ->
               { key = c.Campaign.digest; label; ok = false; digest = ""; ns = 0 })
         results)
  in
  let driver =
    [
      ("driver.cell_s", "s", s_of_ns l.cell_ns);
      ("driver.overhead_s", "s", s_of_ns ((jobs * wall_ns) - l.cell_ns));
      ("driver.steals", "count", float_of_int steals);
    ]
  in
  ( execs,
    wall_ns,
    [],
    0.0,
    host_diff host0 (host_now ()),
    layer_values l @ driver,
    accounting l )

(* Reference passes: [k0] before the set-up (run by the parent just
   before the fork) and [k1] between set-up and campaign. Both scale the
   set-up and the campaign alike: once the campaign has spawned the
   pool's domains this process can no longer fork a pass. *)
let sweep_round ~traced ~t0 ~k0 () =
  let s = prepare_sweep () in
  let warm =
    List.init
      (min (warm_cells Cells.Sweep_domains) (Array.length s.ccells))
      (fun i ->
        let c = s.ccells.(i) in
        sweep_exec c ~ns:0 (Run.exec c.Campaign.plan))
  in
  let setup_ns = now_ns () - t0 in
  let k1 = reference () in
  let jobs = jobs () in
  let execs, wall_ns, timings, words, host, layers, extra =
    (if traced then traced_sweep else untraced_sweep) s ~jobs
  in
  let scale ns = Reference.scale ~before:k0 ~after:k1 ns in
  {
    ncells = Array.length s.ccells;
    setup_s = scale setup_ns /. 1e9;
    execs = warm @ execs;
    wall_s = scale wall_ns /. 1e9;
    raw_wall_s = s_of_ns wall_ns;
    timings = List.map (fun (k, ns) -> (k, ms_of_ns (scale ns))) timings;
    reference_ms = List.map (fun k -> ms_of_ns (float_of_int k)) [ k0; k1 ];
    words;
    rss_mb = Stats.peak_rss_mb ();
    host;
    heap_top_mb = heap_top_mb ();
    layers;
    extra;
  }

(* ------------------------------------------------------------------ *)
(* A whole run                                                         *)

type result = {
  end_to_end : metric list;
  per_layer : metric list;
  detail : (string * Json.t) list;
}

let median_of f xs = Stats.median (List.map f xs)

(* Each timing key's median scaled time over the rounds, in ms: a cell's
   host time (for the sweep, the time until its k-th cell completed).
   Scaling takes out the host's drift, the median the bursts that cover
   some rounds and not others. Over six runs of `ample_heap` at 15 s the
   cell percentiles spread 0.03 this way, 0.21-0.24 as the fastest
   unscaled execution, and 0.07-0.09 as the fastest scaled one: a pass
   that reads slow makes the cell next to it read fast. *)
let median_by_key rounds =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (k, ms) ->
          Hashtbl.replace by_key k
            (ms :: Option.value (Hashtbl.find_opt by_key k) ~default:[]))
        r.timings)
    rounds;
  Hashtbl.fold (fun k xs acc -> (k, Stats.median xs) :: acc) by_key []

(* [per_cell]: the timed calls are single cells, so one pass is the sum
   of the cells' medians; otherwise (the sweep) it is the median round. *)
let end_to_end ~(rounds : round list) ~per_cell ck =
  let cells = List.map snd (median_by_key rounds) in
  let executions = List.fold_left (fun n r -> n + List.length r.timings) 0 rounds in
  let setup = List.map (fun r -> r.setup_s) rounds in
  let walls = List.map (fun r -> r.wall_s) rounds in
  let mwords = List.map (fun r -> r.words /. 1e6) rounds in
  let rss = List.map (fun r -> r.rss_mb) rounds in
  let cell_pct p name =
    metric ~samples:cells ~executions name "ms" (Stats.quantile p cells)
  in
  [
    metric ~samples:setup "setup_s" "s" (Stats.median setup);
    metric ~samples:walls "wall_s" "s"
      (if per_cell then List.fold_left ( +. ) 0.0 cells /. 1e3
       else Stats.median walls);
    cell_pct 0.5 "cell_p50_ms";
    cell_pct 0.9 "cell_p90_ms";
    metric ~samples:rss "peak_rss_mb" "MB" (Stats.median rss);
    metric ~samples:mwords "host_alloc_mwords" "Mwords" (Stats.median mwords);
    metric "ok_share" "share"
      (float_of_int (ck.attempted - ck.failed) /. float_of_int (max 1 ck.attempted));
  ]

(* Per-layer metrics: each value's median over the traced rounds; the
   host runtime's counters come from the untraced rounds. *)
let per_layer ~untraced ~traced =
  let names = match traced with r :: _ -> r.layers | [] -> [] in
  let layer i (name, unit_, _) =
    let vals = List.map (fun r -> let _, _, v = List.nth r.layers i in v) traced in
    metric ~samples:(if unit_ = "count" then [] else vals) name unit_ (Stats.median vals)
  in
  let walls rs = Stats.median (List.map (fun r -> r.wall_s) rs) in
  List.mapi layer names
  @ [
      metric "host.minor_gcs" "count" (median_of (fun r -> r.host.minor_gcs) untraced);
      metric "host.major_gcs" "count" (median_of (fun r -> r.host.major_gcs) untraced);
      metric "host.promoted_mwords" "Mwords"
        (median_of (fun r -> r.host.promoted_mwords) untraced);
      metric "host.heap_top_mb" "MB" (median_of (fun r -> r.heap_top_mb) untraced);
      metric "trace.wall_ratio" "ratio" (walls traced /. walls untraced);
    ]

let repeats = function [] -> true | x :: tl -> List.for_all (( = ) x) tl

let run_workload w ~seed ~seconds ~trace ck =
  let round ~traced =
    let k0 = reference () in
    let t0 = now_ns () in
    let r =
      in_child
        (match w with
        | Cells.Sweep_domains -> sweep_round ~traced ~t0 ~k0
        | _ -> single_round w ~seed ~traced ~t0 ~k0)
    in
    List.iter (check ck) r.execs;
    r
  in
  let first = round ~traced:false in
  let nrounds = rounds w ~seconds ~ncells:first.ncells in
  log "%s: %d cells, %d rounds" (Cells.workload_name w) first.ncells nrounds;
  let num x = Json.Num x in
  if not trace then begin
    let rounds = first :: List.init (nrounds - 1) (fun _ -> round ~traced:false) in
    {
      end_to_end = end_to_end ~rounds ~per_cell:(w <> Cells.Sweep_domains) ck;
      per_layer = [];
      detail =
        [
          ("cells", Json.int first.ncells);
          ("rounds", Json.int nrounds);
          ("host_alloc_repeats", Json.Bool (repeats (List.map (fun r -> r.words) rounds)));
          ("round_wall_s", Json.List (List.map (fun r -> num r.wall_s) rounds));
          ("round_raw_wall_s", Json.List (List.map (fun r -> num r.raw_wall_s) rounds));
          ( "reference_ms",
            let ks = List.concat_map (fun r -> r.reference_ms) rounds in
            let q1, med, q3 = Stats.quartiles ks in
            Json.Obj
              [
                ("nominal", num (Reference.nominal_ns /. 1e6));
                ("median", num med);
                ("q1", num q1);
                ("q3", num q3);
                ("n", Json.int (List.length ks));
              ] );
        ];
    }
  end
  else begin
    (* untraced and traced rounds alternate, half as many of each *)
    let half = max 2 ((nrounds + 1) / 2) in
    let pairs =
      List.init half (fun i ->
          let u = if i = 0 then first else round ~traced:false in
          (u, round ~traced:true))
    in
    let untraced = List.map fst pairs and traced = List.map snd pairs in
    {
      end_to_end = [];
      per_layer = per_layer ~untraced ~traced;
      detail =
        [
          ("cells", Json.int first.ncells);
          ("rounds", Json.int half);
          ( "span_accounting",
            Json.List
              (List.map
                 (fun r -> Json.Obj (List.map (fun (k, v) -> (k, num v)) r.extra))
                 traced) );
        ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Expected digests                                                    *)

(* Execute every cell of every workload once and write the digest list
   the benchmark checks against. *)
let write_expected path =
  let oc = open_out path in
  Printf.fprintf oc
    "# perfbench expected results: workload plan-digest outcome-digest label\n\
     # Regenerate with: main.exe --write-expected %s\n"
    path;
  let line w (e : exec) =
    if not e.ok then failwith ("did not complete: " ^ e.label);
    Printf.fprintf oc "%s %s %s %s\n" (Cells.workload_name w) e.key e.digest e.label
  in
  List.iter
    (fun (_, w) ->
      match w with
      | Cells.Sweep_domains ->
          Array.iter
            (fun (c : Campaign.cell) ->
              line w (sweep_exec c ~ns:0 (Run.exec c.Campaign.plan)))
            (prepare_sweep ()).ccells
      | _ ->
          let p = prepare w in
          Array.iteri (fun i plan -> line w (exec_of p i ~ns:0 (Run.exec plan))) p.plans)
    Cells.workloads;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let fingerprint ~workload ~seed ~seconds ~trace =
  let env k = Json.Str (Option.value (Sys.getenv_opt k) ~default:"") in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.int seed);
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("nproc", Json.int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.Str (Stats.cpu_model ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("word_size", Json.int Sys.word_size);
      ("ocamlrunparam", env "OCAMLRUNPARAM");
      (* set by run.py: compiler configuration, build profile, commit *)
      ("build", env "PERFBENCH_BUILD");
      ("commit", env "PERFBENCH_COMMIT");
    ]

let () =
  let workload = ref "" and seed = ref Cells.default_seed
  and seconds = ref 10.0 and trace = ref 0 and write = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME ample_heap|tight_heap|paging|sweep_domains" );
      ("--seed", Arg.Set_int seed, "N input seed: the order cells run in");
      ( "--seconds",
        Arg.Set_float seconds,
        "S nominal measuring time (sets the round count)" );
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced (per-layer) run");
      ( "--write-expected",
        Arg.Set_string write,
        "FILE write every cell's expected digest" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write <> "" then write_expected !write
  else
    match Cells.workload_of_string !workload with
    | None ->
        log "unknown workload %S (expected one of: %s)" !workload
          (String.concat ", " (List.map fst Cells.workloads));
        exit 2
    | Some w ->
        if !trace <> 0 && !trace <> 1 then begin
          log "--trace must be 0 or 1";
          exit 2
        end;
        let trace = !trace = 1 in
        let ck = checker ~workload:!workload in
        let r = run_workload w ~seed:!seed ~seconds:!seconds ~trace ck in
        let ms = if trace then r.per_layer else r.end_to_end in
        let report =
          [
            ( "fingerprint",
              fingerprint ~workload:!workload ~seed:!seed ~seconds:!seconds
                ~trace );
            ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_detail m)) ms));
            ( "failed_share",
              Json.Num (float_of_int ck.failed /. float_of_int (max 1 ck.attempted)) );
            ("failures", Json.List (List.rev_map (fun s -> Json.Str s) ck.failures));
          ]
          @ r.detail
        in
        print_endline (Json.to_string (Json.Obj [ ("report", Json.Obj report) ]));
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("correct", Json.Bool (ck.failed = 0));
                  ("attempted", Json.int ck.attempted);
                  ("failed", Json.int ck.failed);
                  ( "metrics",
                    Json.Obj
                      (List.map
                         (fun m ->
                           ( m.name,
                             Json.Obj
                               [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ] ))
                         ms) );
                ]))
