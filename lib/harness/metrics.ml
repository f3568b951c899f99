module Gc_stats = Gc_common.Gc_stats
module Json = Telemetry.Json

type t = {
  collector : string;
  workload : string;
  heap_bytes : int;
  elapsed_ns : int;
  gc_ns : int;
  minor : int;
  full : int;
  compacting : int;
  failsafes : int;
  avg_pause_ms : float;
  p50_pause_ms : float;
  p95_pause_ms : float;
  max_pause_ms : float;
  major_faults : int;
  gc_major_faults : int;
  evictions : int;
  discards : int;
  relinquished : int;
  footprint_pages : int;
  resident_peak_pages : int;
  allocated_bytes : int;
  pauses : (int * int) list;
  faults : Faults.Fault_plan.stats option;
  serving : Workload.Slo.summary option;
  control : Control.Controller.summary option;
}

type failure = {
  reason : string;
  exn_name : string;
  fault_stats : Faults.Fault_plan.stats option;
  partial : t option;
}

type outcome =
  | Completed of t
  | Exhausted of string
  | Thrashed of string
  | Failed of failure

let elapsed_s t = Vmsim.Clock.ns_to_s t.elapsed_ns

(* The measured window's counters are read once, here, when it closes:
   [Machine.reset_window] zeroed them when it opened. *)
let of_run ?faults ?serving ?control ~collector ~workload ~start_ns ~end_ns ()
    =
  let gc = collector.Gc_common.Collector.stats in
  let vm =
    Vmsim.Process.stats
      (Heapsim.Heap.process collector.Gc_common.Collector.heap)
  in
  {
    collector = collector.Gc_common.Collector.name;
    workload;
    heap_bytes =
      collector.Gc_common.Collector.config.Gc_common.Gc_config.heap_bytes;
    elapsed_ns = end_ns - start_ns;
    gc_ns = Gc_stats.total_gc_ns gc;
    minor = Gc_stats.count gc Gc_stats.Minor;
    full = Gc_stats.count gc Gc_stats.Full;
    compacting = Gc_stats.count gc Gc_stats.Compacting;
    failsafes = Gc_stats.failsafes gc;
    avg_pause_ms = Gc_stats.avg_pause_ms gc;
    p50_pause_ms = Gc_stats.pause_percentile_ms gc 0.5;
    p95_pause_ms = Gc_stats.pause_percentile_ms gc 0.95;
    max_pause_ms = Gc_stats.max_pause_ms gc;
    major_faults = vm.Vmsim.Vm_stats.major_faults;
    gc_major_faults = Gc_stats.gc_major_faults gc;
    evictions = vm.Vmsim.Vm_stats.evictions;
    discards = vm.Vmsim.Vm_stats.discards;
    relinquished = vm.Vmsim.Vm_stats.relinquished;
    footprint_pages = Gc_stats.max_heap_pages gc;
    resident_peak_pages = vm.Vmsim.Vm_stats.peak_resident_pages;
    allocated_bytes = Gc_stats.allocated_bytes gc;
    pauses =
      List.map
        (fun p -> (p.Gc_stats.start_ns, p.Gc_stats.duration_ns))
        (Gc_stats.pauses gc);
    faults;
    serving;
    control;
  }

(* How did the cell fare? "degraded" means it completed, but only under
   duress: faults were actually injected, or the collector had to fall
   back to a fail-safe whole-heap collection (§3.5). *)
let outcome_label = function
  | Completed { faults = Some stats; _ }
    when Faults.Fault_plan.injected_total stats > 0 ->
      "degraded"
  | Completed { failsafes; _ } when failsafes > 0 -> "degraded"
  | Completed _ -> "ok"
  | Exhausted _ -> "exhausted"
  | Thrashed _ -> "thrashed"
  | Failed _ -> "failed"

(* The one serialisation path for a cell: the bench CSV dump, the
   trace exporter's metadata and the campaign journal all go through
   this. *)
let fault_json (s : Faults.Fault_plan.stats) =
  Json.Obj
    [
      ("dropped_eviction", Json.int s.Faults.Fault_plan.dropped_eviction);
      ("dropped_resident", Json.int s.Faults.Fault_plan.dropped_resident);
      ("delayed", Json.int s.Faults.Fault_plan.delayed);
      ("duplicated", Json.int s.Faults.Fault_plan.duplicated);
      ("reordered_flushes", Json.int s.Faults.Fault_plan.reordered_flushes);
      ("swap_write_errors", Json.int s.Faults.Fault_plan.swap_write_errors);
      ("swap_read_errors", Json.int s.Faults.Fault_plan.swap_read_errors);
      ("swap_full_rejections", Json.int s.Faults.Fault_plan.swap_full_rejections);
      ("spikes_applied", Json.int s.Faults.Fault_plan.spikes_applied);
      ("injected_total", Json.int (Faults.Fault_plan.injected_total s));
    ]

let to_json t =
  (* the "serving" key is conditional: batch cells serialise exactly as
     they always have, which the bit-identity golden matrix depends on *)
  let serving =
    match t.serving with
    | None -> []
    | Some s -> [ ("serving", Workload.Slo.to_json s) ]
  in
  (* the "control" key is conditional for the same reason: controller-off
     cells serialise byte-identically to the committed golden matrices *)
  let control =
    match t.control with
    | None -> []
    | Some (c : Control.Controller.summary) ->
        [
          ( "control",
            Json.Obj
              [
                ("policy", Json.Str c.policy);
                ("decisions", Json.int c.decisions);
                ("transitions", Json.int c.transitions);
                ( "final_state",
                  Json.Str (Control.Controller.state_name c.final_state) );
                ( "peak_state",
                  Json.Str (Control.Controller.state_name c.peak_state) );
                ("forced_failsafes", Json.int c.forced_failsafes);
                ("trace_digest", Json.Str c.trace_digest);
              ] );
        ]
  in
  Json.Obj
    ([
      ("collector", Json.Str t.collector);
      ("workload", Json.Str t.workload);
      ("heap_bytes", Json.int t.heap_bytes);
      ("elapsed_ns", Json.int t.elapsed_ns);
      ("gc_ns", Json.int t.gc_ns);
      ("minor", Json.int t.minor);
      ("full", Json.int t.full);
      ("compacting", Json.int t.compacting);
      ("failsafes", Json.int t.failsafes);
      ("avg_pause_ms", Json.Num t.avg_pause_ms);
      ("p50_pause_ms", Json.Num t.p50_pause_ms);
      ("p95_pause_ms", Json.Num t.p95_pause_ms);
      ("max_pause_ms", Json.Num t.max_pause_ms);
      ("major_faults", Json.int t.major_faults);
      ("gc_major_faults", Json.int t.gc_major_faults);
      ("evictions", Json.int t.evictions);
      ("discards", Json.int t.discards);
      ("relinquished", Json.int t.relinquished);
      ("footprint_pages", Json.int t.footprint_pages);
      ("resident_peak_pages", Json.int t.resident_peak_pages);
      ("allocated_bytes", Json.int t.allocated_bytes);
      ( "pauses",
        Json.List
          (List.map
             (fun (s, d) -> Json.List [ Json.int s; Json.int d ])
             t.pauses) );
      ( "faults",
        match t.faults with None -> Json.Null | Some s -> fault_json s );
    ]
    @ serving @ control)

(* Whole-outcome serialisation, for the campaign journal and its
   consolidated reports: every constructor round-trips, and Failed
   carries its full provenance (exception name, reason with backtrace,
   injected-fault counters, partial stats) so quarantine reports stay
   actionable offline. *)
let outcome_to_json = function
  | Completed m ->
      Json.Obj [ ("status", Json.Str "completed"); ("metrics", to_json m) ]
  | Exhausted msg ->
      Json.Obj [ ("status", Json.Str "exhausted"); ("message", Json.Str msg) ]
  | Thrashed msg ->
      Json.Obj [ ("status", Json.Str "thrashed"); ("message", Json.Str msg) ]
  | Failed f ->
      Json.Obj
        [
          ("status", Json.Str "failed");
          ("exn", Json.Str f.exn_name);
          ("reason", Json.Str f.reason);
          ( "fault_stats",
            match f.fault_stats with
            | None -> Json.Null
            | Some s -> fault_json s );
          ( "partial",
            match f.partial with None -> Json.Null | Some m -> to_json m );
        ]

let pp ppf t =
  Format.fprintf ppf
    "%s/%s heap=%dKB: %.3fs (gc %.3fs) pauses avg=%.2fms p50=%.2fms \
     p95=%.2fms max=%.2fms gc=[%d minor, %d full, %d compact] faults=%d \
     (gc %d) evict=%d discard=%d relinq=%d"
    t.collector t.workload (t.heap_bytes / 1024)
    (Vmsim.Clock.ns_to_s t.elapsed_ns)
    (Vmsim.Clock.ns_to_s t.gc_ns)
    t.avg_pause_ms t.p50_pause_ms t.p95_pause_ms t.max_pause_ms t.minor
    t.full t.compacting t.major_faults
    t.gc_major_faults t.evictions t.discards t.relinquished;
  if t.failsafes > 0 then Format.fprintf ppf " failsafe=%d" t.failsafes;
  (match t.faults with
  | Some stats when Faults.Fault_plan.injected_total stats > 0 ->
      Format.fprintf ppf " [%a]" Faults.Fault_plan.pp_stats stats
  | Some _ | None -> ());
  (match t.serving with
  | Some s -> Format.fprintf ppf "@   serving: %a" Workload.Slo.pp s
  | None -> ());
  match t.control with
  | Some c -> Format.fprintf ppf "@   %a" Control.Controller.pp_summary c
  | None -> ()

let pp_outcome ppf = function
  | Completed m -> pp ppf m
  | Exhausted msg -> Format.fprintf ppf "exhausted: %s" msg
  | Thrashed msg -> Format.fprintf ppf "thrashed: %s" msg
  | Failed f -> (
      Format.fprintf ppf "failed (%s): %s" f.exn_name f.reason;
      (match f.fault_stats with
      | Some stats -> Format.fprintf ppf " [%a]" Faults.Fault_plan.pp_stats stats
      | None -> ());
      match f.partial with
      | Some m -> Format.fprintf ppf "@ partial: %a" pp m
      | None -> ())
