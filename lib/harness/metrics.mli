(** Results of one measured run. *)

type t = {
  collector : string;
  workload : string;
  heap_bytes : int;
  elapsed_ns : int;  (** virtual time from run start to workload finish *)
  gc_ns : int;
  minor : int;
  full : int;
  compacting : int;
  failsafes : int;  (** fail-safe collections (§3.5) folded into [full] *)
  avg_pause_ms : float;
  p50_pause_ms : float;
  p95_pause_ms : float;
  max_pause_ms : float;
  major_faults : int;  (** all of the process's major faults *)
  gc_major_faults : int;  (** major faults incurred inside collections *)
  evictions : int;
  discards : int;
  relinquished : int;
  footprint_pages : int;  (** high-water heap pages *)
  resident_peak_pages : int;
      (** high-water pages of the process actually backed by frames
          during the window — the residency the machine's other
          processes had to live with *)
  allocated_bytes : int;
  pauses : (int * int) list;  (** (start, duration), for BMU *)
  faults : Faults.Fault_plan.stats option;
      (** what the fault plan injected during the run, when one ran *)
  serving : Workload.Slo.summary option;
      (** request-latency percentiles and SLO-violation windows; only
          for serving workloads — batch cells serialise exactly as
          before *)
  control : Control.Controller.summary option;
      (** the online controller's decision/transition counts, peak and
          final degradation state and decision-trace digest; only when a
          controller ran — controller-off cells serialise exactly as
          before *)
}

type failure = {
  reason : string;  (** the exception's message *)
  exn_name : string;  (** its constructor, for triage *)
  fault_stats : Faults.Fault_plan.stats option;
  partial : t option;  (** whatever stats survived up to the failure *)
}

type outcome =
  | Completed of t
  | Exhausted of string  (** the heap was too small *)
  | Thrashed of string  (** physical memory could not hold the floor *)
  | Failed of failure
      (** the run died on an unexpected exception; the cell is recorded,
          the rest of the matrix keeps going *)

val elapsed_s : t -> float

val outcome_label : outcome -> string
(** ["ok"], ["degraded"] (completed, but with faults injected or after
    fail-safe collections), ["exhausted"], ["thrashed"] or ["failed"] —
    the per-cell summary tag. *)

val of_run :
  ?faults:Faults.Fault_plan.stats ->
  ?serving:Workload.Slo.summary ->
  ?control:Control.Controller.summary ->
  collector:Gc_common.Collector.t ->
  workload:string ->
  start_ns:int ->
  end_ns:int ->
  unit ->
  t
(** Build the cell from the collector's stats and its process's VM
    counters as they stand now: everything counted since
    {!Machine.reset_window} opened the window. *)

val to_json : t -> Telemetry.Json.t
(** The one serialisation path for a cell: bench CSV/JSON dumps, the
    trace exporter's metadata and the campaign journal all use this. *)

val outcome_to_json : outcome -> Telemetry.Json.t
(** Serialise a whole outcome, failures included — [Failed] keeps its
    full provenance (exception name, reason with any backtrace, the
    injected-fault counters and partial stats), so a campaign journal's
    quarantine records are actionable without rerunning the cell. *)

val pp : Format.formatter -> t -> unit

val pp_outcome : Format.formatter -> outcome -> unit
