(** Wall-clock performance microbenchmarks for the simulator itself.

    Everything else in the harness measures {e virtual} time — the
    simulated clock the paper's results are stated in. This module
    measures {e real} time: how many simulated page touches, allocations
    and field accesses per wall-clock second the implementation sustains,
    and how long a full collection or a reclaim storm takes to simulate.
    Those numbers bound how large a heap, how many frames and how many
    co-scheduled processes we can afford to simulate, so each PR records
    them (as [BENCH_perf.json] at the repo root) to track the repo's
    performance trajectory.

    Wall-clock numbers are machine-dependent by nature; the committed
    baseline is a snapshot for trend comparison, not a golden. Virtual-
    time results must never depend on anything here — the bit-identity
    test ([test/test_identity.ml]) enforces that. *)

type dist = {
  median : float;
  iqr_lo : float;  (** 25th percentile *)
  iqr_hi : float;  (** 75th percentile *)
  samples : float list;  (** in run order *)
}

type t = {
  repetitions : int;
  micro : (string * dist) list;  (** name -> ops per wall second *)
  collectors : (string * dist * dist * string) list;
      (** name, full-collection ms, reclaim-storm ms, storm outcome *)
}

val schema_version : string
(** The ["schema"] tag written into the JSON ("bcgc-perf/1"). *)

val default_repetitions : int

val default_output : string
(** ["BENCH_perf.json"]. *)

val run : ?repetitions:int -> ?progress:(string -> unit) -> unit -> t
(** Run the whole suite: two unrecorded warm-up passes plus
    [repetitions] measured repetitions of every microbenchmark, then
    the per-collector full collection and reclaim-storm wall times for
    each headline registry entry. Two warm-ups because the first pass
    still pays one-time process costs — inline caches, major heap
    growth to the working set — which made single-warm-up [write_ref]
    samples flaky. [progress] is called with a label as each benchmark
    starts.

    The driver sweeps run 64 short experiment cells through
    {!Supervisor.run} on the fork backend and then on the domain pool
    (in that order — fork is impossible once a domain exists); the pool
    is shut down again before the collector wall-times run. *)

val to_json : t -> Telemetry.Json.t

val write_file : ?path:string -> t -> unit
(** Serialise to [path] (default {!default_output}). *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary table (medians with IQR). *)

val validate : Telemetry.Json.t -> (unit, string) Stdlib.result
(** Check a parsed [BENCH_perf.json] carries the schema tag, at least
    one repetition, a positive median for every microbenchmark the
    suite carries (touch_resident, touch_faulting, sparse_map_giant,
    alloc_free, read_ref, write_ref, driver_fork_sweep,
    driver_domains_sweep) and both wall-time medians for every
    collector — the keys later PRs compare. *)

val validate_file : string -> (unit, string) Stdlib.result

val default_guard_tolerance : float
(** Allowed median regression before {!guard_file} fails (0.20 = 20%). *)

val guard_file :
  ?tolerance:float ->
  baseline_path:string ->
  t ->
  (unit, string list) Stdlib.result
(** Compare a fresh run against a baseline [BENCH_perf.json], which
    must parse and {!validate}. Fails when a micro's {e best} fresh
    sample drops more than [tolerance] below the baseline median, or a
    collector wall-time's best (shortest) sample rises more than
    [tolerance] above it — best-vs-median because a genuine regression
    slows every sample while a transient load burst slows only some.
    Benchmarks present on only one side are skipped, so the guard
    survives suite additions and retirements. [Error] leads with a
    one-line summary naming every benchmark that tripped, followed by
    one line per regression. *)
