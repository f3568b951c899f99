(** The paper's evaluation (§5), one entry per table and figure.

    Each function runs the simulation sweep and prints the table's rows or
    the figure's data series. [Quick] mode uses reduced allocation volumes
    and coarser sweeps (minutes); [Full] uses the complete scaled
    parameters. *)

type mode = Quick | Full

val set_jobs : int -> unit
(** Fan the independent cells of each sweep out over this many workers
    (see {!Parallel}); default 1 (sequential). Simulation is
    deterministic in virtual time and every sweep computes its whole
    matrix before printing, so the output is byte-identical whatever
    the worker count.
    @raise Invalid_argument when the count is [< 1]. *)

val get_jobs : unit -> int

val set_backend : Supervisor.backend option -> unit
(** Execution backend for the sweeps and the campaign demo ([bcgc bench
    --backend]): forked workers, the shared-memory domain pool, or
    inline. [None] (the default) picks per sweep — sequential at
    [-j 1], forked wider — and leaves the campaign demo on
    {!Campaign.run}'s own default, fork. *)

val get_backend : unit -> Supervisor.backend option

val table1 : mode -> unit
(** Table 1: total allocation and measured minimum heap per benchmark,
    against the paper's (scaled) numbers. *)

val figure2 : mode -> unit
(** Fig. 2: geometric mean execution time relative to BC across all nine
    benchmarks, as a function of relative heap size, without memory
    pressure. *)

val figure3 : mode -> unit
(** Fig. 3(a,b): steady memory pressure (40% of the heap available):
    execution time and average GC pause vs heap size, pseudoJBB. *)

val figure45 : mode -> unit
(** Figs. 4 and 5(a,b): dynamically growing memory pressure: average GC
    pause and execution time vs available memory, including the
    fixed-nursery variants and BC w/Resizing-only. *)

val figure6 : mode -> unit
(** Fig. 6(a,b): bounded mutator utilization curves under moderate and
    severe dynamic pressure. *)

val figure7 : mode -> unit
(** Fig. 7(a,b): two simultaneous instances of pseudoJBB: execution time
    and average GC pause vs available memory. *)

val ablation : mode -> unit
(** Design-choice ablations under dynamic pressure: bookmarks off,
    aggressive discarding off, conservative clearing off, compaction off,
    reserve sizing, fixed nursery. *)

val ssd : mode -> unit
(** Beyond the paper: repeat the dynamic-pressure comparison with a
    modern flash swap device (~80 µs faults instead of ~5 ms). The
    memory/disk latency gap is the paper's premise; this quantifies how
    much of BC's advantage it carries. *)

val recovery : mode -> unit
(** Beyond the paper (§7's concern): a brief memory-pressure spike that
    later releases. Compares full BC (which regrows its footprint target)
    against a no-regrow variant and GenMS, reporting the time spent after
    the release. *)

val mixed : mode -> unit
(** Beyond the paper: heterogeneous cohabitation. Two instances share one
    memory-tight machine in three pairings (BC+BC, GenMS+GenMS,
    BC+GenMS) — does the cooperative collector get exploited by a paging
    neighbour that never gives memory back? *)

val multiprocess : mode -> unit
(** The paper's shared-machine scenario (§5) head-on: each collector runs
    pseudoJBB solo and then again beside a competing GenMS instance on
    one {!Machine} with 55% of the combined heaps in physical memory,
    reporting per-process slowdown, p95 pause and fault counts — BC
    degrades gracefully where the baselines page-storm. A second table
    re-runs the BC+GenMS pairing under the round-robin, proportional-
    share and priority scheduling policies. *)

val faults : mode -> unit
(** Beyond the paper: robustness matrix. Every benchmark × {BC, GenMS}
    under a standard fault plan (≈30% of eviction notices dropped, swap
    I/O errors, two swap-full episodes, a scripted pressure spike) with
    the post-run invariant verifier on; prints per-cell
    ok/degraded/failed outcomes and the injected-fault counters. A
    second table runs the same fault plan against a serving workload
    (BC + a GenMS coworker sharing one memory-tight machine) and prints
    each process's request-latency percentiles and p999 SLO verdict. *)

val control : mode -> unit
(** Closed-loop adaptive memory control: BC on jess across every
    registered controller (plus controller-off) × fault plans (none /
    benign / storm) × two pressure schedules (steady, ramp); prints
    per-cell outcome, failsafe count, p99 pause and the controller's
    peak/final degradation state, then ["control verdict:"] lines —
    each adaptive controller must beat every static configuration on a
    fault plan (fewer failsafes, or equal with a lower p99 pause) while
    staying within noise of the statics with no faults. Not part of
    {!all}. *)

val trace_export : mode -> unit
(** Telemetry showcase: run BC and GenMS on pseudoJBB under dynamic
    pressure with a trace sink attached, print the per-phase report, and
    (when [CSV_DIR] is set) write Chrome trace JSON + event CSV files —
    the JSON embeds the cell's {!Metrics.to_json}, the single
    serialisation path. Not part of {!all}. *)

val slo : ?out:string -> mode -> unit
(** Beyond the paper: request-serving tail latency under paging. Runs
    the serving workloads (shaped and flash arrival shapes in [Quick];
    plus diurnal and pausing, over three heap multipliers, in [Full])
    against {BC, GenMS, GenCopy} with 55% of the heap in physical
    memory; prints p50/p99/p999 request latency, SLO-violation counts
    and violation windows per cell, then the configurations where BC
    meets the p999 bound that a whole-heap collector violates. [out]
    writes a self-validated ["bcgc-slo-report/1"] JSON report. Not part
    of {!all}. *)

val campaign : mode -> unit
(** Demo of the supervised {!Campaign} runner: a 16-cell sweep
    ({BC, GenMS} × jess × two heaps × {no faults, a fault plan} × {no
    pressure, steady pressure}) journaled to a temp file and
    consolidated into a report, fanned over {!get_jobs} supervised
    workers. Not part of {!all}. *)

val all : mode -> unit
(** Everything above, in paper order, plus the SSD, recovery,
    cohabitation, multiprocess and fault-injection studies. *)
