(** Experiment runner: N (collector × workload × heap size) processes ×
    physical memory × pressure schedule → per-process metrics.

    A run is described by a {!Plan}: an immutable value built with
    {!Plan.make} and refined by [with_*] combinators, then executed
    with {!exec} (primary process's outcome) or {!exec_all} (every
    process's outcome). Each execution builds a fresh {!Machine}:
    clock, VMM with the given frame count, one simulated process per
    JVM instance — a plan may host several, sharing the frame pool —
    plus (when a schedule is given) a [signalmem] process. The mutators
    are stepped in slices under the plan's scheduling policy; the
    pressure schedule is applied between rounds.

    {[
      Run.Plan.make ~collector:"BC" ~spec ~heap_bytes
      |> Run.Plan.with_frames 900
      |> Run.Plan.with_iterations 2
      |> Run.Plan.with_process ~collector:"GenMS" ~spec:other
      |> Run.exec_all
    ]} *)

module Plan : sig
  type proc = private {
    collector : string;  (** collector registry name *)
    workload : Workload.Catalog.params;  (** batch spec or serving spec *)
    heap_bytes : int;
    share : int;  (** slice weight under [Proportional] *)
    priority : int;  (** ordering under [Priority]; higher wins *)
  }

  type t

  val make : collector:string -> spec:Workload.Spec.t -> heap_bytes:int -> t
  (** A single-process batch plan with the defaults: ample frames (no
      pressure), no faults, one iteration, no verification, no trace,
      round-robin scheduling. *)

  val make_workload :
    collector:string ->
    workload:Workload.Catalog.params ->
    heap_bytes:int ->
    t
  (** {!make}, generalised over both workload families. *)

  val with_frames : int -> t -> t
  (** Physical memory, in pages. Default: room for every process's heap
      plus slack (4× total heap pages + 2048). *)

  val with_pressure : Workload.Pressure.t -> t -> t

  val with_ops_per_slice : int -> t -> t

  val with_costs : Vmsim.Costs.t -> t -> t
  (** The machine's cost model; defaults to {!Vmsim.Costs.default}
      (the paper's disk). *)

  val with_iterations : int -> t -> t
  (** The paper's compile-and-reset methodology (§5.1): run the
      workload this many times, with a full collection between
      iterations, and measure only the last — so measurement starts on
      a warmed, pre-fragmented heap. Default 1. *)

  val with_faults : ?seed:int -> Faults.Fault_plan.spec -> t -> t
  (** Fault-injection plan threaded into the machine's VMM and swap
      device; its scripted spikes are added to the pressure schedule.
      [seed] defaults to {!default_fault_seed} — same seed, same
      schedule. *)

  val with_verify : t -> t
  (** Run the {!Gc_common.Verify} heap oracle and every collector's own
      invariant check after a completed run; violations turn the
      outcome into [Failed]. *)

  val with_trace : Telemetry.Sink.t -> t -> t
  (** Attach a telemetry sink to the machine's VMM for the run; without
      one every emission site reduces to a branch, and results are
      bit-identical to an untraced run. *)

  val with_policy : Machine.policy -> t -> t

  val with_event_cap : int -> t -> t
  (** Per-cell budget on total virtual mutator events (slices dispatched
      x ops per slice); a run that exceeds it dies on
      {!Machine.Budget_exceeded} and is recorded as a [Failed] cell.
      The campaign runner's guard against one runaway configuration
      stalling an unattended sweep. Default: unbounded. *)

  val with_address_base : int -> t -> t
  (** First page of the machine's shared address space (default 16).
      Bases near 2^30 exercise the sparse page table: the harness's
      memory stays proportional to touched pages, and simulated metrics
      are independent of the base — only the page numbers in traces
      shift — provided the base preserves word alignment (is congruent
      to the old base mod 63): residency clustering groups pages into
      63-bit words, so an unaligned base legitimately changes which
      pages share a discard granule. Appended to {!canonical} only when
      set, so existing plan digests are unchanged. *)

  val with_controller : ?window_ns:int -> string -> t -> t
  (** Attach an online memory controller (a {!Control.Registry} policy
      name) deciding every [window_ns] of virtual time (default 5 ms).
      Each process gets its own controller instance, actuating its own
      collector's {!Gc_common.Collector.tuning} knobs; on a shared
      machine the instances compete for the one frame pool. Raises
      [Failure] on an unknown policy name. Appended to {!canonical} only
      when set, so existing plan digests are unchanged; without a
      controller the run is bit-identical to seed. *)

  val with_share : int -> t -> t
  (** Slice weight of the {e primary} process under [Proportional]. *)

  val with_priority : int -> t -> t
  (** Priority of the {e primary} process under [Priority]. *)

  val with_process :
    ?share:int ->
    ?priority:int ->
    ?heap_bytes:int ->
    collector:string ->
    spec:Workload.Spec.t ->
    t ->
    t
  (** Add another batch mutator process to the machine. [heap_bytes]
      defaults to the primary's. Processes may use different collectors
      — each gets its own collector instance and heap; they share the
      clock, the frame pool and the swap device. *)

  val with_process_workload :
    ?share:int ->
    ?priority:int ->
    ?heap_bytes:int ->
    collector:string ->
    workload:Workload.Catalog.params ->
    t ->
    t
  (** {!with_process} over either family — e.g. a serving process
      contended by a batch cohabitant. *)

  val procs : t -> proc list
  (** Primary first, in scheduling order. *)

  val frames : t -> int
  (** The explicit frame count, or the ample default. *)

  val canonical : t -> string
  (** Canonical text of every plan field that can influence the run's
      simulated outcome — processes (collector, full workload spec,
      heap, share, priority), frames, slice size, iterations, pressure,
      cost model, fault spec and seed, verify, policy, event cap and
      (when set) address base. The trace sink is excluded: tracing is
      proven zero-overhead, so a traced and an untraced run are the same
      cell. *)

  val digest : t -> string
  (** Hex MD5 of {!canonical} — the stable cell key the campaign
      journal uses to decide, across processes and sessions, whether a
      recorded outcome belongs to this exact configuration. *)
end

val default_slice : int

val default_fault_seed : int

val ample_frames : heap_bytes:int -> int
(** A pressure-free machine for one heap of this size. *)

val exec : Plan.t -> Metrics.outcome
(** Execute the plan and return the {e primary} process's outcome. Runs
    in per-cell isolation: any exception other than the two resource
    outcomes is caught and recorded as [Metrics.Failed] with the fault
    counters and partial stats, never propagated. *)

val exec_all : Plan.t -> Metrics.outcome list
(** Every process's outcome, in plan order. Each process's metrics
    window opens when its workload loads and closes when its own
    mutator finishes. On a resource failure ([Exhausted] / [Thrashed] /
    [Failed]) the whole machine goes down and every process reports the
    same outcome (the primary carries any partial stats). *)
