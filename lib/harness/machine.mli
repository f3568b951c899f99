(** A first-class simulated machine hosting N mutator processes.

    One [Machine.t] owns the resources every JVM instance on the box
    shares — the virtual clock, the VMM with its fixed frame pool and
    swap device, the address space, the optional fault plan and
    telemetry sink — while each {!process} gets its own simulated OS
    process, heap and collector instance. This is the substrate for the
    paper's §5 multi-JVM experiments: processes compete for frames
    through the kernel's global LRU, so one instance's allocation storm
    evicts another's cold pages.

    Processes are stepped in allocation slices by a pluggable
    {!policy}. All time is virtual and every cost is charged
    explicitly, so a machine run is deterministic: the same spawns,
    specs and policy produce bit-identical clocks and metrics.

    The module deliberately does not know about {!Registry}; collector
    instantiation is injected via {!set_collector} (see
    [Registry.instantiate]), which is what lets one machine host two
    different collectors without string-keyed lookups. *)

type t

(** How the machine interleaves its processes. Each scheduling round
    ends with one pressure-schedule application and (when tracing) one
    [Alloc_slice] event, whatever the policy. *)
type policy =
  | Round_robin  (** every unfinished process runs one slice per round *)
  | Proportional
      (** every unfinished process runs [share] slices per round —
          weighted fair share, e.g. 3:1 CPU time *)
  | Priority
      (** only the highest-priority unfinished process runs; lower
          priorities only start once it finishes (batch background
          work). Ties break in spawn order. *)

type process

exception Budget_exceeded of string
(** Raised by {!run} when a virtual-event cap is exceeded; see
    [event_cap] there. *)

val default_slice : int
(** Allocation operations per scheduling slice (256). *)

val create :
  ?costs:Vmsim.Costs.t ->
  ?faults:Faults.Fault_plan.t ->
  ?trace:Telemetry.Sink.t ->
  ?policy:policy ->
  ?first_page:int ->
  frames:int ->
  unit ->
  t
(** A fresh machine: new clock, a VMM with [frames] physical pages (and
    the fault plan routed into its notice/swap paths), one shared
    address space. [policy] defaults to [Round_robin]. [first_page]
    (default 16) sets the address-space base: giant bases (pages near
    2^30) exercise the sparse page table — memory stays proportional to
    touched pages — and simulated metrics are independent of the base
    (only page {e numbers} shift) as long as the base keeps the same
    alignment mod 63, the residency layer's word granule. *)

val clock : t -> Vmsim.Clock.t

val vmm : t -> Vmsim.Vmm.t

val address_space : t -> Heapsim.Address_space.t

val spawn :
  ?share:int -> ?priority:int -> t -> name:string -> heap_bytes:int -> process
(** Add a process (and its heap, over the machine's shared address
    space) to the machine. [share] (default 1) is the slice weight
    under [Proportional]; [priority] (default 0, higher wins) orders
    processes under [Priority]. The collector must be attached with
    {!set_collector} before the process can load a workload. *)

val name : process -> string

val vm_process : process -> Vmsim.Process.t

val heap : process -> Heapsim.Heap.t

val heap_bytes : process -> int

val set_collector : process -> Gc_common.Collector.t -> unit

val collector : process -> Gc_common.Collector.t
(** Raises [Invalid_argument] if no collector was attached. *)

val load : process -> Workload.Catalog.params -> unit
(** Open the process's measurement window at the current virtual time,
    then build its workload driver (batch mutator or serving request
    loop) over the attached collector. A serving driver inherits the
    machine's telemetry sink for per-request events. May be called
    again to run a second workload on the same (warmed) process. *)

val warm_up :
  process ->
  iterations:int ->
  ops_per_slice:int ->
  Workload.Catalog.params ->
  unit
(** The paper's §5.1 compile-and-reset methodology: run the workload
    [iterations - 1] times to completion, with a full collection after
    each, so the measured run starts on a warmed, pre-fragmented
    heap. A no-op when [iterations <= 1]. *)

val reset_window : process -> unit
(** Zero the process's GC and VM counters (residency gauges survive, as
    the pages are still mapped) so the next {!load} measures only the
    final iteration. The caller clears any shared trace sink itself —
    the sink belongs to the machine, not to one process. *)

val finish_ns : process -> int option
(** Virtual time at which the process's mutator finished, once it has. *)

val window_start_ns : process -> int

val serving_summary : process -> Workload.Slo.summary option
(** Latency percentiles and SLO-violation windows accumulated by a
    serving workload; [None] before {!load} or for batch workloads. *)

val set_controller :
  process -> window_ns:int -> Control.Controller.t -> unit
(** Attach an online memory controller to the process. Each elapsed
    [window_ns] of virtual time during {!run}, the controller receives a
    windowed sample (the process's fault, eviction, notice and fail-safe
    counts since the window opened, the p99 of its pauses, and the
    residency and free-frame gauges), and its decision is actuated
    through the collector's
    {!Gc_common.Collector.tuning} interface. Deciding costs no virtual
    time; an unattached (or inert) controller leaves the run
    bit-identical. Requires {!set_collector} first. Each process on a
    shared machine gets its own controller instance — they compete for
    the one frame pool through their own collectors. *)

val control_summary : process -> Control.Controller.summary option
(** Decision/transition counts, peak and final degradation state, and
    the decision-trace digest; [None] when no controller is attached. *)

val run :
  ?pressure:Workload.Pressure.t ->
  ?ops_per_slice:int ->
  ?event_cap:int ->
  t ->
  unit
(** Step every loaded process under the machine's policy until all have
    finished, applying [pressure] and the fault plan's scripted spikes
    (both driven by the first process's progress) between rounds. Raises [Invalid_argument] if some process
    has no mutator loaded; propagates [Heap_exhausted] / [Thrashing] —
    on a shared machine a resource failure takes the whole box down,
    and the caller decides how to report the cohabitants.

    [event_cap] bounds the run's total virtual mutator events (slices
    dispatched x ops per slice); exceeding it raises {!Budget_exceeded},
    which the harness records as a [Failed] cell — the per-cell budget
    that keeps one runaway configuration from stalling an unattended
    campaign. Unset (the default), the loop is exactly the historical
    one. *)
