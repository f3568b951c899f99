(** The collector interface seen by workloads and the harness.

    A collector instance is a record of closures over its private state;
    all collectors — the bookmarking collector and the five baselines —
    present this same interface. *)

exception Heap_exhausted of string
(** Raised by [alloc] when a request cannot be satisfied even after the
    collector's last escalation stage. *)

type tuning = {
  set_target_pages : int option -> unit;
      (** Cap the collector's footprint at [Some n] pages (clamped to its
          own floor), or lift the cap with [None]. The online
          controller's primary actuator. The cap {e composes} with the
          collector's own footprint adaptation (BC's §3.3.3 target) by
          [min], so the collector keeps adapting below the cap instead of
          clobbering it on the next eviction notice. *)
  set_notice_batch : int -> unit;
      (** Empty discardable pages surrendered per eviction notice
          (default 1): batching amortises notice handling under
          sustained pressure. *)
  set_relinquish_extra : int -> unit;
      (** Extra coldest pages bookmarked-and-evicted per notice beyond
          the victim itself (default 0) — the [vm_relinquish]
          aggressiveness knob. *)
  request_failsafe : unit -> unit;
      (** Schedule a fail-safe collection (§3.5) at the next allocation;
          the controller watchdog's escape hatch out of a no-progress
          window. *)
}
(** Online-control actuators a collector may expose. Collectors without
    these knobs use {!no_tuning}, under which every setter is a no-op —
    an unactuated collector behaves bit-identically to one with no
    controller attached. *)

val no_tuning : tuning

type debug = ..
(** A collector family's introspection view, for tests and examples. A
    family that offers one adds its own constructor (see [Bc.debug_of]);
    the others use {!No_debug}. The view travels on the collector record,
    so it lives exactly as long as the collector does. *)

type debug += No_debug

type t = {
  name : string;
  heap : Heapsim.Heap.t;
  config : Gc_config.t;
  alloc : size:int -> nrefs:int -> kind:[ `Scalar | `Array ] -> Heapsim.Obj_id.t;
      (** Allocate, placing and (first-)touching the object; may trigger
          collections. Every collector answers this with its {!Alloc.t},
          the one allocation path. Raises {!Heap_exhausted}. *)
  collect : unit -> unit;  (** Force a full collection. *)
  stats : Gc_stats.t;
  footprint_pages : unit -> int;
      (** Pages currently mapped by the heap's spaces (high-level footprint,
          not residency). *)
  check_invariants : unit -> unit;
      (** Internal consistency checks for tests; may be expensive. *)
  tuning : tuning;
      (** Online-control actuators; {!no_tuning} for collectors without
          them. *)
  debug : debug;  (** Family-specific introspection; {!No_debug} if none. *)
}

type factory = Gc_config.t -> Heapsim.Heap.t -> t
(** Collectors are factories from a configuration and a fresh heap. *)

(** The interface every collector implementation module satisfies.
    Passing implementations around as [(module S)] lets the registry
    build entries from the modules themselves — family name, default
    doc line and factory come from one place — instead of re-stating
    them per entry and keying a second string lookup at instantiation
    time. *)
module type S = sig
  val name : string
  (** Canonical family name (["BC"], ["GenMS"], ...). *)

  val doc : string
  (** One-line description of the canonical configuration. *)

  val factory : factory
end
