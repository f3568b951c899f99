(** Small test fixtures: machines, collectors and driver loops. *)

type machine = {
  clock : Vmsim.Clock.t;
  vmm : Vmsim.Vmm.t;
  proc : Vmsim.Process.t;
  heap : Heapsim.Heap.t;
}

val machine : ?frames:int -> unit -> machine
(** A fresh machine (default 4096 frames). *)

val collector :
  ?frames:int -> ?heap_bytes:int -> string -> machine * Gc_common.Collector.t
(** A fresh machine plus a collector instance (default 2 MB heap). *)

val spec : ?volume:int -> ?seed:int -> unit -> Workload.Spec.t
(** A small pseudoJBB-like spec (default 600 KB allocation volume). *)

val drive :
  ?ops_per_slice:int ->
  ?between:(int -> unit) ->
  Workload.Mutator.t ->
  unit
(** Step the mutator to completion, invoking [between] with the slice
    index between slices (for pressure injection or oracle checks). *)

val alloc_list :
  Gc_common.Collector.t -> n:int -> size:int -> Heapsim.Obj_id.t list
(** Allocate [n] scalar objects of [size] bytes with one ref slot each,
    chained together, and root the chain head on the heap. *)

val host_words : (unit -> unit) -> float
(** Host words [f] allocates: minor words plus the words allocated
    straight into the major heap (major words less promoted ones, which
    were counted as minor words). [Gc.minor_words] counts the current
    minor heap at once, where [Gc.counters] and [Gc.quick_stat] lag until
    the next minor collection; [Gc.counters]' major words count a direct
    major allocation at once, where [Gc.quick_stat]'s may lag until the
    next major slice. *)
