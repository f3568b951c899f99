(** Machinery shared by the copying collectors: GenMS (and its
    whole-heap configuration, CopyMS), GenCopy, SemiSpace and BC.

    It holds nursery sizing, the young-space test and the old-to-young
    write barrier, remembered-set seeding, and the two evacuation
    traces. SemiSpace's whole heap counts as young, so one collection
    of it is a {!full_trace}. *)

val min_nursery_bytes : int
(** Lower bound on the nursery (32 KB — the paper's 256 KB scaled 1/8). *)

val nursery_limit :
  Gc_common.Gc_config.t -> mature_bytes:int -> int
(** Current nursery ceiling in bytes: for [Appel], half of the heap budget
    left after the mature spaces; for [Fixed n], [n]. Never below
    {!min_nursery_bytes}. *)

val in_young : Heapsim.Heap.t -> Heapsim.Obj_id.t -> bool
(** Whether the object carries the nursery tag ({!Gc_common.Space_tag}). *)

val install_barrier :
  Heapsim.Heap.t -> (src:Heapsim.Obj_id.t -> field:int -> unit) -> unit
(** Install the generational write barrier: a store of a young target
    into an old source is passed to the recorder (GenMS's and GenCopy's
    remembered set, BC's write buffer). *)

val seed_remset :
  Heapsim.Heap.t -> Gc_common.Remset.t -> (Heapsim.Obj_id.t -> unit) -> unit
(** Drain remembered slots into the tracer: touches each source's pages
    (faulting if evicted — the generational paging cost the paper
    measures), validates the slot and enqueues its current target. *)

val minor_trace :
  Heapsim.Heap.t ->
  epoch:int ->
  copy_young:(Heapsim.Obj_id.t -> unit) ->
  extra_roots:((Heapsim.Obj_id.t -> unit) -> unit) ->
  unit
(** Nursery collection: trace from mutator roots plus [extra_roots],
    following only {!in_young} objects; each first-visited one is
    evacuated with [copy_young] and its fields scanned. *)

val full_trace :
  Heapsim.Heap.t ->
  epoch:int ->
  in_young:(Heapsim.Obj_id.t -> bool) ->
  copy_young:(Heapsim.Obj_id.t -> unit) ->
  on_old:(Heapsim.Obj_id.t -> unit) ->
  unit
(** Whole-heap trace: young objects are evacuated, old objects get
    [on_old] (typically: set the mark bit) — both touched and charged. *)

val reap_young :
  Heapsim.Heap.t -> Heapsim.Obj_id.t Repro_util.Vec.t -> epoch:int -> unit
(** Free the young objects that were not evacuated this [epoch] and clear
    the vector. *)
