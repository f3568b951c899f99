(** Machinery shared by the copying collectors: GenMS (and its
    whole-heap configuration, CopyMS), GenCopy, SemiSpace and BC.

    It holds nursery sizing, the young-space test and the old-to-young
    write barrier, the remembered-slot scan, the object copy and the
    nursery reap. Every collection itself is one {!Gc_common.Tracer.run}. *)

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

val remembered :
  Heapsim.Heap.t ->
  follow:(Heapsim.Obj_id.t -> bool) ->
  (Heapsim.Obj_id.t -> unit) ->
  src:Heapsim.Obj_id.t ->
  field:int ->
  unit
(** [remembered heap ~follow enqueue] is a drain callback for a
    remembered set or write buffer: a slot whose source is live, still
    has the field and passes [follow] has its source touched (faulting
    if evicted — the generational paging cost the paper measures) and
    charged, and its current target enqueued. *)

val copy_object : Heapsim.Heap.t -> Heapsim.Obj_id.t -> new_addr:int -> unit
(** Move an object: touch its old pages (read) and new pages (write),
    charge the copy, and update placement. *)

val reap_young :
  Heapsim.Heap.t -> Heapsim.Obj_id.t Repro_util.Vec.t -> epoch:int -> unit
(** Free the young objects the trace with [epoch] did not mark and clear
    the vector. *)
