(** A page-grained large object space.

    Each object occupies its own page range. BC sends objects larger than
    8180 bytes here (§3); baselines use it for objects above their
    mark-sweep space's largest cell. Freed ranges are unmapped, returning
    frames to the system. *)

type t

val create : Heapsim.Heap.t -> name:string -> t

val alloc : t -> bytes:int -> grow:(npages:int -> bool) -> int
(** Allocate a fresh page range and return its address; [grow] is
    consulted with the number of pages needed, and [false] makes the
    allocation fail with [-1]. *)

val note_object : t -> Heapsim.Obj_id.t -> unit
(** Register the (placed) object so sweeps can find it. *)

val sweep : t -> unit
(** Free (and unmap) unmarked objects; unmark survivors. *)

val owns_page : t -> int -> bool

val pages_in_use : t -> int

val iter_objects : t -> (Heapsim.Obj_id.t -> unit) -> unit

(** {1 Hooks for collectors that sweep the space themselves}

    BC sweeps the LOS with residency checks; these let it keep the space's
    accounting consistent while owning the free/unmap decisions. *)

val forget_range : t -> first_page:int -> unit
(** Drop the accounting for an object range the caller freed and unmapped
    itself. *)

val replace_objects : t -> Heapsim.Obj_id.t Repro_util.Vec.t -> unit
(** Replace the object list (after a caller-driven sweep). *)

val range_pages : t -> first_page:int -> int
(** Pages in the range starting at [first_page]. *)
