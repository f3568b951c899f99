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

val sweep :
  ?on_free:(int -> unit) -> t -> keep:(Heapsim.Obj_id.t -> bool) -> unit
(** Charge a visit per object; free, and unmap the range of, each object
    [keep] rejects, then call [on_free] on every page of that range (BC
    drops the pages from its residency view). Survivors keep their
    order. *)

val owns_page : t -> int -> bool
(** Whether [page] is any page of a range the space holds, from
    {!alloc} until the sweep that frees its object. *)

val pages_in_use : t -> int

