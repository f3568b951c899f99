(** A segregated-fit mark-sweep space (the mature space of GenMS and
    CopyMS and the whole heap of MarkSweep).

    Pages are acquired one at a time, dedicated to a single size class and
    carved into equal cells. Completely empty pages are recycled to any
    class, but — being VM-oblivious — the space never returns frames to
    the operating system, so its footprint is its high-water mark. *)

type t

val create : Heapsim.Heap.t -> name:string -> max_cell:int -> t
(** [max_cell] bounds the cell sizes handled here (larger objects belong
    in a large object space); it must be at most one page. *)

val max_cell : t -> int

val alloc : t -> bytes:int -> grow:(unit -> bool) -> int
(** Allocate a cell for [bytes] and return its address. When a fresh page
    is needed, [grow] is consulted; returning [false] makes the
    allocation fail with [-1]. *)

val sweep : t -> unit
(** Touch and sweep every page: unmarked objects on this space's pages are
    freed and their cells returned; marked objects are unmarked. *)

val owns_page : t -> int -> bool

val pages_acquired : t -> int
(** Pages ever acquired (the space's footprint in pages). *)

val free_bytes : t -> int
(** Total bytes in free cells plus wholly-empty recycled pages. *)

val iter_pages : t -> (int -> unit) -> unit
