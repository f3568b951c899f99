(** A contiguous bump-pointer space over a mapped page range.

    Used for nurseries, semispace halves and GenCopy's mature halves. The
    range is mapped (zero-fill) at creation; pages only consume frames
    once touched. *)

type t

val create : Heapsim.Heap.t -> name:string -> npages:int -> t
(** Reserve and map [npages] pages. *)

val alloc : t -> bytes:int -> limit_bytes:int -> int
(** Bump-allocate [bytes] and return their address; [-1] if the
    allocation would push usage past [limit_bytes] (the caller's current
    policy limit) or past the space's capacity. *)

val used_bytes : t -> int

val capacity_bytes : t -> int

val reset : t -> unit
(** Reset the bump pointer to the start of the space. *)

val contains : t -> int -> bool
(** Whether an address falls inside the space. *)

val first_page : t -> int

val npages : t -> int

val used_pages : t -> int
(** Pages at or below the bump pointer (ever used since reset). *)

val iter_pages : t -> (int -> unit) -> unit

val discard_pages : t -> unit
(** [madvise_dontneed] every page in the space (used after evacuating a
    semispace: its contents are dead). *)
