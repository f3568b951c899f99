(** A contiguous bump-pointer space over a mapped page range.

    Used for nurseries, semispace halves and GenCopy's mature halves. The
    range is mapped (zero-fill) at creation; pages only consume frames
    once touched. *)

type t

val create : Heapsim.Heap.t -> name:string -> npages:int -> indexed:bool -> t
(** Reserve and map [npages] pages. With [~indexed:false] the range is
    registered with the heap's page map as unindexed
    ({!Heapsim.Page_map.unindex_range}): placing, moving and freeing an
    object there skips the page map, and a page-map read of one of its
    pages raises. Pass [true] only when some code reads the space's
    pages through the page map (BC's nursery, GenMS-coop's). No object
    can straddle the space's end, since {!alloc} never passes its
    capacity. *)

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

val owns_page : t -> int -> bool
(** Whether a page falls inside the space's range. *)
