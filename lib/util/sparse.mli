(** The one two-level table over [int] keys.

    A root array of chunks, each covering [1 lsl shift] consecutive keys,
    that doubles when a key lands past it. Every slot nothing has written
    holds one sentinel chunk, which the caller defines once per module
    (so no table allocates one) and which nothing writes: a writer calls
    {!materialize} first, which swaps a fresh chunk in. Memory is
    proportional to the chunks written, however high or scattered the
    keys, and a read anywhere is one compare and one array load.

    The chunk type is the caller's: a record of parallel arrays for the
    page table, an [int array] for a bit set. It must be a boxed value
    the caller can allocate afresh, never a [float]: chunks are told from
    the sentinel by physical equality. A materialised chunk is never
    replaced, so a caller may keep a pointer into it (the page table's
    touch-path chunk cache does). *)

type 'c t

val create : shift:int -> sentinel:'c -> 'c t
(** [create ~shift ~sentinel] is an empty table whose chunks cover
    [1 lsl shift] keys each. Raises [Invalid_argument] on a shift outside
    [0 .. Sys.int_size - 1]. *)

val chunk : 'c t -> int -> 'c
(** The chunk covering [key], or the sentinel when none is materialised,
    past the root and for a negative key too. Read it; write only into a
    chunk {!materialize} returned. [key land ((1 lsl shift) - 1)] is the
    key's offset in it. *)

val is_materialized : 'c t -> int -> bool
(** Whether [key]'s chunk is materialised. *)

val materialize : 'c t -> int -> (unit -> 'c) -> 'c
(** [materialize t key fresh] is [key]'s chunk, made with [fresh ()] and
    installed first if the slot still holds the sentinel, growing the
    root to reach it. Call it before every write. Raises
    [Invalid_argument] on a negative key. *)

val materialized : 'c t -> int
(** How many chunks are materialised: the table's memory, in chunks. *)

val iter : 'c t -> (int -> 'c -> unit) -> unit
(** [iter t f] applies [f c chunk] to each materialised chunk in
    ascending chunk index [c] (so ascending key: the chunk covers keys
    from [c lsl shift]). [f] must not materialise chunks. *)

val next_materialized : 'c t -> int -> int
(** The index of the first materialised chunk covering [key] or a later
    key, or [-1] when there is none. *)

val reset : 'c t -> unit
(** Put the sentinel back in every slot, keeping the root's size. *)
