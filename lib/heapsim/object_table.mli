(** Row storage for simulated heap objects.

    Each live object has a size in bytes, a simulated byte address, a
    run of reference fields, a header with the paper's bookmark bit, a
    collector-defined space tag, a scratch word that holds the tracer's
    epoch mark and a page-map back-index.

    An object's metadata is one 32-byte row in a chunk of
    {!rows_per_chunk} rows: a 64-bit address, signed 32-bit size, width,
    first slab slot, page slot and scratch words, and 16-bit flags and
    space halves. The reference fields of all objects share one chunked
    slab of 32-bit slots. Chunks are byte buffers the host GC never scans,
    and neither kind is copied once created, so allocating, freeing and
    reading or writing fields allocates nothing on the host heap beyond a
    fresh chunk now and then.

    No store truncates. {!alloc} rejects a size outside [[1, 2^31)] or a
    width outside [[0, 2^31)], and raises once ids or slab slots would
    pass [2^31 - 1]. {!set_scratch} and {!set_page_slot} take signed
    32-bit values, {!set_space} values in [[0, 2^16)], and {!set_ref} a
    signed 32-bit target (every id and {!Obj_id.null} is one).
    Out-of-range values raise [Invalid_argument] and change nothing.

    Ids of freed objects are recycled last in, first out: {!alloc} hands
    out the most recently freed id, else the next never-used one. The free
    ids are a list threaded through their dead rows.

    Every accessor raises [Invalid_argument] on a dead or invalid id. *)

type t

val create : unit -> t

val rows_per_chunk : int
(** Object rows per row chunk (1024 rows of 32 bytes). The row table
    grows a chunk at a time and never copies one. *)

val chunk_slots : int
(** Reference slots per slab chunk (4096 slots of 32 bits). The slab
    grows a chunk at a time and never copies one; an object may still have
    more fields than this, and its run may straddle two chunks. *)

val alloc : t -> size:int -> nrefs:int -> kind:[ `Scalar | `Array ] -> Obj_id.t
(** Register a new object under the most recently freed id, else the
    next never-used one. Its address starts unset ([-1]); the collector
    must {!set_addr} before the object is used. Raises [Invalid_argument]
    unless [0 < size < 2^31] and [0 <= nrefs < 2^31], or when the new id
    or the last slot of its run would pass [2^31 - 1]. *)

val free : t -> Obj_id.t -> unit
(** Recycle an object id; the next {!alloc} reuses it first. Accessing a
    freed id afterwards is a program error detected by the table. *)

val is_live : t -> Obj_id.t -> bool
(** True when the id denotes an allocated, not-yet-freed object. *)

val size : t -> Obj_id.t -> int

val kind : t -> Obj_id.t -> [ `Scalar | `Array ]

val addr : t -> Obj_id.t -> int

val set_addr : t -> Obj_id.t -> int -> unit

val nrefs : t -> Obj_id.t -> int

(** {1 Page spans} *)

val span : t -> Obj_id.t -> int
(** The pages a placed object spans, read from its row under one
    liveness check and packed in one int; {!span_first} and {!span_last}
    unpack it. Page [p] holds bytes [[4096 p, 4096 (p + 1))]. Raises
    [Invalid_argument] on a dead id, an unplaced object, or an address at
    or past [2^54]. *)

val span_first : int -> int
(** The first page of a {!span}. *)

val span_last : int -> int
(** The last page of a {!span}. *)

val get_ref : t -> Obj_id.t -> int -> Obj_id.t
(** [get_ref t o field] reads a reference field; a fresh field is
    {!Obj_id.null}. Raises [Invalid_argument] unless
    [0 <= field < nrefs t o]. *)

val set_ref : t -> Obj_id.t -> int -> Obj_id.t -> unit
(** Write a reference field; same bounds as {!get_ref}. Raises
    [Invalid_argument] on a target outside the signed 32-bit range. *)

val iter_refs : t -> Obj_id.t -> (int -> Obj_id.t -> unit) -> unit
(** [iter_refs t o f] calls [f field target] for each non-null field. *)

val non_null_refs : t -> Obj_id.t -> int
(** The number of non-null fields, read under one liveness check. *)

(** {1 Header bits} *)

val bookmarked : t -> Obj_id.t -> bool

val set_bookmarked : t -> Obj_id.t -> bool -> unit

(** {1 Collector scratch} *)

val space : t -> Obj_id.t -> int
(** Collector-defined space tag (0 initially). *)

val set_space : t -> Obj_id.t -> int -> unit
(** Raises [Invalid_argument] unless [0 <= tag < 2^16]. *)

val scratch : t -> Obj_id.t -> int
(** Scratch word (-1 initially; reset on {!alloc}). Only the tracer
    reads or writes it: it holds the epoch of the last trace that marked
    the object. *)

val set_scratch : t -> Obj_id.t -> int -> unit
(** Raises [Invalid_argument] on a value outside the signed 32-bit
    range. *)

val page_slot : t -> Obj_id.t -> int
(** Back-index into the page map: this object's slot in its {e first}
    page's bucket, or -1 while unplaced. Maintained by {!Page_map.add}
    and {!Page_map.remove} so bucket removal is O(1) instead of a scan. *)

val set_page_slot : t -> Obj_id.t -> int -> unit
(** Raises [Invalid_argument] on a value outside the signed 32-bit
    range. *)

(** {1 Whole-table queries} *)

val live_count : t -> int

val live_bytes : t -> int

val iter_live : t -> (Obj_id.t -> unit) -> unit

val capacity : t -> int
(** Upper bound (exclusive) on ids ever returned; for sizing side tables. *)
