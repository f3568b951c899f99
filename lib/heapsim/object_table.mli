(** Row storage for simulated heap objects.

    Each live object has a size in bytes, a simulated byte address, a
    run of reference fields, a header with the paper's bookmark bit, a
    collector-defined space tag, a scratch word that holds the tracer's
    epoch mark and a page-map back-index.
    Ids of freed objects are recycled.

    An object's metadata is one fixed-size row in a chunk of
    {!rows_per_chunk} rows, and the reference fields of all objects share
    one chunked slab of slots. Chunks are byte buffers the host GC never
    scans, and neither kind is copied once created, so allocating objects
    and reading or writing their fields allocates nothing on the host heap
    beyond a fresh chunk now and then.

    Every accessor raises [Invalid_argument] on a dead or invalid id. *)

type t

val create : unit -> t

val rows_per_chunk : int
(** Object rows per row chunk. The row table grows a chunk at a time and
    never copies one. *)

val chunk_slots : int
(** Reference slots per slab chunk. The slab grows a chunk at a time and
    never copies one; an object may still have more fields than this. *)

val alloc : t -> size:int -> nrefs:int -> kind:[ `Scalar | `Array ] -> Obj_id.t
(** Register a new object. Its address starts unset ([-1]); the collector
    must {!set_addr} before the object is used. *)

val free : t -> Obj_id.t -> unit
(** Recycle an object id. Accessing a freed id afterwards is a program
    error detected by the table. *)

val is_live : t -> Obj_id.t -> bool
(** True when the id denotes an allocated, not-yet-freed object. *)

val size : t -> Obj_id.t -> int

val kind : t -> Obj_id.t -> [ `Scalar | `Array ]

val addr : t -> Obj_id.t -> int

val set_addr : t -> Obj_id.t -> int -> unit

val nrefs : t -> Obj_id.t -> int

val get_ref : t -> Obj_id.t -> int -> Obj_id.t
(** [get_ref t o field] reads a reference field; a fresh field is
    {!Obj_id.null}. Raises [Invalid_argument] unless
    [0 <= field < nrefs t o]. *)

val set_ref : t -> Obj_id.t -> int -> Obj_id.t -> unit
(** Write a reference field; same bounds as {!get_ref}. *)

val iter_refs : t -> Obj_id.t -> (int -> Obj_id.t -> unit) -> unit
(** [iter_refs t o f] calls [f field target] for each non-null field. *)

(** {1 Header bits} *)

val bookmarked : t -> Obj_id.t -> bool

val set_bookmarked : t -> Obj_id.t -> bool -> unit

(** {1 Collector scratch} *)

val space : t -> Obj_id.t -> int
(** Collector-defined space tag (0 initially). *)

val set_space : t -> Obj_id.t -> int -> unit

val scratch : t -> Obj_id.t -> int
(** Scratch word (-1 initially; reset on {!alloc}). Only the tracer
    reads or writes it: it holds the epoch of the last trace that marked
    the object. *)

val set_scratch : t -> Obj_id.t -> int -> unit

val page_slot : t -> Obj_id.t -> int
(** Back-index into the page map: this object's slot in its {e first}
    page's bucket, or -1 while unplaced. Maintained by {!Page_map.add}
    and {!Page_map.remove} so bucket removal is O(1) instead of a scan. *)

val set_page_slot : t -> Obj_id.t -> int -> unit

(** {1 Whole-table queries} *)

val live_count : t -> int

val live_bytes : t -> int

val iter_live : t -> (Obj_id.t -> unit) -> unit

val capacity : t -> int
(** Upper bound (exclusive) on ids ever returned; for sizing side tables. *)
