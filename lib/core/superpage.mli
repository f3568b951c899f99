(** BC's mature space: segregated size classes over superpages (§3, §3.4).

    A superpage is four contiguous, 16 KB-aligned pages. Its first
    {!header_bytes} hold metadata (size class, scalar/array tag, the
    incoming-bookmark counter) locatable by bit-masking; because the
    metadata lives on the first page, that {e header page} is never
    evicted, keeping counter updates fault-free. Superpages hold either
    only scalars or only arrays (§4: Jikes places scalar and array headers
    at opposite ends, so BC segregates them to locate objects on a page).

    Cells are carved from the remaining bytes and may span pages within
    the superpage. Carving writes no list: the cells are handed out from
    a [fresh] count, highest address first, and only cells given back
    later sit on the [free] list, which is popped before the fresh ones.
    Cells whose pages are not resident are never handed out; they are
    parked on a blocked list until the page reloads. *)

type kind = Scalar | Array

type sp = {
  index : int;  (** dense superpage index *)
  first_page : int;  (** the header page *)
  mutable cls : int;
  mutable kind : kind;
  mutable cells_total : int;
  mutable fresh : int;
      (** how many cells have not been handed out since the carve: the
          lowest [fresh] cells, all free *)
  free : int Repro_util.Vec.t;
      (** addresses of free cells given back since the carve (by a
          sweep, a compaction or a reload), popped last in, first out,
          before any fresh cell *)
  blocked : int Repro_util.Vec.t;  (** free cells on non-resident pages *)
  mutable on_partial : bool;
  mutable incoming : int;  (** # evicted pages with pointers into this sp *)
  mutable evicted_data_pages : int;
  mutable deferred : Heapsim.Obj_id.t array list;
      (** BC's conservative self-bookmarks waiting for [incoming] to
          reach zero (§3.4.2's deferred clearing): one array per
          reloaded page, the latest first *)
  mutable scan : int;
      (** the stamp of the last eviction scan that counted a reference
          into this superpage in [incoming]; 0 before any *)
}

type t

val header_bytes : int

val usable_bytes : int
(** Bytes available for cells per superpage. *)

val create : ?on_acquire:(sp -> unit) -> Heapsim.Heap.t -> t
(** [on_acquire] fires whenever a brand-new superpage is mapped (before
    any cell from it is handed out) — BC uses it to mark the pages
    resident in its bit array ("whenever BC allocates a new superpage …
    it increases the estimate of the current footprint and marks the
    pages as resident", §3.3.1). *)

val set_on_acquire : t -> (sp -> unit) -> unit

val alloc :
  t ->
  bytes:int ->
  kind:kind ->
  grow:(unit -> bool) ->
  resident:(int -> bool) ->
  int
(** Allocate a cell and return its address, or [-1] when [grow] refuses a
    fresh superpage. Cells overlapping non-resident pages are skipped
    (parked on [blocked]). On success the caller owns marking the cell's
    pages resident. Raises [Invalid_argument] above
    {!Gc_common.Size_class.max_cell}. *)

val free_cell : t -> sp -> addr:int -> unit
(** Return a cell to its superpage's free list. *)

val free_count : sp -> int
(** Free cells not parked on [blocked]: the [free] list plus the
    [fresh] count. *)

val alloc_on : t -> sp -> resident:(int -> bool) -> int
(** Pop a usable cell from a specific superpage (compaction targets), or
    [-1] when every free cell on it is blocked. *)

val sp_of_page : t -> int -> sp option
(** The superpage holding [page]: one read of a {!Repro_util.Sparse}
    table indexed by the page's superpage-aligned quad, which allocates
    nothing. *)

val sp_of_addr : t -> int -> sp option

val owns_page : t -> int -> bool

val is_header_page : t -> int -> bool

val data_pages : sp -> int list
(** The three evictable pages of a superpage. *)

val iter_sps : t -> (sp -> unit) -> unit

val sp_count : t -> int

val pages_acquired : t -> int

val free_bytes : t -> int
(** Bytes in allocatable (resident) free cells plus empty-pool
    superpages. *)

val note_page_evicted : t -> int -> unit
(** Track an evicted data page; also parks free cells overlapping it.
    When a fresh cell overlaps it, the fresh cells first join [free], in
    address order below the cells given back, so the pop order is the
    same as if they had been listed at the carve. *)

val note_page_resident : t -> int -> resident:(int -> bool) -> unit
(** Track a reloaded data page and un-park blocked cells that are now
    fully usable under the [resident] predicate. *)

val recycle_empty : t -> resident:(int -> bool) -> unit
(** Move superpages with no live objects, no evicted pages and no incoming
    bookmarks to the empty pool for reassignment to any class. *)

val cells_overlapping_page : sp -> int -> int
(** How many of the superpage's cell slots overlap the given page. *)

val live_count : t -> sp -> int
(** Live objects currently placed on the superpage (via the page map). *)
