(** Reverse index from pages to the objects they hold.

    Only spaces whose pages are read keep it. BC's page scans stand in
    for its superpage-header metadata (§4), and its nursery pages are
    read on reload, in the card scan and by the nursery's eviction veto;
    [Ms_space.sweep] (MarkSweep, GenMS, CopyMS) walks the objects on each
    page it sweeps; GenMS's cooperative mode asks {!count_on} for empty
    pages, its nursery's included; and [Gc_common.Verify] checks the
    index throughout. Objects spanning several pages appear on each.

    The bump-pointer spaces nothing reads page by page (SemiSpace's
    halves, GenCopy's nursery and mature halves, the GenMS and CopyMS
    nursery) register their ranges with {!unindex_range}, as MMTk's copy
    spaces keep no per-page object map: {!Heap.place} and
    {!Heap.displace} skip {!add} and {!remove} for an object whose first
    page is unindexed, and the readers raise [Invalid_argument] on such a
    page, so a reader added later fails loudly instead of reading an
    empty bucket. With no range registered, the indexed test is one
    length check.

    The map also owns each indexed object's {!Object_table.page_slot}:
    its slot in its first page's bucket, which makes removal from that
    page O(1). *)

type t

val create : unit -> t

val unindex_range : t -> first:int -> npages:int -> unit
(** [unindex_range t ~first ~npages] leaves pages [first .. first +
    npages - 1] out of the index. The pages must hold no entries, and an
    object placed there must lie wholly inside the range. Raises
    [Invalid_argument] on a negative [first] or an empty range. *)

val indexed : t -> int -> bool
(** Whether [page] lies outside every unindexed range. *)

val unindexed_range : t -> int -> (int * int) option
(** The first and last pages of the unindexed range holding [page], or
    [None] on an indexed page. *)

val add : t -> Object_table.t -> first:int -> last:int -> Obj_id.t -> unit
(** [add t objs ~first ~last id] registers a placed object on pages
    [first..last], its first and last pages, appending it to each bucket,
    and records its slot in [first]'s bucket as its [page_slot]. The
    object's address must lie on [first]: a later removal reads it to tell
    whether a relocated entry is on its object's first page. The pages
    must be indexed. *)

val remove : t -> Object_table.t -> first:int -> last:int -> Obj_id.t -> unit
(** Remove the object from pages [first..last]; it must be registered on
    each. On [first] its [page_slot] locates it in O(1); a stale slot, and
    every other page, fall back to a scan of the bucket. Each removal
    swap-fills the vacated slot from the bucket's tail; when the relocated
    entry's object has this page as its first page, its [page_slot] is
    updated. Resets the removed object's [page_slot] to -1.

    Raises [Invalid_argument] when the object is missing from a page. *)

val objects_on : t -> int -> Obj_id.t Repro_util.Vec.t -> unit
(** [objects_on t page buf] replaces the contents of [buf] with the
    objects registered on [page], in bucket order. [buf] is a copy, so the
    map may change while the caller iterates it; page scans keep one
    buffer per space and refill it for each page. A negative page holds
    nothing; an unindexed one raises [Invalid_argument]. *)

val count_on : t -> int -> int
(** The number of objects registered on [page]: 0 on a negative page;
    [Invalid_argument] on an unindexed one. *)

val iter_populated : t -> (int -> unit) -> unit
(** [iter_populated t f] applies [f] to every page whose bucket holds an
    entry, in increasing page order. Its cost is proportional to the
    4096-page chunks the map has ever written to. [f] must not add to or
    remove from the map. *)

val iter_on : t -> int -> (Obj_id.t -> unit) -> unit
(** [iter_on t page f] applies [f] to each object registered on [page]
    at entry, once each, in bucket order, without a copy. [f] may remove
    the entry it is visiting, or entries it has already visited, from the
    map (BC's compaction moves each object it visits off the page): the
    loop's bound is fixed at entry, and a swap-remove writes only the
    vacated slot, never one above the visited slot. [f] must not add to
    [page]'s bucket or remove entries not yet visited. A negative page
    holds nothing; an unindexed one raises [Invalid_argument]. *)
