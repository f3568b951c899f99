(** Reverse index from pages to the objects they hold.

    Every space keeps it. BC's page scans stand in for its
    superpage-header metadata (§4); [Ms_space.sweep] (MarkSweep, GenMS,
    CopyMS) walks the objects on each page it sweeps; GenMS's cooperative
    mode asks {!count_on} for empty pages; and the invariant checks use it
    throughout. Objects spanning several pages appear on each.

    The map also owns each placed object's {!Object_table.page_slot}: its
    slot in its first page's bucket, which makes removal from that page
    O(1). *)

type t

val create : unit -> t

val add : t -> Object_table.t -> first:int -> last:int -> Obj_id.t -> unit
(** [add t objs ~first ~last id] registers a placed object on pages
    [first..last], its first and last pages, appending it to each bucket,
    and records its slot in [first]'s bucket as its [page_slot]. The
    object's address must lie on [first]: a later removal reads it to tell
    whether a relocated entry is on its object's first page. *)

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
    buffer per space and refill it for each page. *)

val count_on : t -> int -> int

val iter_on : t -> int -> (Obj_id.t -> unit) -> unit
(** Iterate without snapshotting; the callback must not mutate the map. *)
