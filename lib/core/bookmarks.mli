(** BC's exact-cover ledger: what each evicted page's bookmarks cover
    (§3.4, §3.4.2, DESIGN §5.1).

    The paper keeps one bookmark bit per object and one incoming counter
    per superpage, sets them when a page is evicted and clears them from
    the counters when it reloads. Objects move between eviction and
    reload, so clearing from the bits alone can drop a bookmark that
    another evicted page still needs. This module keeps the exact state
    instead:
    - a {e cover count} per object: how many evicted pages' scans cover
      it. The object's bookmark bit is set exactly when it is positive,
      and only this module writes the bit;
    - an {e incoming count} per {e container}: how many evicted pages
      point into it. A superpage is a container, named by its index, and
      the nursery and large object space together are one more,
      {!other};
    - a {e ledger}: per evicted page, exactly which containers and
      covers its scan added, so a reload releases exactly those;
    - per container, the {e deferred} self-covers of reloaded pages,
      released when the container's count reaches zero (§3.4.2's
      conservative clearing).

    It touches no page and knows nothing of the kernel: [Bc] scans the
    pages and tells it what it found. The two tables are [Hashtbl]s,
    created unrandomised, whose fold orders decide which bookmark roots
    are enqueued first and which ledger pages are reconciled first. *)

type t

val create : Heapsim.Object_table.t -> conservative_clear:bool -> t
(** Covers of the objects in the table. With [conservative_clear]
    false, a reloaded page's self-covers are never released (the
    [BC-nocons] ablation). *)

val other : int
(** The container of every object outside the superpages. *)

(** {1 An eviction scan}

    One scan is {!begin_scan}, then {!count} and {!cover} in the order
    the scan finds them, then {!record}. Its records go to buffers the
    instance owns, so no other scan may start before its {!record}. *)

val begin_scan : t -> unit

val count : t -> int -> unit
(** Count one more evicted page pointing into the container, once per
    scan however often it is named. *)

val cover : t -> Heapsim.Obj_id.t -> self:bool -> bool
(** Cover the object once more: as a resident target of the page's
    references, or, with [self], as one of the page's own objects.
    True when this is its first cover, which sets its bookmark bit. *)

val record : t -> int -> own:int -> bool
(** End the scan of the page whose container is [own] by writing its
    ledger entry. A page still in the ledger (evicted again before its
    reload was heard of) first has its old entry released as {!release}
    would. False when that release underflowed a count. *)

(** {1 Reload} *)

val release : t -> int -> own:int -> bool
(** Release the ledger entry of the page whose container is [own], if it
    has one: uncount its containers, releasing the deferred covers of
    each that reaches zero, and uncover its targets. Its self-covers are
    released if [own]'s count is zero and deferred to [own] otherwise.
    A dead object's cover is left alone. False when a container's count
    was already zero, which only a lost update can cause; the count then
    stays zero. *)

(** {1 Collections} *)

val pointed_into : t -> int -> bool
(** Whether an evicted page points into the container. *)

val iter_roots : t -> (Heapsim.Obj_id.t -> unit) -> unit
(** Every covered object, in the cover table's fold order. *)

val fold_pages : t -> (int -> 'a -> 'a) -> 'a -> 'a
(** Fold over the ledger's pages, in the ledger's fold order. *)

val forget : t -> unit
(** Drop every count, cover, bit and ledger entry: the first step of the
    §3.5 fail-safe. *)

val check : t -> resident:(int -> bool) -> unit
(** Fail with [Failure] unless the state is consistent: every ledger
    page is not [resident]; each container's count is its number of
    ledger entries, and positive while it defers covers; each cover
    count is the object's number of ledger and deferred records (at
    least that without [conservative_clear]), and is held by a live
    object; and an object's bookmark bit is set exactly when it is
    covered. *)

(** {1 Introspection (tests)} *)

val incoming : t -> int -> int
(** The container's count. *)

val cover_count : t -> Heapsim.Obj_id.t -> int

val covered : t -> int
(** How many objects are covered: in a consistent state, how many have
    their bookmark bit set. *)

val incoming_total : t -> int
(** The sum of every container's count. *)

val ledger_total : t -> int
(** The containers the ledger lists, summed over its entries; equal to
    {!incoming_total} in a consistent state. *)

val drop_count : t -> int -> unit
(** Decrement the container's count, if positive, leaving the ledger as
    it is: a lost counter update, for tests of the underflow path. *)
