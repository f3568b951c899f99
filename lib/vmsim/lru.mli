(** Page replacement queues, modelled on the Linux 2.4 VM.

    Two intrusive doubly-linked lists over page numbers: the {e active}
    list (managed with a clock / second-chance policy by the caller) and
    the {e inactive} list (a FIFO from whose tail pages are reclaimed).
    Membership is exclusive. All operations are O(1) except iteration. *)

type t

type list_kind = Active | Inactive

val create : unit -> t

val push_active_head : t -> int -> unit
(** Insert at the head of the active list (most recently used end). The
    page must not already be on a list. *)

val push_inactive_head : t -> int -> unit
(** Insert at the head of the inactive list (furthest from reclaim). *)

val push_inactive_tail : t -> int -> unit
(** Insert at the tail of the inactive list — the next reclaim victim.
    Used by [vm_relinquish]: voluntarily surrendered pages are "placed at
    the end of the inactive queue from which they are quickly swapped
    out". *)

val remove : t -> int -> unit
(** Remove a page from whichever list holds it. The page must be on a
    list. *)

val remove_if_present : t -> int -> bool
(** [remove_if_present t page] removes [page] if it is on a list and
    says whether it was. One membership probe, unlike
    [membership]-then-[remove]. *)

val membership : t -> int -> list_kind option

val active_tail : t -> int
(** Least-recently-used end of the active list, or [-1] when it is
    empty. *)

val inactive_tail : t -> int
(** Next reclaim victim, or [-1] when the inactive list is empty. *)

val active_size : t -> int

val inactive_size : t -> int

val prev : t -> int -> int
(** The page one step from a listed page towards its list's head, or
    [-1] at the head: from a tail, the walk from the reclaim end. *)
