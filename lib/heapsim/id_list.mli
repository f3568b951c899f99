(** Object ids in push order: the collectors' young lists.

    Each id is a signed 32-bit slot in a byte chunk of {!chunk_ids}
    slots, in the style of {!Object_table}'s reference slab. Chunks are
    never copied, and {!clear} keeps them, so a list that is refilled
    after every collection allocates on the host heap only when it grows
    past every chunk it has had: one chunk at a time, plus a root array
    of chunk pointers that doubles. *)

type t

val chunk_ids : int
(** Ids per chunk (1024 slots of 32 bits). *)

val create : unit -> t
(** An empty list. Its first chunk is allocated by the first {!push}. *)

val push : t -> Obj_id.t -> unit
(** Append an id. Raises [Invalid_argument] on a value outside the
    signed 32-bit range, which every id and {!Obj_id.null} lie in. *)

val clear : t -> unit
(** Empty the list, keeping its chunks. *)

val iter : (Obj_id.t -> unit) -> t -> unit
(** [iter f t] applies [f] to each id, first to last; the bound is
    fixed at entry. *)

val filter_in_place : (Obj_id.t -> bool) -> t -> unit
(** Keep the ids satisfying the predicate, in their order. The predicate
    runs once per id, first to last. *)
