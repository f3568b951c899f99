(** Growable arrays of arbitrary elements.

    A thin, allocation-conscious replacement for [Dynarray] (which is not
    available in OCaml 5.1). Elements are stored in a contiguous array that
    doubles when full. All indices are 0-based. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty vector. [capacity] pre-sizes the backing store. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] raises [Invalid_argument] when [i] is out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** Append an element, growing the backing store if needed. *)

val pop : 'a t -> 'a
(** Remove and return the last element. Raises [Invalid_argument] when
    empty. *)

val top : 'a t -> 'a
(** Last element without removing it. Raises [Invalid_argument] when
    empty. *)

val clear : 'a t -> unit
(** Logical clear; capacity is retained. Elements are dropped (no explicit
    zeroing, callers must not rely on finalisation timing). *)

val swap_remove : 'a t -> int -> 'a
(** [swap_remove v i] removes index [i] in O(1) by moving the last element
    into its place, and returns the removed element. *)

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep the elements satisfying the predicate, in their order. The
    predicate runs once per element, first to last. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val to_array : 'a t -> 'a array

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live prefix. *)
