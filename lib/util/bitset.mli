(** Growable sparse bit sets indexed by non-negative integers.

    Used for page residency maps (BC's bit array of §3.3.1), card tables,
    the large object space's pages and the swap device's copies. Storage
    is a {!Sparse} table of 512-word chunks keyed by 63-bit word: memory
    is proportional to the ~32 Kbit chunks ever written, so giant sparse
    index spaces (page numbers near 2^30) are cheap. The set grows on
    [set]; [mem] on an index never written is [false]. *)

type t

val create : unit -> t

val set : t -> int -> unit

val clear : t -> int -> unit

val mem : t -> int -> bool

val cardinal : t -> int
(** Number of set bits (O(words)). *)

val reset : t -> unit
(** Clear every bit, keeping capacity. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over set bits in increasing order. *)

val first_set_from : t -> int -> int option
(** [first_set_from t i] is the smallest set index [>= i], if any. *)

val word_members : t -> int -> int Vec.t -> unit
(** [word_members t i buf] pushes onto [buf], in increasing order, every
    set index sharing [i]'s 63-bit word — BC's aggressive same-word
    discarding granularity (§3.4.3). It allocates only when [buf]
    grows. *)
