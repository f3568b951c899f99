(** BC's in-runtime page residency bit array (§3.3.1).

    "To limit overhead due to communication with the virtual memory
    manager, BC tracks page residency internally." The collector consults
    this — never the kernel — when deciding which pointers to follow, and
    keeps it synchronised from allocation, eviction notices and reload
    events. The footprint estimate drives heap-size limiting (§3.3.3). *)

type t

val create : unit -> t

val mark_resident : t -> int -> unit

val mark_evicted : t -> int -> unit

val is_resident : t -> int -> bool

val footprint_pages : t -> int
(** Number of pages currently believed resident. *)

val iter_resident : t -> (int -> unit) -> unit
(** Visit every page believed resident — the belief side of the
    kernel-reconciliation pass run when notices may have been lost. *)

val word_resident : t -> int -> int Repro_util.Vec.t -> unit
(** [word_resident t page buf] pushes onto [buf], in increasing order,
    the pages believed resident that share [page]'s bit-array word — the
    aggressive-discard granularity of §3.4.3. [page] itself is among
    them when it is believed resident. *)
