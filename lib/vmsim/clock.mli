(** Virtual time.

    One clock per simulated machine, advanced by every charged cost. Runs
    are deterministic: the clock only moves when the simulation charges
    work to it. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val advance : t -> int -> unit
(** Advance the clock by the given (non-negative) number of nanoseconds. *)

val ns_to_ms : int -> float

val ns_to_s : int -> float
