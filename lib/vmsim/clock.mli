(** Virtual time.

    A single global clock advanced by every charged cost. Runs are
    deterministic: the clock only moves when the simulation charges work
    to it. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val advance : t -> int -> unit
(** Advance the clock by the given (non-negative) number of nanoseconds. *)

val skip : t -> events:int -> cost_ns:int -> unit
(** [skip t ~events:n ~cost_ns] fast-forwards the clock by [n * cost_ns]
    in one step — bit-identical to [n] successive [advance t cost_ns]
    calls, since integer addition is associative. The event-skipping half
    of {!Vmm.touch_span}: runs of uniform, event-free work are charged in
    O(1) instead of O(n). *)

val ns_to_ms : int -> float

val ns_to_s : int -> float
