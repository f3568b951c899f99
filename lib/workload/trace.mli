(** Workload traces: record the exact heap-operation sequence of a
    mutator run and replay it against any collector.

    Objects are named by {e birth index} (the order of allocation), so a
    trace is collector-independent: replaying it on two collectors
    performs identical allocations, pointer stores, accesses and root
    updates, making paging comparisons exact rather than merely
    distribution-matched.

    Traces serialize to a line-oriented text format (one event per line)
    for use with [bcgc trace-record] / [bcgc trace-replay]. *)

type event =
  | Alloc of { size : int; nrefs : int; array : bool }
  | Write of { src : int; field : int; target : int }
      (** store [target]'s id into [src].field — indices are birth order *)
  | Access of int  (** mutator read of the object's payload *)
  | Root of int  (** add the object to the root set *)
  | Unroot of int

type t

val create : unit -> t

val record : t -> event -> unit

val length : t -> int

val nth : t -> int -> event

(** {1 Serialization} *)

val save : t -> string -> unit
(** Write to a file; raises [Sys_error] on I/O failure. *)

val load : string -> t
(** Raises [Failure] on malformed input. *)

(** {1 Replay} *)

val replay :
  ?on_slice:(int -> unit) ->
  ?slice:int ->
  t ->
  Gc_common.Collector.t ->
  unit
(** Execute the trace against a collector, installing a root enumerator
    backed by the trace's [Root]/[Unroot] events. Events referencing dead
    objects or out-of-range fields are skipped (a replayed collector may
    legitimately collect earlier than the recording one did). [on_slice]
    fires every [slice] (default 1024) events, for pressure injection. *)
