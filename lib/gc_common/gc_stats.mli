(** Per-collector statistics: collection counts, pause intervals (for
    average/maximum pauses and the BMU curves of Figure 6), allocation
    volume and footprint high-water marks. *)

type pause_kind = Minor | Full | Compacting

type pause = { start_ns : int; duration_ns : int; kind : pause_kind }

type t

val create : unit -> t

val reset : t -> unit
(** Clear all counters and pause records (measurement methodology: warm
    up, reset, measure). *)

val record_alloc : t -> bytes:int -> unit

val time_pause : t -> Vmsim.Clock.t -> pause_kind -> (unit -> 'a) -> 'a
(** Run a collection, recording its virtual-time interval as a pause. *)

val note_heap_pages : t -> int -> unit
(** Record the current heap footprint in pages (high-water tracked). *)

val add_gc_faults : t -> int -> unit
(** Account major faults that occurred during collections. *)

val gc_major_faults : t -> int

val note_failsafe : t -> unit
(** Record a fail-safe collection (§3.5): the run completed, but only by
    falling back to a non-cooperative whole-heap collection. Feeds the
    "degraded" outcome label. *)

val failsafes : t -> int

val pauses : t -> pause list
(** In start-time order. *)

val count : t -> pause_kind -> int

val collections : t -> int

val total_gc_ns : t -> int

val allocated_bytes : t -> int

val max_heap_pages : t -> int

val avg_pause_ms : t -> float

val max_pause_ms : t -> float

val pause_percentile_ms : t -> float -> float
(** [pause_percentile_ms t p] for [p] in [0,1]: the pause durations in
    milliseconds, sorted, at index [round (p * (n - 1))] (see
    {!Repro_util.Summary.percentile}); 0 with no pauses. *)

val pp : Format.formatter -> t -> unit
