(** Per-request latency accounting for the serving workloads.

    Latency is open-loop: finish time minus {e scheduled} arrival time,
    so a GC pause that stalls the mutator surfaces as queueing delay on
    every request that arrived during the pause. Percentiles are exact
    (nearest-rank over all recorded samples, not bucketed); violation
    windows cut the run into fixed virtual-time buckets and merge
    adjacent violating buckets into maximal spans. *)

type window = {
  from_ns : int;
  until_ns : int;
  violations : int;  (** requests over the SLO inside the span *)
  requests : int;  (** all requests that finished inside the span *)
}

type summary = {
  requests : int;
  slo_ns : int;
  window_ns : int;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
  violations : int;  (** requests with latency > [slo_ns] *)
  windows : window list;  (** maximal violating spans, in time order *)
  violation_ns : int;  (** summed span of violating windows *)
  throughput_rps : float;
}

val percentile : int array -> float -> int
(** [percentile sorted p] is the nearest-rank percentile of an
    ascending-sorted array: the smallest sample such that at least [p]
    of the samples are [<=] it. 0 on an empty array. *)

val of_samples :
  slo_ns:int ->
  ?window_ns:int ->
  start_ns:int ->
  end_ns:int ->
  (int * int) array ->
  summary
(** [of_samples ~slo_ns ~start_ns ~end_ns samples] summarises
    [(finish_ns, latency_ns)] pairs (any order) over the run interval,
    in violation windows of [window_ns] (default 100 ms of virtual
    time). Raises [Invalid_argument] on non-positive
    [slo_ns]/[window_ns]. *)

val meets_p999 : summary -> bool
(** Did the tail hold: [p999_ns <= slo_ns]. *)

val to_json : summary -> Telemetry.Json.t

val of_json : Telemetry.Json.t -> summary option
(** Inverse of {!to_json}; [None] when required fields are missing. *)

val pp : Format.formatter -> summary -> unit
