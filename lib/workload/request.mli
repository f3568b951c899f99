(** Request-serving workloads: an open-loop arrival process over a
    long-lived cache/session heap.

    Arrivals are scheduled by thinning a Poisson process at the shape's
    peak rate against its instantaneous rate — deterministic for a given
    seed. Each request allocates a short-lived working set wired into
    the cache, performs cache reads, and may promote session state into
    the rooted cache/session ring. Latency is open-loop (finish minus
    {e scheduled} arrival), so a GC pause stalls the queue and every
    request arriving during it pays the delay — the mechanism by which
    paging-induced pauses blow the tail percentiles. *)

type spec = {
  name : string;
  shape : Shapes.t;  (** requests-per-second envelope *)
  duration_ns : int;  (** arrival window; the queue drains after it *)
  req_alloc_bytes : int;  (** short-lived bytes allocated per request *)
  req_mean_size : int;  (** mean object size inside a request *)
  session_frac : float;
      (** fraction of requests promoting state into the session ring *)
  cache_bytes : int;  (** long-lived cache built before serving starts *)
  cache_entry_size : int;
  cache_reads : int;  (** cache lookups per request *)
  slo_ns : int;  (** per-request latency objective *)
  window_ns : int;  (** SLO violation-window width *)
  base_heap_bytes : int;
      (** unit for relative-heap-size sweeps, like the batch specs'
          [paper_min_heap_bytes] *)
  seed : int;
}

val scale_volume : spec -> float -> spec
(** Stretch the arrival window (more requests, same live set) — the
    serving analogue of {!Spec.scale_volume}. *)

type t

val create : ?sink:Telemetry.Sink.t -> spec -> Gc_common.Collector.t -> t
(** Install roots, build the cache (unmeasured warm-up), open the
    serving window at the current virtual time and schedule the first
    arrival. [sink] receives [Request_arrival] / [Request_done]
    events. Raises [Invalid_argument] on an out-of-range spec field. *)

val step : t -> ops:int -> bool
(** Run up to [ops] scheduler steps — each serves one queued request,
    or advances virtual time to the next arrival when idle. Returns
    [true] once the arrival window has closed and the queue drained. *)

val finished : t -> bool

val allocated_bytes : t -> int

val ops_done : t -> int

val requests_done : t -> int

val spec : t -> spec

val progress : t -> float
(** Elapsed fraction of the arrival window, in [\[0, 1\]]. *)

val summary : t -> Slo.summary
(** Percentiles and violation windows over everything served so far. *)
