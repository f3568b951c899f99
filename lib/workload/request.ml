module Vec = Repro_util.Vec
module Rng = Repro_util.Rng
module Collector = Gc_common.Collector

let slots_per_segment = 64

(* A request-serving workload: an open-loop arrival process where each
   simulated request allocates a short-lived working set against a
   long-lived cache/session heap. All rates are over virtual time, so a
   run is deterministic for a given (spec, collector, machine). *)
type spec = {
  name : string;
  shape : Shapes.t;  (* requests-per-second envelope *)
  duration_ns : int;  (* arrival window; the run drains the queue after *)
  req_alloc_bytes : int;  (* short-lived bytes allocated per request *)
  req_mean_size : int;  (* mean object size inside a request *)
  session_frac : float;  (* fraction of requests that promote state into
                            the cache/session ring *)
  cache_bytes : int;  (* long-lived cache built before serving starts *)
  cache_entry_size : int;
  cache_reads : int;  (* cache lookups per request *)
  slo_ns : int;  (* per-request latency objective *)
  window_ns : int;  (* SLO violation-window width *)
  base_heap_bytes : int;  (* the heap-multiplier unit, like Table 1's
                             minimum heap for the batch specs *)
  seed : int;
}

let validate s =
  Shapes.validate s.shape;
  if s.duration_ns <= 0 then invalid_arg "Request: duration_ns";
  if s.req_alloc_bytes <= 0 then invalid_arg "Request: req_alloc_bytes";
  if s.req_mean_size < 8 then invalid_arg "Request: req_mean_size";
  if s.session_frac < 0.0 || s.session_frac > 1.0 then
    invalid_arg "Request: session_frac";
  if s.cache_bytes <= 0 then invalid_arg "Request: cache_bytes";
  if s.cache_entry_size < 8 then invalid_arg "Request: cache_entry_size";
  if s.cache_reads < 0 then invalid_arg "Request: cache_reads";
  if s.slo_ns <= 0 then invalid_arg "Request: slo_ns";
  if s.window_ns <= 0 then invalid_arg "Request: window_ns";
  if s.base_heap_bytes <= 0 then invalid_arg "Request: base_heap_bytes"

(* Volume scaling stretches the arrival window (more requests at the
   same rate), mirroring [Spec.scale_volume]'s more-allocation-same-live
   contract. *)
let scale_volume s factor =
  if factor <= 0.0 then invalid_arg "Request.scale_volume";
  {
    s with
    duration_ns =
      max 1_000_000 (int_of_float (float_of_int s.duration_ns *. factor));
  }

type t = {
  spec : spec;
  collector : Collector.t;
  rng : Rng.t;
  sink : Telemetry.Sink.t option;
  pid : int;
  segments : Heapsim.Obj_id.t array;  (* rooted cache/session ring *)
  cache_slots : int;
  mutable ring_pos : int;
  start_ns : int;  (* serving window opens after the cache is built *)
  end_ns : int;  (* last instant an arrival can be scheduled *)
  peak_rate : float;  (* thinning envelope; 0 = no arrivals at all *)
  mutable next_arrival_ns : int;
  mutable arrivals_done : bool;
  pending : int Queue.t;  (* scheduled arrival times, FIFO *)
  mutable arrived : int;
  mutable served : int;
  samples : (int * int) Vec.t;  (* (finish_ns, latency_ns) *)
  mutable allocated_bytes : int;
  mutable ops : int;
  mutable finished : bool;
}

let clock t = Heapsim.Heap.clock t.collector.Collector.heap

let now t = Vmsim.Clock.now (clock t)

let heap t = t.collector.Collector.heap

(* Sample the next arrival instant after [from_ns] by thinning a
   homogeneous Poisson process at [peak_rate] against the shape's
   instantaneous rate (Lewis–Shedler). Candidates advance by >= 1 ns, so
   the scan always terminates at [end_ns]. *)
let rec sample_arrival t from_ns =
  if t.peak_rate <= 0.0 then None
  else begin
    let gap_s = Rng.exponential t.rng (1.0 /. t.peak_rate) in
    let cand = from_ns + max 1 (int_of_float (gap_s *. 1e9)) in
    if cand > t.end_ns then None
    else begin
      let at_s = float_of_int (cand - t.start_ns) /. 1e9 in
      let r = Shapes.rate t.spec.shape ~at_s in
      if Rng.float t.rng 1.0 < r /. t.peak_rate then Some cand
      else sample_arrival t cand
    end
  end

let emit t ~ts_ns kind a b =
  match t.sink with
  | Some sink -> Telemetry.Sink.emit sink ~ts_ns kind a b
  | None -> ()

(* Enqueue every arrival scheduled up to [now] — after a long GC pause
   this books the whole backlog at once, which is exactly the open-loop
   queueing the latency percentiles must see. *)
let generate_arrivals t now =
  while (not t.arrivals_done) && t.next_arrival_ns <= now do
    Queue.add t.next_arrival_ns t.pending;
    emit t ~ts_ns:t.next_arrival_ns Telemetry.Event.Request_arrival t.arrived
      t.pid;
    t.arrived <- t.arrived + 1;
    match sample_arrival t t.next_arrival_ns with
    | Some ns -> t.next_arrival_ns <- ns
    | None -> t.arrivals_done <- true
  done

let alloc t ~size ~nrefs ~kind =
  let id = t.collector.Collector.alloc ~size ~nrefs ~kind in
  t.allocated_bytes <- t.allocated_bytes + size;
  id

let random_cache_member t =
  let slot = Rng.int t.rng t.cache_slots in
  let segment = t.segments.(slot / slots_per_segment) in
  Heapsim.Heap.read_ref (heap t) segment (slot mod slots_per_segment)

let store_in_ring t id =
  let slot = t.ring_pos in
  t.ring_pos <- (t.ring_pos + 1) mod t.cache_slots;
  let segment = t.segments.(slot / slots_per_segment) in
  Heapsim.Heap.write_ref (heap t) segment (slot mod slots_per_segment) id

(* Serve one request to completion: allocate its working set, hit the
   cache, maybe promote session state, then record the open-loop
   latency against the scheduled arrival time. *)
let serve t arrival_ns =
  let s = t.spec in
  let nobjs = max 1 (s.req_alloc_bytes / max 8 s.req_mean_size) in
  let last = ref Heapsim.Obj_id.null in
  for _ = 1 to nobjs do
    let extra = max 1 (s.req_mean_size - 8) in
    let size = 8 + Rng.int t.rng (2 * extra) in
    let id = alloc t ~size ~nrefs:2 ~kind:`Scalar in
    (* wire the working set into the cache: reads plus one ref store *)
    if Rng.float t.rng 1.0 < 0.5 then begin
      let target = random_cache_member t in
      if not (Heapsim.Obj_id.is_null target) then
        Heapsim.Heap.write_ref (heap t) id 0 target
    end;
    last := id
  done;
  for _ = 1 to s.cache_reads do
    let target = random_cache_member t in
    if not (Heapsim.Obj_id.is_null target) then
      Heapsim.Heap.access (heap t) target
  done;
  (* session state: a slice of this request's working set outlives it *)
  if
    Rng.float t.rng 1.0 < s.session_frac
    && not (Heapsim.Obj_id.is_null !last)
  then store_in_ring t !last;
  let finish_ns = now t in
  let latency_ns = max 0 (finish_ns - arrival_ns) in
  Vec.push t.samples (finish_ns, latency_ns);
  emit t ~ts_ns:finish_ns Telemetry.Event.Request_done t.served latency_ns;
  t.served <- t.served + 1

let create ?sink spec collector =
  validate spec;
  let rng = Rng.create spec.seed in
  let cache_slots =
    max slots_per_segment (spec.cache_bytes / max 8 spec.cache_entry_size)
  in
  let nsegments = (cache_slots + slots_per_segment - 1) / slots_per_segment in
  let t =
    {
      spec;
      collector;
      rng;
      sink;
      pid =
        Vmsim.Process.pid
          (Heapsim.Heap.process collector.Collector.heap);
      segments = Array.make nsegments Heapsim.Obj_id.null;
      cache_slots = nsegments * slots_per_segment;
      ring_pos = 0;
      start_ns = 0;
      end_ns = 0;
      peak_rate = Shapes.peak_rate spec.shape;
      next_arrival_ns = 0;
      arrivals_done = false;
      pending = Queue.create ();
      arrived = 0;
      served = 0;
      samples = Vec.create ();
      allocated_bytes = 0;
      ops = 0;
      finished = false;
    }
  in
  (* Roots before the first allocation, as in [Mutator]: the segment
     array pins the cache/session ring; everything else may die. *)
  Heapsim.Heap.set_roots (heap t) (fun f ->
      Array.iter
        (fun id -> if not (Heapsim.Obj_id.is_null id) then f id)
        t.segments);
  for i = 0 to nsegments - 1 do
    t.segments.(i) <-
      alloc t
        ~size:((slots_per_segment * Gc_common.Size_class.word) + 16)
        ~nrefs:slots_per_segment ~kind:`Array
  done;
  (* pre-populate every cache slot with a long-lived entry *)
  for slot = 0 to t.cache_slots - 1 do
    let id =
      alloc t ~size:(max 8 spec.cache_entry_size) ~nrefs:1 ~kind:`Scalar
    in
    let segment = t.segments.(slot / slots_per_segment) in
    Heapsim.Heap.write_ref (heap t) segment (slot mod slots_per_segment) id
  done;
  (* the serving window opens now — cache warm-up is not measured *)
  let start_ns = now t in
  let t = { t with start_ns; end_ns = start_ns + spec.duration_ns } in
  (match sample_arrival t start_ns with
  | Some ns -> t.next_arrival_ns <- ns
  | None -> t.arrivals_done <- true);
  t

let one_op t =
  let n = now t in
  generate_arrivals t n;
  (if Queue.is_empty t.pending then begin
     if t.arrivals_done then t.finished <- true
     else begin
       (* open-loop idle: advance virtual time to the next arrival *)
       Vmsim.Clock.advance (clock t) (max 1 (t.next_arrival_ns - n));
       generate_arrivals t (now t)
     end
   end);
  (match Queue.take_opt t.pending with
  | Some arrival_ns -> serve t arrival_ns
  | None -> ());
  t.ops <- t.ops + 1

let step t ~ops =
  if not t.finished then begin
    let i = ref 0 in
    while (not t.finished) && !i < ops do
      one_op t;
      incr i
    done
  end;
  t.finished

let finished t = t.finished

let allocated_bytes t = t.allocated_bytes

let ops_done t = t.ops

let requests_done t = t.served

let spec t = t.spec

(* Serving progress for the pressure schedules: elapsed fraction of the
   arrival window (the queue drain after it counts as done). *)
let progress t =
  if t.finished then 1.0
  else
    Float.min 1.0
      (float_of_int (now t - t.start_ns) /. float_of_int t.spec.duration_ns)

let summary t =
  Slo.of_samples ~slo_ns:t.spec.slo_ns ~window_ns:t.spec.window_ns
    ~start_ns:t.start_ns
    ~end_ns:(max (now t) (t.start_ns + 1))
    (Vec.to_array t.samples)
