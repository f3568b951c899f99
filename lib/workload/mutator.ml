module Rng = Repro_util.Rng
module Collector = Gc_common.Collector

let slots_per_segment = 64

let los_threshold = Gc_common.Size_class.max_cell

type t = {
  spec : Spec.t;
  collector : Collector.t;
  rng : Rng.t;
  segments : Heapsim.Obj_id.t array;
  window_slots : int;
  mutable ring_pos : int;
  immortal : Heapsim.Obj_id.t array;  (* the chain, oldest first *)
  mutable n_immortal : int;  (* links allocated so far *)
  mutable allocated_bytes : int;
  mutable ops : int;
  mutable finished : bool;
  trace : Trace.t option;
  birth : (Heapsim.Obj_id.t, int) Hashtbl.t;  (* id -> birth index *)
  mutable births : int;
}

(* A match, not [t.trace <> None]: the polymorphic compare is a C call
   on every operation. *)
let[@inline] tracing t = match t.trace with Some _ -> true | None -> false

let emit t e = match t.trace with Some tr -> Trace.record tr e | None -> ()

let birth_of t id = Hashtbl.find t.birth id

let sample_size t =
  let s = t.spec in
  if s.Spec.large_frac > 0.0 && Rng.float t.rng 1.0 < s.Spec.large_frac then
    los_threshold + 4 + Rng.int t.rng Vmsim.Page.size
  else begin
    let extra = Int.max 1 (s.Spec.mean_size - 8) in
    let size = 8 + Rng.int t.rng (2 * extra) in
    Int.min size s.Spec.max_size
  end

let sample_nrefs t =
  let mean = t.spec.Spec.nrefs_mean in
  if mean <= 0 then 0 else Int.min 8 (Rng.int t.rng ((2 * mean) + 1))

let sample_kind t =
  if Rng.float t.rng 1.0 < t.spec.Spec.array_frac then `Array else `Scalar

let heap t = t.collector.Collector.heap

(* Read a random window slot; may be null early on. The read touches the
   segment's pages, so it is recorded as an access. *)
let random_window_member t =
  let slot = Rng.int t.rng t.window_slots in
  let segment = t.segments.(slot / slots_per_segment) in
  (match t.trace with
  | Some tr -> Trace.record tr (Trace.Access (Hashtbl.find t.birth segment))
  | None -> ());
  Heapsim.Heap.read_ref (heap t) segment (slot mod slots_per_segment)

(* A recorded pointer store. *)
let write t src field target =
  if tracing t then
    emit t
      (Trace.Write
         { src = birth_of t src; field; target = birth_of t target });
  Heapsim.Heap.write_ref (heap t) src field target

let access t id =
  if tracing t then emit t (Trace.Access (birth_of t id));
  Heapsim.Heap.access (heap t) id

let store_in_window t id =
  let slot = t.ring_pos in
  t.ring_pos <- (t.ring_pos + 1) mod t.window_slots;
  let segment = t.segments.(slot / slots_per_segment) in
  write t segment (slot mod slots_per_segment) id

let alloc t ~size ~nrefs ~kind =
  let id = t.collector.Collector.alloc ~size ~nrefs ~kind in
  t.allocated_bytes <- t.allocated_bytes + size;
  if tracing t then begin
    emit t (Trace.Alloc { size; nrefs; array = kind = `Array });
    Hashtbl.replace t.birth id t.births;
    t.births <- t.births + 1
  end;
  id

let create ?trace spec collector =
  let rng = Rng.create spec.Spec.seed in
  let n_immortal = max 1 (spec.Spec.immortal_bytes / max 8 spec.Spec.mean_size) in
  let window_slots =
    max slots_per_segment
      (spec.Spec.window_bytes / max 8 spec.Spec.mean_size)
  in
  let nsegments = (window_slots + slots_per_segment - 1) / slots_per_segment in
  let t =
    {
      spec;
      collector;
      rng;
      segments = Array.make nsegments Heapsim.Obj_id.null;
      window_slots = nsegments * slots_per_segment;
      ring_pos = 0;
      immortal = Array.make n_immortal Heapsim.Obj_id.null;
      n_immortal = 0;
      allocated_bytes = 0;
      ops = 0;
      finished = false;
      trace;
      birth = Hashtbl.create 1024;
      births = 0;
    }
  in
  (* Roots must be installed before the first allocation: tiny heaps
     collect during start-up. Each immortal object links to its
     predecessor, so rooting the most recent one keeps the whole chain. *)
  Heapsim.Heap.set_roots (heap t) (fun f ->
      Array.iter
        (fun id -> if not (Heapsim.Obj_id.is_null id) then f id)
        t.segments;
      if t.n_immortal > 0 then f t.immortal.(t.n_immortal - 1));
  (* window segments: rooted arrays of reference slots *)
  for i = 0 to nsegments - 1 do
    t.segments.(i) <-
      alloc t
        ~size:((slots_per_segment * Gc_common.Size_class.word) + 16)
        ~nrefs:slots_per_segment ~kind:`Array;
    if tracing t then emit t (Trace.Root (birth_of t t.segments.(i)))
  done;
  (* the cold immortal chain; only the most recent link is a root *)
  for i = 0 to n_immortal - 1 do
    let id = alloc t ~size:(max 8 spec.Spec.mean_size) ~nrefs:1 ~kind:`Scalar in
    if tracing t then begin
      emit t (Trace.Root (birth_of t id));
      if i > 0 then emit t (Trace.Unroot (birth_of t t.immortal.(i - 1)))
    end;
    if i > 0 then write t id 0 t.immortal.(i - 1);
    t.immortal.(i) <- id;
    t.n_immortal <- i + 1
  done;
  t

let one_op t =
  let s = t.spec in
  let size = sample_size t in
  let nrefs = sample_nrefs t in
  let id = alloc t ~size ~nrefs ~kind:(sample_kind t) in
  (* wire some fields to live data *)
  for field = 0 to nrefs - 1 do
    if Rng.float t.rng 1.0 < 0.5 then begin
      let target =
        if Rng.float t.rng 1.0 < 0.1 && t.n_immortal > 0 then
          t.immortal.(Rng.int t.rng t.n_immortal)
        else random_window_member t
      in
      if not (Heapsim.Obj_id.is_null target) then write t id field target
    end
  done;
  (* promote a fraction of allocations into the long-lived window *)
  if Rng.float t.rng 1.0 < s.Spec.long_frac then store_in_window t id;
  (* extra pointer mutations between window members *)
  let mutations = int_of_float s.Spec.mutation_rate in
  let frac = s.Spec.mutation_rate -. float_of_int mutations in
  let mutations =
    mutations + if Rng.float t.rng 1.0 < frac then 1 else 0
  in
  for _ = 1 to mutations do
    let target = random_window_member t in
    if not (Heapsim.Obj_id.is_null target) then store_in_window t target
  done;
  (* reads over the live data, mostly hot (window), sometimes cold *)
  let accesses = int_of_float s.Spec.access_rate in
  let frac = s.Spec.access_rate -. float_of_int accesses in
  let accesses = accesses + if Rng.float t.rng 1.0 < frac then 1 else 0 in
  for _ = 1 to accesses do
    if
      Rng.float t.rng 1.0 < s.Spec.cold_access_frac
      && t.n_immortal > 0
    then
      access t t.immortal.(Rng.int t.rng t.n_immortal)
    else begin
      let target = random_window_member t in
      if not (Heapsim.Obj_id.is_null target) then access t target
    end
  done;
  t.ops <- t.ops + 1

let step t ~ops =
  if not t.finished then begin
    let i = ref 0 in
    while (not t.finished) && !i < ops do
      one_op t;
      if t.allocated_bytes >= t.spec.Spec.total_alloc_bytes then
        t.finished <- true;
      incr i
    done
  end;
  t.finished

let finished t = t.finished

let allocated_bytes t = t.allocated_bytes

let ops_done t = t.ops

let spec t = t.spec
