module Vec = Repro_util.Vec

type pause_kind = Minor | Full | Compacting

type pause = { start_ns : int; duration_ns : int; kind : pause_kind }

type t = {
  pauses : pause Vec.t;
  mutable minor : int;
  mutable full : int;
  mutable compacting : int;
  mutable total_gc_ns : int;
  mutable allocated_bytes : int;
  mutable allocated_objects : int;
  mutable max_heap_pages : int;
  mutable in_pause : bool;
  mutable gc_major_faults : int;
  mutable failsafes : int;
}

let create () =
  {
    pauses = Vec.create ();
    minor = 0;
    full = 0;
    compacting = 0;
    total_gc_ns = 0;
    allocated_bytes = 0;
    allocated_objects = 0;
    max_heap_pages = 0;
    in_pause = false;
    gc_major_faults = 0;
    failsafes = 0;
  }

let reset t =
  Repro_util.Vec.clear t.pauses;
  t.minor <- 0;
  t.full <- 0;
  t.compacting <- 0;
  t.total_gc_ns <- 0;
  t.allocated_bytes <- 0;
  t.allocated_objects <- 0;
  t.max_heap_pages <- 0;
  t.gc_major_faults <- 0;
  t.failsafes <- 0

let record_alloc t ~bytes =
  t.allocated_bytes <- t.allocated_bytes + bytes;
  t.allocated_objects <- t.allocated_objects + 1

let bump_kind t = function
  | Minor -> t.minor <- t.minor + 1
  | Full -> t.full <- t.full + 1
  | Compacting -> t.compacting <- t.compacting + 1

let time_pause t clock kind f =
  if t.in_pause then
    (* nested collection (e.g. a minor GC escalating to full): the outer
       pause interval already covers this work *)
    f ()
  else begin
    t.in_pause <- true;
    let start_ns = Vmsim.Clock.now clock in
    let finish () =
      let duration_ns = Vmsim.Clock.now clock - start_ns in
      Vec.push t.pauses { start_ns; duration_ns; kind };
      bump_kind t kind;
      t.total_gc_ns <- t.total_gc_ns + duration_ns;
      t.in_pause <- false
    in
    match f () with
    | result ->
        finish ();
        result
    | exception e ->
        finish ();
        raise e
  end

let add_gc_faults t n = t.gc_major_faults <- t.gc_major_faults + n

let gc_major_faults t = t.gc_major_faults

let note_failsafe t = t.failsafes <- t.failsafes + 1

let failsafes t = t.failsafes

let note_heap_pages t pages =
  if pages > t.max_heap_pages then t.max_heap_pages <- pages

let pauses t = Vec.to_list t.pauses

let count t = function
  | Minor -> t.minor
  | Full -> t.full
  | Compacting -> t.compacting

let collections t = t.minor + t.full + t.compacting

let total_gc_ns t = t.total_gc_ns

let allocated_bytes t = t.allocated_bytes

let max_heap_pages t = t.max_heap_pages

let avg_pause_ms t =
  let n = Vec.length t.pauses in
  if n = 0 then 0.0
  else
    Vec.fold_left (fun acc p -> acc +. Vmsim.Clock.ns_to_ms p.duration_ns) 0.0
      t.pauses
    /. float_of_int n

let max_pause_ms t =
  Vec.fold_left
    (fun acc p -> Float.max acc (Vmsim.Clock.ns_to_ms p.duration_ns))
    0.0 t.pauses

let pause_percentile_ms t p =
  Repro_util.Summary.percentile p
    (List.map
       (fun pause -> Vmsim.Clock.ns_to_ms pause.duration_ns)
       (pauses t))

let pp ppf t =
  Format.fprintf ppf
    "minor:%d full:%d compact:%d gc:%.1fms avg-pause:%.2fms max-pause:%.2fms \
     alloc:%dB/%d objs heap-max:%d pages"
    t.minor t.full t.compacting
    (Vmsim.Clock.ns_to_ms t.total_gc_ns)
    (avg_pause_ms t) (max_pause_ms t) t.allocated_bytes t.allocated_objects
    t.max_heap_pages
