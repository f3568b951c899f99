module Vec = Repro_util.Vec
module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats

let name = "SemiSpace"

let doc = "two-space copying"

let los_threshold = 8180

type t = {
  heap : Heapsim.Heap.t;
  config : Gc_common.Gc_config.t;
  stats : Gc_stats.t;
  spaces : Gc_common.Bump_space.t array;
  mutable to_idx : int;
  mutable ss_objects : Heapsim.Obj_id.t Vec.t;
  los : Gc_common.Large_object_space.t;
  mutable epoch : int;
}

let half_bytes t = t.config.Gc_common.Gc_config.heap_bytes / 2

let total_pages t =
  Gc_common.Bump_space.used_pages t.spaces.(0)
  + Gc_common.Bump_space.used_pages t.spaces.(1)
  + Gc_common.Large_object_space.pages_in_use t.los

let collect t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      let from_idx = t.to_idx in
      t.to_idx <- 1 - t.to_idx;
      let to_space = t.spaces.(t.to_idx) in
      Gc_common.Bump_space.reset to_space;
      let objects = Heapsim.Heap.objects t.heap in
      Gc_common.Tracer.run
        ~roots:(fun enqueue -> Heapsim.Heap.iter_roots t.heap enqueue)
        ~visit:(fun id ~enqueue ->
          if Heapsim.Object_table.scratch objects id <> t.epoch then begin
            Heapsim.Object_table.set_scratch objects id t.epoch;
            if Heapsim.Object_table.space objects id = Space_tag.nursery then begin
              let size = Heapsim.Object_table.size objects id in
              match
                Gc_common.Bump_space.alloc to_space ~bytes:size
                  ~limit_bytes:(half_bytes t)
              with
              | None ->
                  raise
                    (Collector.Heap_exhausted
                       (name ^ ": survivors overflow the copy reserve"))
              | Some addr ->
                  Trace_util.copy_object t.heap id ~new_addr:addr;
                  Heapsim.Object_table.iter_refs objects id (fun _ target ->
                      enqueue target)
            end
            else begin
              (* large object: mark for the LOS sweep *)
              Heapsim.Object_table.set_marked objects id true;
              Charge.object_visit t.heap;
              Heapsim.Heap.touch_object t.heap ~write:true id;
              Heapsim.Object_table.iter_refs objects id (fun _ target ->
                  enqueue target)
            end
          end);
      (* reap unreached copy-space objects *)
      let survivors = Vec.create () in
      Vec.iter
        (fun id ->
          if Heapsim.Object_table.scratch objects id = t.epoch then
            Vec.push survivors id
          else Heapsim.Heap.free_object t.heap id)
        t.ss_objects;
      t.ss_objects <- survivors;
      Gc_common.Bump_space.reset t.spaces.(from_idx);
      Gc_common.Large_object_space.sweep t.los;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let alloc t ~size ~nrefs ~kind =
  Collector.charge_alloc t.heap ~bytes:size;
  Gc_stats.record_alloc t.stats ~bytes:size;
  let objects = Heapsim.Heap.objects t.heap in
  if size > los_threshold then begin
    let grow ~npages =
      total_pages t + npages
      <= Gc_common.Gc_config.heap_pages t.config
    in
    let addr =
      match Gc_common.Large_object_space.alloc t.los ~bytes:size ~grow with
      | Some addr -> Some addr
      | None ->
          collect t;
          Gc_common.Large_object_space.alloc t.los ~bytes:size ~grow
    in
    match addr with
    | None -> raise (Collector.Heap_exhausted (name ^ ": large object"))
    | Some addr ->
        let id = Heapsim.Object_table.alloc objects ~size ~nrefs ~kind in
        Heapsim.Heap.place t.heap id ~addr;
        Heapsim.Object_table.set_space objects id Space_tag.los;
        Gc_common.Large_object_space.note_object t.los id;
        Heapsim.Heap.touch_object t.heap ~write:true id;
        id
  end
  else begin
    let try_alloc () =
      Gc_common.Bump_space.alloc t.spaces.(t.to_idx) ~bytes:size
        ~limit_bytes:(half_bytes t)
    in
    let addr =
      match try_alloc () with
      | Some addr -> Some addr
      | None ->
          collect t;
          try_alloc ()
    in
    match addr with
    | None ->
        raise
          (Collector.Heap_exhausted
             (Printf.sprintf "%s: cannot allocate %d bytes" name size))
    | Some addr ->
        let id = Heapsim.Object_table.alloc objects ~size ~nrefs ~kind in
        Heapsim.Heap.place t.heap id ~addr;
        Heapsim.Object_table.set_space objects id Space_tag.nursery;
        Vec.push t.ss_objects id;
        Heapsim.Heap.touch_object t.heap ~write:true id;
        id
  end

let check_invariants t =
  let objects = Heapsim.Heap.objects t.heap in
  let to_space = t.spaces.(t.to_idx) in
  Vec.iter
    (fun id ->
      if Heapsim.Object_table.is_live objects id then
        assert
          (Gc_common.Bump_space.contains to_space
             (Heapsim.Object_table.addr objects id)))
    t.ss_objects

let factory config heap =
  let half_pages = max 1 (Gc_common.Gc_config.heap_pages config / 2) in
  let t =
    {
      heap;
      config;
      stats = Gc_stats.create ();
      spaces =
        [|
          Gc_common.Bump_space.create heap ~name:"ss0" ~npages:half_pages;
          Gc_common.Bump_space.create heap ~name:"ss1" ~npages:half_pages;
        |];
      to_idx = 0;
      ss_objects = Vec.create ();
      los = Gc_common.Large_object_space.create heap ~name:"los";
      epoch = 0;
    }
  in
  {
    Collector.name;
    heap;
    config;
    alloc = (fun ~size ~nrefs ~kind -> alloc t ~size ~nrefs ~kind);
    collect = (fun () -> collect t);
    stats = t.stats;
    footprint_pages = (fun () -> total_pages t);
    check_invariants = (fun () -> check_invariants t);
    tuning = Collector.no_tuning;
    debug = Collector.No_debug;
  }
