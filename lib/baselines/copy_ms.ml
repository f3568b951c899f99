module Vec = Repro_util.Vec
module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats

let name = "CopyMS"

let doc = "copying nursery over a mark-sweep old space"

type t = {
  heap : Heapsim.Heap.t;
  config : Gc_common.Gc_config.t;
  stats : Gc_stats.t;
  copy_space : Gc_common.Bump_space.t;
  copy_objects : Heapsim.Obj_id.t Vec.t;
  ms : Gc_common.Ms_space.t;
  los : Gc_common.Large_object_space.t;
  mutable epoch : int;
}

let budget_pages t = Gc_common.Gc_config.heap_pages t.config

let min_copy_pages = Vmsim.Page.count_for_bytes Gen_shared.min_nursery_bytes

let mature_pages t =
  Gc_common.Ms_space.pages_acquired t.ms
  + Gc_common.Large_object_space.pages_in_use t.los

let total_pages t =
  mature_pages t + Gc_common.Bump_space.used_pages t.copy_space

let copy_limit t =
  Gen_shared.nursery_limit t.config
    ~mature_bytes:(mature_pages t * Vmsim.Page.size)

let in_young t id =
  Heapsim.Object_table.space (Heapsim.Heap.objects t.heap) id
  = Space_tag.nursery

let copy_young t id =
  let objects = Heapsim.Heap.objects t.heap in
  let size = Heapsim.Object_table.size objects id in
  let grow () = mature_pages t + 1 <= budget_pages t - min_copy_pages in
  match Gc_common.Ms_space.alloc t.ms ~bytes:size ~grow with
  | None ->
      raise
        (Collector.Heap_exhausted
           (name ^ ": mature space cannot absorb copy-space survivors"))
  | Some addr ->
      Trace_util.copy_object t.heap id ~new_addr:addr;
      Heapsim.Object_table.set_space objects id Space_tag.mature;
      (* survivors must outlive the sweep that follows the trace *)
      Heapsim.Object_table.set_marked objects id true

let collect t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      let objects = Heapsim.Heap.objects t.heap in
      Gen_shared.full_trace t.heap ~epoch:t.epoch
        ~in_young:(in_young t)
        ~copy_young:(copy_young t)
        ~on_old:(fun id -> Heapsim.Object_table.set_marked objects id true);
      Gen_shared.reap_young t.heap t.copy_objects ~epoch:t.epoch;
      Gc_common.Bump_space.reset t.copy_space;
      Gc_common.Ms_space.sweep t.ms;
      Gc_common.Large_object_space.sweep t.los;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let alloc t ~size ~nrefs ~kind =
  Collector.charge_alloc t.heap ~bytes:size;
  Gc_stats.record_alloc t.stats ~bytes:size;
  let objects = Heapsim.Heap.objects t.heap in
  if size > Gc_common.Ms_space.max_cell t.ms then begin
    let grow ~npages = mature_pages t + npages <= budget_pages t in
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
      Gc_common.Bump_space.alloc t.copy_space ~bytes:size
        ~limit_bytes:(copy_limit t)
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
        Vec.push t.copy_objects id;
        Heapsim.Heap.touch_object t.heap ~write:true id;
        id
  end

let check_invariants t =
  let objects = Heapsim.Heap.objects t.heap in
  Vec.iter
    (fun id ->
      if Heapsim.Object_table.is_live objects id then
        assert (
          Heapsim.Object_table.space objects id <> Space_tag.nursery
          || Gc_common.Bump_space.contains t.copy_space
               (Heapsim.Object_table.addr objects id)))
    t.copy_objects

let factory config heap =
  let t =
    {
      heap;
      config;
      stats = Gc_stats.create ();
      copy_space =
        Gc_common.Bump_space.create heap ~name:"copy"
          ~npages:(Gc_common.Gc_config.heap_pages config);
      copy_objects = Vec.create ();
      ms = Gc_common.Ms_space.create heap ~name:"ms" ~max_cell:Mark_sweep.max_cell;
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
