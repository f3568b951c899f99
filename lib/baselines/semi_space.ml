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
  ss_objects : Heapsim.Obj_id.t Vec.t;
  los : Gc_common.Large_object_space.t;
  mutable epoch : int;
}

let half_bytes t = t.config.Gc_common.Gc_config.heap_bytes / 2

let total_pages t =
  Gc_common.Bump_space.used_pages t.spaces.(0)
  + Gc_common.Bump_space.used_pages t.spaces.(1)
  + Gc_common.Large_object_space.pages_in_use t.los

(* Every copy-space object is young, so a collection is one whole-heap
   trace: young objects are evacuated into the to-space, large objects
   are marked for the LOS sweep. *)
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
      Gc_common.Tracer.run t.heap ~epoch:t.epoch
        ~roots:(Heapsim.Heap.iter_roots t.heap)
        ~follow:(fun _ -> true) ~evacuate:(Gen_shared.in_young t.heap)
        ~copy:(fun id ->
          let addr =
            Gc_common.Bump_space.alloc to_space
              ~bytes:(Heapsim.Object_table.size objects id)
              ~limit_bytes:(half_bytes t)
          in
          if addr < 0 then
            raise
              (Collector.Heap_exhausted
                 (name ^ ": survivors overflow the copy reserve"));
          Gen_shared.copy_object t.heap id ~new_addr:addr);
      let marked = Gc_common.Tracer.marked t.heap ~epoch:t.epoch in
      (* reap unreached copy-space objects; the survivors stay listed, in
         order, in the vector the allocation path pushes onto *)
      Vec.filter_in_place
        (fun id ->
          let survived = marked id in
          if not survived then Heapsim.Heap.free_object t.heap id;
          survived)
        t.ss_objects;
      Gc_common.Bump_space.reset t.spaces.(from_idx);
      Gc_common.Large_object_space.sweep t.los ~keep:marked;
      Gc_stats.note_heap_pages t.stats (total_pages t))

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
          Gc_common.Bump_space.create heap ~name:"ss0" ~npages:half_pages
            ~indexed:false;
          Gc_common.Bump_space.create heap ~name:"ss1" ~npages:half_pages
            ~indexed:false;
        |];
      to_idx = 0;
      ss_objects = Vec.create ();
      los = Gc_common.Large_object_space.create heap ~name:"los";
      epoch = 0;
    }
  in
  let collect () = collect t in
  let path =
    Gc_common.Alloc.create ~name ~heap ~config ~stats:t.stats
      ~small:(fun bytes ->
        Gc_common.Bump_space.alloc t.spaces.(t.to_idx) ~bytes
          ~limit_bytes:(half_bytes t))
      ~small_tag:Gc_common.Space_tag.nursery ~young:t.ss_objects
      ~stages:[| collect |] ~los:t.los ~los_above:los_threshold
      ~los_grow:(fun ~npages ->
        total_pages t + npages <= Gc_common.Gc_config.heap_pages config)
      ~los_stages:[| collect |] ()
  in
  {
    Collector.name;
    heap;
    config;
    alloc = (fun ~size ~nrefs ~kind -> Gc_common.Alloc.alloc path ~size ~nrefs ~kind);
    collect;
    stats = t.stats;
    footprint_pages = (fun () -> total_pages t);
    check_invariants = (fun () -> check_invariants t);
    tuning = Collector.no_tuning;
    debug = Collector.No_debug;
  }
