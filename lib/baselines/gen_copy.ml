module Vec = Repro_util.Vec
module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats
module Space_tag = Gc_common.Space_tag

let name = "GenCopy"

let doc = "generational copying collector"

let fixed_nursery_name = "GenCopy-fixed"

let los_threshold = 8180

type t = {
  heap : Heapsim.Heap.t;
  config : Gc_common.Gc_config.t;
  stats : Gc_stats.t;
  nursery : Gc_common.Bump_space.t;
  nursery_objects : Heapsim.Id_list.t;
  mature : Gc_common.Bump_space.t array;
  mutable to_idx : int;
  mutable mature_objects : Heapsim.Obj_id.t Vec.t;
  los : Gc_common.Large_object_space.t;
  remset : Gc_common.Remset.t;
  mutable epoch : int;
}

let budget_bytes t = t.config.Gc_common.Gc_config.heap_bytes

let half_bytes t = budget_bytes t / 2

let mature_used t = Gc_common.Bump_space.used_bytes t.mature.(t.to_idx)

let total_pages t =
  Gc_common.Bump_space.used_pages t.nursery
  + Gc_common.Bump_space.used_pages t.mature.(0)
  + Gc_common.Bump_space.used_pages t.mature.(1)
  + Gc_common.Large_object_space.pages_in_use t.los

let nursery_limit t =
  (* the mature space and its copy reserve both count against the budget *)
  Gen_shared.nursery_limit t.config ~mature_bytes:(2 * mature_used t)

let copy_into t space id =
  let objects = Heapsim.Heap.objects t.heap in
  let size = Heapsim.Object_table.size objects id in
  let addr =
    Gc_common.Bump_space.alloc space ~bytes:size ~limit_bytes:(half_bytes t)
  in
  if addr < 0 then
    raise (Collector.Heap_exhausted (name ^ ": mature semispace overflow"));
  Gen_shared.copy_object t.heap id ~new_addr:addr;
  Heapsim.Object_table.set_space objects id Space_tag.mature

let minor t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Minor
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      let to_space = t.mature.(t.to_idx) in
      let survivors = Vec.create () in
      Gc_common.Tracer.run t.heap ~epoch:t.epoch
        ~roots:(fun enqueue ->
          Heapsim.Heap.iter_roots t.heap enqueue;
          Gc_common.Remset.drain t.remset
            (Gen_shared.remembered t.heap ~follow:(fun _ -> true) enqueue))
        ~follow:(Gen_shared.in_young t.heap) ~evacuate:(fun _ -> true)
        ~copy:(fun id ->
          copy_into t to_space id;
          Vec.push survivors id);
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Vec.iter (Vec.push t.mature_objects) survivors;
      Gc_common.Bump_space.reset t.nursery;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let full t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      let objects = Heapsim.Heap.objects t.heap in
      let from_idx = t.to_idx in
      t.to_idx <- 1 - t.to_idx;
      let to_space = t.mature.(t.to_idx) in
      Gc_common.Bump_space.reset to_space;
      let new_mature = Vec.create () in
      Gc_common.Tracer.run t.heap ~epoch:t.epoch
        ~roots:(Heapsim.Heap.iter_roots t.heap)
        ~follow:(fun _ -> true)
        ~evacuate:(fun id ->
          Gen_shared.in_young t.heap id
          || Heapsim.Object_table.space objects id = Space_tag.mature)
        ~copy:(fun id ->
          copy_into t to_space id;
          Vec.push new_mature id);
      let marked = Gc_common.Tracer.marked t.heap ~epoch:t.epoch in
      (* reap dead nursery and dead old-mature objects *)
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Vec.iter
        (fun id ->
          if Heapsim.Object_table.is_live objects id && not (marked id) then
            Heapsim.Heap.free_object t.heap id)
        t.mature_objects;
      t.mature_objects <- new_mature;
      Gc_common.Bump_space.reset t.mature.(from_idx);
      Gc_common.Bump_space.reset t.nursery;
      Gc_common.Remset.clear t.remset;
      Gc_common.Large_object_space.sweep t.los ~keep:marked;
      Gc_stats.note_heap_pages t.stats (total_pages t))

(* Survivors of a nursery collection land in the current mature
   semispace; when the reserve cannot take a whole nursery, do a full
   (flipping) collection first. *)
let mature_can_absorb t =
  half_bytes t - mature_used t
  >= Gc_common.Bump_space.used_bytes t.nursery

let check_invariants t =
  let objects = Heapsim.Heap.objects t.heap in
  Vec.iter
    (fun id ->
      if Heapsim.Object_table.is_live objects id then
        assert (
          Heapsim.Object_table.space objects id <> Space_tag.mature
          || Gc_common.Bump_space.contains
               t.mature.(t.to_idx)
               (Heapsim.Object_table.addr objects id)))
    t.mature_objects

let factory config heap =
  let pages = Gc_common.Gc_config.heap_pages config in
  let half_pages = max 1 (pages / 2) in
  let t =
    {
      heap;
      config;
      stats = Gc_stats.create ();
      nursery =
        Gc_common.Bump_space.create heap ~name:"nursery" ~npages:pages
          ~indexed:false;
      nursery_objects = Heapsim.Id_list.create ();
      mature =
        [|
          Gc_common.Bump_space.create heap ~name:"mature0" ~npages:half_pages
            ~indexed:false;
          Gc_common.Bump_space.create heap ~name:"mature1" ~npages:half_pages
            ~indexed:false;
        |];
      to_idx = 0;
      mature_objects = Vec.create ();
      los = Gc_common.Large_object_space.create heap ~name:"los";
      remset = Gc_common.Remset.create ();
      epoch = 0;
    }
  in
  Gen_shared.install_barrier heap (Gc_common.Remset.record t.remset);
  let display_name =
    match config.Gc_common.Gc_config.nursery with
    | Gc_common.Gc_config.Appel -> name
    | Gc_common.Gc_config.Fixed _ -> fixed_nursery_name
  in
  let full () = full t in
  let path =
    Gc_common.Alloc.create ~name:display_name ~heap ~config ~stats:t.stats
      ~small:(fun bytes ->
        Gc_common.Bump_space.alloc t.nursery ~bytes
          ~limit_bytes:(nursery_limit t))
      ~small_tag:Space_tag.nursery ~young:t.nursery_objects
      ~stages:
        [| (fun () -> if mature_can_absorb t then minor t else full ()); full |]
      ~los:t.los ~los_above:los_threshold
      ~los_grow:(fun ~npages ->
        total_pages t + npages <= Gc_common.Gc_config.heap_pages config)
      ~los_stages:[| full |] ()
  in
  {
    Collector.name = display_name;
    heap;
    config;
    alloc = (fun ~size ~nrefs ~kind -> Gc_common.Alloc.alloc path ~size ~nrefs ~kind);
    collect = full;
    stats = t.stats;
    footprint_pages = (fun () -> total_pages t);
    check_invariants = (fun () -> check_invariants t);
    tuning = Collector.no_tuning;
    debug = Collector.No_debug;
  }
