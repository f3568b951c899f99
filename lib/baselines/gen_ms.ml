module Vec = Repro_util.Vec
module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats
module Space_tag = Gc_common.Space_tag

let name = "GenMS"

let doc = "generational mark-sweep, Appel-style flexible nursery"

let fixed_nursery_name = "GenMS-fixed"

let copy_ms_name = "CopyMS"

type t = {
  name : string;  (* display name *)
  heap : Heapsim.Heap.t;
  config : Gc_common.Gc_config.t;
  stats : Gc_stats.t;
  nursery : Gc_common.Bump_space.t;
  nursery_objects : Heapsim.Obj_id.t Vec.t;
  ms : Gc_common.Ms_space.t;
  los : Gc_common.Large_object_space.t;
  remset : Gc_common.Remset.t;
  mutable epoch : int;
}

let budget_pages t = Gc_common.Gc_config.heap_pages t.config

let min_nursery_pages = Vmsim.Page.count_for_bytes Gen_shared.min_nursery_bytes

let mature_pages t =
  Gc_common.Ms_space.pages_acquired t.ms
  + Gc_common.Large_object_space.pages_in_use t.los

let total_pages t =
  mature_pages t + Gc_common.Bump_space.used_pages t.nursery

let grow_ms t () = mature_pages t + 1 <= budget_pages t - min_nursery_pages

let nursery_limit t =
  Gen_shared.nursery_limit t.config
    ~mature_bytes:(mature_pages t * Vmsim.Page.size)

(* Evacuate a (first-visited) nursery object into a mature cell. A
   collection builds the copier once, [copy_young t ~grow:(grow_ms t)],
   and applies it to each survivor. *)
let copy_young t ~grow id =
  let objects = Heapsim.Heap.objects t.heap in
  let size = Heapsim.Object_table.size objects id in
  let addr = Gc_common.Ms_space.alloc t.ms ~bytes:size ~grow in
  if addr < 0 then
    raise
      (Collector.Heap_exhausted
         (t.name ^ ": mature space cannot absorb nursery survivors"));
  Gen_shared.copy_object t.heap id ~new_addr:addr;
  Heapsim.Object_table.set_space objects id Space_tag.mature

let minor t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Minor
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      Gc_common.Tracer.run t.heap ~epoch:t.epoch
        ~roots:(fun enqueue ->
          Heapsim.Heap.iter_roots t.heap enqueue;
          Gc_common.Remset.drain t.remset
            (Gen_shared.remembered t.heap ~follow:(fun _ -> true) enqueue))
        ~follow:(Gen_shared.in_young t.heap) ~evacuate:(fun _ -> true)
        ~copy:(copy_young t ~grow:(grow_ms t));
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Gc_common.Bump_space.reset t.nursery;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let full t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      (* evacuated survivors carry the epoch too, so the sweep keeps them *)
      Gc_common.Tracer.run t.heap ~epoch:t.epoch
        ~roots:(Heapsim.Heap.iter_roots t.heap)
        ~follow:(fun _ -> true) ~evacuate:(Gen_shared.in_young t.heap)
        ~copy:(copy_young t ~grow:(grow_ms t));
      Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      Gc_common.Bump_space.reset t.nursery;
      Gc_common.Remset.clear t.remset;
      let keep = Gc_common.Tracer.marked t.heap ~epoch:t.epoch in
      Gc_common.Ms_space.sweep t.ms ~keep;
      Gc_common.Large_object_space.sweep t.los ~keep;
      Gc_stats.note_heap_pages t.stats (total_pages t))

(* The mature space must be able to absorb a whole nursery of survivors;
   when it cannot, collect the whole heap first. *)
let mature_can_absorb t =
  let growable_bytes =
    max 0 (budget_pages t - min_nursery_pages - mature_pages t)
    * Vmsim.Page.size
  in
  Gc_common.Ms_space.free_bytes t.ms + growable_bytes
  >= Gc_common.Bump_space.used_bytes t.nursery

let check_invariants t =
  let objects = Heapsim.Heap.objects t.heap in
  Vec.iter
    (fun id ->
      if Heapsim.Object_table.is_live objects id then
        assert (
          Heapsim.Object_table.space objects id <> Space_tag.nursery
          || Gc_common.Bump_space.contains t.nursery
               (Heapsim.Object_table.addr objects id)))
    t.nursery_objects

(* Cooper et al. (1992): tell the VM manager about empty pages so they
   can leave memory without writeback. Candidates are the nursery pages
   above the bump pointer (reset after each collection) and wholly empty
   mark-sweep pages; unlike BC there is no bookmarking, no victim
   processing and no footprint target. *)
let register_cooperative t =
  let heap = t.heap in
  let vmm = Heapsim.Heap.vmm heap in
  let page_map = Heapsim.Heap.page_map heap in
  let discardable page =
    Heapsim.Page_map.count_on page_map page = 0
    && Vmsim.Vmm.is_resident vmm page
    && (Gc_common.Bump_space.owns_page t.nursery page
       || Gc_common.Ms_space.owns_page t.ms page)
  in
  let find_discardable () =
    let found = ref None in
    let first = Gc_common.Bump_space.first_page t.nursery in
    let used =
      Vmsim.Page.count_for_bytes (Gc_common.Bump_space.used_bytes t.nursery)
    in
    (* nursery pages between the bump pointer and the high-water mark *)
    let page = ref (first + used) in
    while !found = None && !page < first + Gc_common.Bump_space.npages t.nursery
    do
      if discardable !page then found := Some !page;
      incr page
    done;
    if !found = None then
      Gc_common.Ms_space.iter_pages t.ms (fun p ->
          if !found = None && discardable p then found := Some p);
    !found
  in
  Vmsim.Process.register (Heapsim.Heap.process heap)
    {
      Vmsim.Process.on_eviction_notice =
        (fun victim ->
          if discardable victim then Vmsim.Vmm.madvise_dontneed vmm victim
          else
            match find_discardable () with
            | Some page -> Vmsim.Vmm.madvise_dontneed vmm page
            | None -> ());
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    }

let display_name ~generational config =
  if not generational then copy_ms_name
  else if config.Gc_common.Gc_config.cooperative_discard then "GenMS-coop"
  else
    match config.Gc_common.Gc_config.nursery with
    | Gc_common.Gc_config.Appel -> name
    | Gc_common.Gc_config.Fixed _ -> fixed_nursery_name

let make ~generational config heap =
  let t =
    {
      name = display_name ~generational config;
      heap;
      config;
      stats = Gc_stats.create ();
      (* only the cooperative discard test reads nursery pages *)
      nursery =
        Gc_common.Bump_space.create heap ~name:"nursery"
          ~npages:(Gc_common.Gc_config.heap_pages config)
          ~indexed:config.Gc_common.Gc_config.cooperative_discard;
      nursery_objects = Vec.create ();
      ms = Gc_common.Ms_space.create heap ~name:"ms" ~max_cell:Mark_sweep.max_cell;
      los = Gc_common.Large_object_space.create heap ~name:"los";
      remset = Gc_common.Remset.create ();
      epoch = 0;
    }
  in
  if generational then
    Gen_shared.install_barrier heap (Gc_common.Remset.record t.remset);
  if config.Gc_common.Gc_config.cooperative_discard then
    register_cooperative t;
  let full () = full t in
  let stages =
    if generational then
      [| (fun () -> if mature_can_absorb t then minor t else full ()); full |]
    else [| full |]
  in
  let path =
    Gc_common.Alloc.create ~name:t.name ~heap ~config ~stats:t.stats
      ~small:(fun bytes ->
        Gc_common.Bump_space.alloc t.nursery ~bytes
          ~limit_bytes:(nursery_limit t))
      ~small_tag:Space_tag.nursery ~young:t.nursery_objects ~stages
      ~los:t.los ~los_above:(Gc_common.Ms_space.max_cell t.ms)
      ~los_grow:(fun ~npages -> mature_pages t + npages <= budget_pages t)
      ~los_stages:[| full |] ()
  in
  {
    Collector.name = t.name;
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

let factory = make ~generational:true

(* "A variant of GenMS which performs only whole heap garbage
   collections": the nursery becomes a copy space that only full
   collections empty, so no barrier or remembered set is needed. *)
module Copy_ms = struct
  let name = copy_ms_name

  let doc = "copying nursery over a mark-sweep old space"

  let factory = make ~generational:false
end
