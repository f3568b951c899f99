module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats

let max_cell = 2048

let name = "MarkSweep"

let doc = "whole-heap mark-sweep"

type t = {
  heap : Heapsim.Heap.t;
  config : Gc_common.Gc_config.t;
  ms : Gc_common.Ms_space.t;
  los : Gc_common.Large_object_space.t;
  stats : Gc_stats.t;
  mutable epoch : int;
}

let total_pages t =
  Gc_common.Ms_space.pages_acquired t.ms
  + Gc_common.Large_object_space.pages_in_use t.los

let collect t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      Gc_common.Tracer.run t.heap ~epoch:t.epoch
        ~roots:(Heapsim.Heap.iter_roots t.heap)
        ~follow:(fun _ -> true) ~evacuate:(fun _ -> false) ~copy:ignore;
      let keep = Gc_common.Tracer.marked t.heap ~epoch:t.epoch in
      Gc_common.Ms_space.sweep t.ms ~keep;
      Gc_common.Large_object_space.sweep t.los ~keep;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let budget_pages t = Gc_common.Gc_config.heap_pages t.config

let check_invariants t =
  let objects = Heapsim.Heap.objects t.heap in
  Heapsim.Object_table.iter_live objects (fun id ->
      assert (Heapsim.Object_table.addr objects id >= 0))

let factory config heap =
  let t =
    {
      heap;
      config;
      ms = Gc_common.Ms_space.create heap ~name:"ms" ~max_cell;
      los = Gc_common.Large_object_space.create heap ~name:"los";
      stats = Gc_stats.create ();
      epoch = 0;
    }
  in
  let collect () = collect t in
  let grow_ms () = total_pages t + 1 <= budget_pages t in
  let path =
    Gc_common.Alloc.create ~name ~heap ~config ~stats:t.stats
      (* free-list allocation costs more than a bump pointer *)
      ~surcharge_ns:(Heapsim.Heap.costs heap).Vmsim.Costs.freelist_alloc_extra_ns
      ~small:(fun bytes -> Gc_common.Ms_space.alloc t.ms ~bytes ~grow:grow_ms)
      ~small_tag:Gc_common.Space_tag.mature ~stages:[| collect |] ~los:t.los
      ~los_above:max_cell
      ~los_grow:(fun ~npages -> total_pages t + npages <= budget_pages t)
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
