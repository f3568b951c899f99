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
}

let total_pages t =
  Gc_common.Ms_space.pages_acquired t.ms
  + Gc_common.Large_object_space.pages_in_use t.los

let collect t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Full
    (fun () ->
      Charge.setup t.heap;
      Trace_util.mark_all t.heap;
      Gc_common.Ms_space.sweep t.ms;
      Gc_common.Large_object_space.sweep t.los;
      Gc_stats.note_heap_pages t.stats (total_pages t))

let budget_pages t = Gc_common.Gc_config.heap_pages t.config

let alloc_addr t ~size =
  if size > max_cell then
    Gc_common.Large_object_space.alloc t.los ~bytes:size ~grow:(fun ~npages ->
        total_pages t + npages <= budget_pages t)
  else
    Gc_common.Ms_space.alloc t.ms ~bytes:size ~grow:(fun () ->
        total_pages t + 1 <= budget_pages t)

let alloc t ~size ~nrefs ~kind =
  Collector.charge_alloc t.heap ~bytes:size;
  (* free-list allocation costs more than a bump pointer *)
  Vmsim.Clock.advance
    (Heapsim.Heap.clock t.heap)
    (Heapsim.Heap.costs t.heap).Vmsim.Costs.freelist_alloc_extra_ns;
  Gc_stats.record_alloc t.stats ~bytes:size;
  let addr =
    match alloc_addr t ~size with
    | Some addr -> addr
    | None -> (
        collect t;
        match alloc_addr t ~size with
        | Some addr -> addr
        | None ->
            raise
              (Collector.Heap_exhausted
                 (Printf.sprintf "%s: cannot allocate %d bytes in %d-byte heap"
                    name size t.config.Gc_common.Gc_config.heap_bytes)))
  in
  let objects = Heapsim.Heap.objects t.heap in
  let id = Heapsim.Object_table.alloc objects ~size ~nrefs ~kind in
  Heapsim.Heap.place t.heap id ~addr;
  let space =
    if size > max_cell then Space_tag.los else Space_tag.mature
  in
  Heapsim.Object_table.set_space objects id space;
  if space = Space_tag.los then
    Gc_common.Large_object_space.note_object t.los id;
  Heapsim.Heap.touch_object t.heap ~write:true id;
  id

let check_invariants t =
  let objects = Heapsim.Heap.objects t.heap in
  Heapsim.Object_table.iter_live objects (fun id ->
      assert (not (Heapsim.Object_table.marked objects id));
      assert (Heapsim.Object_table.addr objects id >= 0))

let factory config heap =
  let t =
    {
      heap;
      config;
      ms = Gc_common.Ms_space.create heap ~name:"ms" ~max_cell;
      los = Gc_common.Large_object_space.create heap ~name:"los";
      stats = Gc_stats.create ();
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
