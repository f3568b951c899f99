module Vec = Repro_util.Vec

let min_nursery_bytes = 32 * 1024

let nursery_limit config ~mature_bytes =
  match config.Gc_common.Gc_config.nursery with
  | Gc_common.Gc_config.Fixed n -> Int.max n min_nursery_bytes
  | Gc_common.Gc_config.Appel ->
      let free = config.Gc_common.Gc_config.heap_bytes - mature_bytes in
      Int.max (free / 2) min_nursery_bytes

let in_young heap id =
  Heapsim.Object_table.space (Heapsim.Heap.objects heap) id
  = Gc_common.Space_tag.nursery

let install_barrier heap record =
  let objects = Heapsim.Heap.objects heap in
  let nursery = Gc_common.Space_tag.nursery in
  Heapsim.Heap.set_write_barrier heap (fun ~src ~field ~old_target:_ ~target ->
      if
        (not (Heapsim.Obj_id.is_null target))
        && Heapsim.Object_table.space objects target = nursery
        && Heapsim.Object_table.space objects src <> nursery
      then record ~src ~field)

let seed_remset heap remset enqueue =
  let objects = Heapsim.Heap.objects heap in
  Gc_common.Remset.drain remset (fun ~src ~field ->
      if
        Heapsim.Object_table.is_live objects src
        && field < Heapsim.Object_table.nrefs objects src
      then begin
        Gc_common.Charge.object_visit heap;
        Heapsim.Heap.touch_object heap ~write:false src;
        enqueue (Heapsim.Object_table.get_ref objects src field)
      end)

let scan_fields objects id enqueue =
  Heapsim.Object_table.iter_refs objects id (fun _field target -> enqueue target)

let minor_trace heap ~epoch ~copy_young ~extra_roots =
  let objects = Heapsim.Heap.objects heap in
  Gc_common.Tracer.run
    ~roots:(fun enqueue ->
      Heapsim.Heap.iter_roots heap enqueue;
      extra_roots enqueue)
    ~visit:(fun id ~enqueue ->
      if
        Heapsim.Object_table.is_live objects id
        && in_young heap id
        && Heapsim.Object_table.scratch objects id <> epoch
      then begin
        Heapsim.Object_table.set_scratch objects id epoch;
        copy_young id;
        scan_fields objects id enqueue
      end)

let full_trace heap ~epoch ~in_young ~copy_young ~on_old =
  let objects = Heapsim.Heap.objects heap in
  Gc_common.Tracer.run
    ~roots:(fun enqueue -> Heapsim.Heap.iter_roots heap enqueue)
    ~visit:(fun id ~enqueue ->
      if
        Heapsim.Object_table.is_live objects id
        && Heapsim.Object_table.scratch objects id <> epoch
      then begin
        Heapsim.Object_table.set_scratch objects id epoch;
        if in_young id then copy_young id
        else begin
          Gc_common.Charge.object_visit heap;
          Heapsim.Heap.touch_object heap ~write:true id;
          on_old id
        end;
        scan_fields objects id enqueue
      end)

let reap_young heap young ~epoch =
  let objects = Heapsim.Heap.objects heap in
  Vec.iter
    (fun id ->
      if Heapsim.Object_table.scratch objects id <> epoch then
        Heapsim.Heap.free_object heap id)
    young;
  Vec.clear young
