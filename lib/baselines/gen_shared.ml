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

let remembered heap ~follow enqueue ~src ~field =
  let objects = Heapsim.Heap.objects heap in
  if
    Heapsim.Object_table.is_live objects src
    && field < Heapsim.Object_table.nrefs objects src
    && follow src
  then begin
    Gc_common.Charge.object_visit heap;
    Heapsim.Heap.touch_object heap ~write:false src;
    enqueue (Heapsim.Object_table.get_ref objects src field)
  end

let copy_object heap id ~new_addr =
  let bytes = Heapsim.Object_table.size (Heapsim.Heap.objects heap) id in
  Heapsim.Heap.touch_object heap ~write:false id;
  Heapsim.Heap.displace heap id;
  Heapsim.Heap.place heap id ~addr:new_addr;
  Heapsim.Heap.touch_object heap ~write:true id;
  Gc_common.Charge.copy heap ~bytes

let reap_young heap young ~epoch =
  Vec.iter
    (fun id ->
      if not (Gc_common.Tracer.marked heap ~epoch id) then
        Heapsim.Heap.free_object heap id)
    young;
  Vec.clear young
