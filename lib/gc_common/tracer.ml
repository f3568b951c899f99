module Vec = Repro_util.Vec
module Heap = Heapsim.Heap
module Object_table = Heapsim.Object_table

let marked heap ~epoch id = Object_table.scratch (Heap.objects heap) id = epoch

let run heap ~epoch ~roots ~follow ~evacuate ~copy =
  let objects = Heap.objects heap in
  let stack = Vec.create () in
  roots (fun id -> if not (Heapsim.Obj_id.is_null id) then Vec.push stack id);
  (* [iter_refs] skips null fields, so the scan pushes unfiltered *)
  let scan _field target = Vec.push stack target in
  while not (Vec.is_empty stack) do
    let id = Vec.pop stack in
    if
      Object_table.is_live objects id
      && follow id
      && Object_table.scratch objects id <> epoch
    then begin
      Object_table.set_scratch objects id epoch;
      if evacuate id then copy id
      else begin
        Charge.object_visit heap;
        Heap.touch_object heap ~write:true id
      end;
      Object_table.iter_refs objects id scan
    end
  done
