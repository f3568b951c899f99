module Vec = Repro_util.Vec
module Heap = Heapsim.Heap
module Object_table = Heapsim.Object_table

let[@inline] marked heap ~epoch id = Object_table.scratch (Heap.objects heap) id = epoch

(* [follow] is asked last, so it is never asked about a marked object:
   a test per reached object, not per edge. Every collector's [follow]
   is a pure read, so the order decides nothing, since a marked object
   has no effect whatever [follow] answers. *)
let drain heap objects stack ~epoch ~follow ~evacuate ~copy =
  (* [iter_refs] skips null fields, so the scan pushes unfiltered *)
  let scan _field target = Vec.push stack target in
  while not (Vec.is_empty stack) do
    let id = Vec.pop stack in
    if
      Object_table.is_live objects id
      && Object_table.scratch objects id <> epoch
      && follow id
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

(* The grey stack is the heap's, so a trace started from inside another
   trace's callbacks would empty the outer one's stack under it. *)
let run heap ~epoch ~roots ~follow ~evacuate ~copy =
  if Heap.tracing heap then
    invalid_arg "Tracer.run: a trace of this heap is already running";
  let stack = Heap.grey_stack heap in
  Vec.clear stack;
  Heap.set_tracing heap true;
  match
    roots (fun id -> if not (Heapsim.Obj_id.is_null id) then Vec.push stack id);
    drain heap (Heap.objects heap) stack ~epoch ~follow ~evacuate ~copy
  with
  | () -> Heap.set_tracing heap false
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Heap.set_tracing heap false;
      Printexc.raise_with_backtrace e bt
