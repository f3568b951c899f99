type t = {
  name : string;
  heap : Heapsim.Heap.t;
  heap_bytes : int;
  stats : Gc_stats.t;
  surcharge_ns : int;
  small : int -> int;
  small_tag : int;
  young : Heapsim.Id_list.t option;
  stages : (unit -> unit) array;
  los : Large_object_space.t;
  los_above : int;
  los_grow : npages:int -> bool;
  los_stages : (unit -> unit) array;
  on_placed : (Heapsim.Obj_id.t -> unit) option;
}

let create ~name ~heap ~config ~stats ?(surcharge_ns = 0) ~small ~small_tag
    ?young ~stages ~los ~los_above ~los_grow ~los_stages ?on_placed () =
  {
    name;
    heap;
    heap_bytes = config.Gc_config.heap_bytes;
    stats;
    surcharge_ns;
    small;
    small_tag;
    young;
    stages;
    los;
    los_above;
    los_grow;
    los_stages;
    on_placed;
  }

let try_space t ~large bytes =
  if large then Large_object_space.alloc t.los ~bytes ~grow:t.los_grow
  else t.small bytes

(* Run stage [i] and retry; -1 once every stage has failed to help. *)
let rec escalate t ~large stages i bytes =
  if i = Array.length stages then -1
  else begin
    stages.(i) ();
    let addr = try_space t ~large bytes in
    if addr >= 0 then addr else escalate t ~large stages (i + 1) bytes
  end

let alloc t ~size ~nrefs ~kind =
  let heap = t.heap in
  let costs = Heapsim.Heap.costs heap in
  Vmsim.Clock.advance (Heapsim.Heap.clock heap)
    (costs.Vmsim.Costs.alloc_ns
    + (size * costs.Vmsim.Costs.alloc_byte_ns)
    + t.surcharge_ns);
  Gc_stats.record_alloc t.stats ~bytes:size;
  let large = size > t.los_above in
  let addr = try_space t ~large size in
  let addr =
    if addr >= 0 then addr
    else
      escalate t ~large (if large then t.los_stages else t.stages) 0 size
  in
  if addr < 0 then
    raise
      (Collector.Heap_exhausted
         (Printf.sprintf "%s: cannot allocate %d bytes in %d-byte heap" t.name
            size t.heap_bytes));
  let objects = Heapsim.Heap.objects heap in
  let id = Heapsim.Object_table.alloc objects ~size ~nrefs ~kind in
  Heapsim.Heap.place heap id ~addr;
  if large then begin
    Heapsim.Object_table.set_space objects id Space_tag.los;
    Large_object_space.note_object t.los id
  end
  else begin
    Heapsim.Object_table.set_space objects id t.small_tag;
    match t.young with Some young -> Heapsim.Id_list.push young id | None -> ()
  end;
  (match t.on_placed with Some f -> f id | None -> ());
  Heapsim.Heap.touch_object heap ~write:true id;
  id
