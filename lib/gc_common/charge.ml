let advance heap ns = Vmsim.Clock.advance (Heapsim.Heap.clock heap) ns

let setup heap = advance heap (Heapsim.Heap.costs heap).Vmsim.Costs.gc_setup_ns

let object_visit heap =
  advance heap (Heapsim.Heap.costs heap).Vmsim.Costs.gc_object_ns

let copy heap ~bytes =
  let costs = Heapsim.Heap.costs heap in
  advance heap
    (costs.Vmsim.Costs.gc_object_ns + (bytes * costs.Vmsim.Costs.gc_byte_copy_ns))

let page_sweep heap =
  advance heap (Heapsim.Heap.costs heap).Vmsim.Costs.gc_page_sweep_ns
