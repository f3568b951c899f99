(** The one trace every collector runs, and the one mark it leaves.

    An object is marked in a collection iff its scratch word holds that
    collection's epoch. Each collector bumps its epoch once per
    collection, so marks never need clearing, and marks left by an
    aborted collection cannot poison the next one (the moral equivalent
    of flipping the mark sense per cycle, as MMTk does).

    Collectors differ only in what the trace does with an object it
    reaches: whether to follow it at all, and whether to evacuate it or
    mark it in place. Marking in place touches every page the object
    spans — faulting on evicted ones, the paging behaviour the paper
    attributes to VM-oblivious collectors — and charges one visit. *)

val run :
  Heapsim.Heap.t ->
  epoch:int ->
  roots:((Heapsim.Obj_id.t -> unit) -> unit) ->
  follow:(Heapsim.Obj_id.t -> bool) ->
  evacuate:(Heapsim.Obj_id.t -> bool) ->
  copy:(Heapsim.Obj_id.t -> unit) ->
  unit
(** [run heap ~epoch ~roots ~follow ~evacuate ~copy] pushes the non-null
    ids [roots] yields onto a LIFO grey stack and drains it. A popped
    object has no effect unless it is live, [follow] accepts it and it
    is not yet marked with [epoch], tested in that order. It is then
    marked; [copy] moves it if [evacuate] accepts it, and otherwise it is
    touched for writing and charged one visit; finally its non-null
    fields are pushed in field order.

    The grey stack is the heap's ({!Heapsim.Heap.grey_stack}), cleared
    on entry, so a steady collection allocates none. A call made while
    another trace of the same heap is running (from its [roots],
    [follow], [evacuate] or [copy]) raises [Invalid_argument]; an
    exception out of a trace ends it. *)

val marked : Heapsim.Heap.t -> epoch:int -> Heapsim.Obj_id.t -> bool
(** Whether the trace with [epoch] marked the object. *)
