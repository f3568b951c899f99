(** The allocation path shared by every collector.

    Following MMTk's split between plans and spaces, a collector decides
    {e when} to collect and its spaces decide {e where} an object goes;
    this module is the one place that strings the two together. Each
    collector builds one [t] in its factory and answers its record's
    [alloc] field with {!alloc}, which does five things in order:

    + charges the allocation to the virtual clock and records it in the
      collector's statistics;
    + picks the large object space for objects above [los_above] bytes,
      or the collector's small-object space otherwise;
    + when that space fails, runs the escalation stages for that branch
      in order, retrying the space after each one, and raises
      {!Collector.Heap_exhausted} once the last stage has not helped;
    + registers the object, places it, tags its space and records it in
      that space (the LOS's object list, or the young list);
    + first-touches it.

    Spaces signal failure with the address [-1] (the object table's
    "unplaced"), so the fast path allocates nothing on the host heap. *)

type t

val create :
  name:string ->
  heap:Heapsim.Heap.t ->
  config:Gc_config.t ->
  stats:Gc_stats.t ->
  ?surcharge_ns:int ->
  small:(int -> int) ->
  small_tag:int ->
  ?young:Heapsim.Id_list.t ->
  stages:(unit -> unit) array ->
  los:Large_object_space.t ->
  los_above:int ->
  los_grow:(npages:int -> bool) ->
  los_stages:(unit -> unit) array ->
  ?on_placed:(Heapsim.Obj_id.t -> unit) ->
  unit ->
  t
(** [create ~name ~heap ~config ~stats ~small ~small_tag ~stages ~los
    ~los_above ~los_grow ~los_stages ()] is the path for one collector
    instance.
    - [name] is the collector's display name; the exhaustion message
      reads ["<name>: cannot allocate N bytes in H-byte heap"], with H
      taken from [config].
    - [surcharge_ns] (default 0) is added to every allocation's charge
      once per call: MarkSweep's free-list cost over a bump pointer.
    - [small bytes] returns an address in the small-object space, or
      [-1]. Objects get the tag [small_tag] and, when given, are pushed
      onto [young], the collector's young list. It is an
      {!Heapsim.Id_list}, whose chunks are never copied and outlive
      each collection's clear, so the push allocates on the host heap
      only when the list outgrows every chunk it has had.
    - [stages] are the small branch's escalation stages, [los_stages]
      the large branch's. A stage's own exceptions propagate: a
      collector whose stages must not abort the ladder catches them
      inside the stage.
    - [los_grow] is the LOS's growth test for an object of [npages].
    - [on_placed], when given, runs after placement and before the
      first touch (BC's residency bookkeeping: the touch can fault and
      deliver an eviction notice that reads it). *)

val alloc : t -> size:int -> nrefs:int -> kind:[ `Scalar | `Array ] -> Heapsim.Obj_id.t
(** Allocate an object of [size] bytes with [nrefs] reference fields.
    Raises {!Collector.Heap_exhausted}. *)
