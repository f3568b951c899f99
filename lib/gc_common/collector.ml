exception Heap_exhausted of string

type tuning = {
  set_target_pages : int option -> unit;
  set_notice_batch : int -> unit;
  set_relinquish_extra : int -> unit;
  request_failsafe : unit -> unit;
}

let no_tuning =
  {
    set_target_pages = (fun _ -> ());
    set_notice_batch = (fun _ -> ());
    set_relinquish_extra = (fun _ -> ());
    request_failsafe = (fun () -> ());
  }

type debug = ..

type debug += No_debug

type t = {
  name : string;
  heap : Heapsim.Heap.t;
  config : Gc_config.t;
  alloc : size:int -> nrefs:int -> kind:[ `Scalar | `Array ] -> Heapsim.Obj_id.t;
  collect : unit -> unit;
  stats : Gc_stats.t;
  footprint_pages : unit -> int;
  check_invariants : unit -> unit;
  tuning : tuning;
  debug : debug;
}

type factory = Gc_config.t -> Heapsim.Heap.t -> t

module type S = sig
  val name : string

  val doc : string

  val factory : factory
end
