type handlers = {
  on_eviction_notice : int -> unit;
  on_resident : int -> unit;
  on_protection_fault : int -> unit;
}

type t = {
  pid : int;
  mutable handlers : handlers option;
  stats : Vm_stats.t;
}

let create ~pid = { pid; handlers = None; stats = Vm_stats.create () }

let pid t = t.pid

let register t h = t.handlers <- Some h


let handlers t = t.handlers

let stats t = t.stats
