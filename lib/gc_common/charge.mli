(** Charging GC work to the virtual clock. *)

val setup : Heapsim.Heap.t -> unit
(** Fixed per-collection cost (root scanning, bookkeeping). *)

val object_visit : Heapsim.Heap.t -> unit
(** One object marked or scanned. *)

val copy : Heapsim.Heap.t -> bytes:int -> unit
(** One object of [bytes] copied or compacted (includes the visit). *)

val page_sweep : Heapsim.Heap.t -> unit
(** One page swept. *)
