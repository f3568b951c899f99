(** The heap substrate a collector builds on.

    Binds an {!Object_table}, a {!Page_map}, an {!Address_space} and one
    simulated process of a {!Vmsim.Vmm}. All mutator accesses go through
    this module so that page touching (hence LRU state and paging) and the
    collector's write barrier are applied uniformly.

    Collector-side operations ([place], [displace], [touch_object], …)
    account no mutator cost; collectors charge their own work to the
    clock. *)

type t

type write_barrier =
  src:Obj_id.t -> field:int -> old_target:Obj_id.t -> target:Obj_id.t -> unit

val create : Vmsim.Vmm.t -> Vmsim.Process.t -> t

val create_with :
  Vmsim.Vmm.t -> Vmsim.Process.t -> address_space:Address_space.t -> t
(** Like {!create} but sharing a page-range allocator with other heaps on
    the same machine (page numbers are machine-global). *)

val vmm : t -> Vmsim.Vmm.t

val process : t -> Vmsim.Process.t

val objects : t -> Object_table.t

val page_map : t -> Page_map.t

val address_space : t -> Address_space.t

val clock : t -> Vmsim.Clock.t

val costs : t -> Vmsim.Costs.t

(** {1 Tracer state} *)

val grey_stack : t -> Obj_id.t Repro_util.Vec.t
(** The heap's one grey stack. {!Gc_common.Tracer.run} owns it: it
    clears it on entry and keeps its capacity, so a steady collection
    does not regrow it. *)

val tracing : t -> bool
(** Whether a trace of this heap is running. *)

val set_tracing : t -> bool -> unit
(** Set by {!Gc_common.Tracer.run} for the length of a trace. *)

(** {1 Object placement (collector side)} *)

val first_page : t -> Obj_id.t -> int
(** The first page the placed object spans. Like {!iter_pages} and
    {!touch_object}, it reads the object's row once
    ({!Object_table.span}) and raises [Invalid_argument] on a dead or
    unplaced object. *)

val iter_pages : t -> Obj_id.t -> (int -> unit) -> unit
(** Pages spanned by the object at its current address. *)

val place : t -> Obj_id.t -> addr:int -> unit
(** Set the object's address and, when its first page is indexed,
    register it in the page map ({!Page_map.add}); on an unindexed page
    (see {!Page_map.unindex_range}) only the address is set. The object
    must be unplaced (fresh or displaced). *)

val displace : t -> Obj_id.t -> unit
(** Clear the object's address, keeping it alive (pre-move), and remove
    it from the page map when its first page is indexed. *)

val free_object : t -> Obj_id.t -> unit
(** Displace (if placed) and recycle the object. *)

val touch_object : t -> ?write:bool -> Obj_id.t -> unit
(** Touch every page the object spans (collector-side: no mutator cost,
    but faults are charged as usual). *)

(** {1 Mutator interface} *)

val set_write_barrier : t -> write_barrier -> unit

val set_roots : t -> ((Obj_id.t -> unit) -> unit) -> unit
(** Install the mutator's root enumerator. *)

val iter_roots : t -> (Obj_id.t -> unit) -> unit

val read_ref : t -> Obj_id.t -> int -> Obj_id.t
(** Mutator field read: charges access cost and touches the object's
    pages. *)

val write_ref : t -> Obj_id.t -> int -> Obj_id.t -> unit
(** Mutator field write: charges access cost, touches the object's pages
    for writing, fires the collector's write barrier, then stores. *)

val access : t -> ?write:bool -> Obj_id.t -> unit
(** Mutator access to an object's non-reference payload. *)
