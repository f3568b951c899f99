(** Typed collector registry.

    Each collector the harness can instantiate is described by one
    {!info} record; [all] is the single source of truth, and the legacy
    string lists ([names], [ablation_names]) are derived from it. *)

type info = {
  name : string;  (** unique registry key, e.g. ["BC-fixed"] *)
  family : string;  (** base collector, e.g. ["BC"] *)
  variant : string option;  (** [None] for the canonical configuration *)
  ablation : bool;  (** BC ablation (bench-only), not a headline entry *)
  doc : string;  (** one-line description for [bcgc list] *)
  config : heap_bytes:int -> Gc_common.Gc_config.t;
  factory : Gc_common.Collector.factory;
}

val all : info list
(** Every registered collector, headline entries first, then the BC
    ablations, in presentation order. *)

val find : string -> info option

val names : string list
(** Headline collector names, including variants:
    ["BC"; "BC-resize"; "BC-fixed"; "GenMS"; "GenMS-fixed"; "GenMS-coop";
     "GenCopy"; "GenCopy-fixed"; "CopyMS"; "MarkSweep"; "SemiSpace"].
    "GenMS-coop" is the Cooper-style discard-only cooperative collector
    of the paper's related work (§6). Derived from {!all}. *)

val ablation_names : string list
(** BC ablation variants (bench targets only). Derived from {!all}. *)

val create : name:string -> heap_bytes:int -> Heapsim.Heap.t -> Gc_common.Collector.t
(** Instantiate a collector by name with an appropriate configuration.
    Raises [Invalid_argument] on unknown names. *)

val instantiate : info -> Machine.process -> Gc_common.Collector.t
(** Build the collector described by [info] over a machine process's
    heap (sized by the process's [heap_bytes]) and attach it to the
    process. The typed path: resolve the [info] once, instantiate as
    many times as there are processes — no string-keyed double
    lookup. *)

val instantiate_name : name:string -> Machine.process -> Gc_common.Collector.t
(** [instantiate] after a single [find]; raises [Invalid_argument] on
    unknown names. *)

val config_for : name:string -> heap_bytes:int -> Gc_common.Gc_config.t
