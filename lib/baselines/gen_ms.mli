(** Appel-style generational collection with a mark-sweep mature space
    (Jikes RVM's GenMS) — the paper's high-throughput baseline.

    A bump-pointer nursery absorbs allocation; nursery collections
    evacuate survivors into segregated-fit cells via a remembered set.
    Full-heap collections mark everything and sweep every mature page,
    which is what makes GenMS page catastrophically under memory
    pressure. *)

val factory : Gc_common.Collector.factory

val name : string

val doc : string

val fixed_nursery_name : string
(** Display name used for the fixed-size-nursery variant (Figure 5(b)). *)

(** CopyMS (Jikes RVM): "a variant of GenMS which performs only whole
    heap garbage collections". This is GenMS's non-generational
    configuration. Objects are bump-allocated into the nursery, which
    acts as a copy space; every collection is a full one that evacuates
    survivors into the mark-sweep space. There is no write barrier and
    no remembered set. *)
module Copy_ms : Gc_common.Collector.S
