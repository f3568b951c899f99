(** Appel-style generational collection with a copying mature space
    (Jikes RVM's GenCopy).

    Nursery survivors are evacuated into the current mature semispace;
    full collections flip the mature semispaces. Half the mature budget is
    always a copy reserve. *)

val factory : Gc_common.Collector.factory

val name : string

val doc : string
