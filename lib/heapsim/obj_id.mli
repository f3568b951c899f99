(** Object identities.

    Simulated heap objects are named by dense integers. References between
    objects are object ids rather than raw addresses; an object's current
    simulated address lives in the {!Object_table} and changes when a
    collector moves it. [null] is the null reference. *)

type t = int

val null : t

val is_null : t -> bool
