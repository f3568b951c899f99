(** Space tags stored in each object's collector-defined space word.

    {!Alloc} tags every new object, and the collectors retag the objects
    they move. Shared so that collectors, tracing helpers and tests read
    object placement the same way. *)

val nursery : int
(** Bump-allocated young space (also semispace / copy space). *)

val mature : int
(** Mark-sweep or mature semispace. *)

val los : int
(** Large object space. *)
