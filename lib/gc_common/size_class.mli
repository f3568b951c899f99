(** The paper's segregated size classes (§3).

    "Each allocation size up to 64 bytes has its own size class. Larger
    object sizes fall into a range of 37 size classes; for all but the
    largest five, these have a worst-case internal fragmentation of 15%.
    The five largest classes have between 16% and 33% worst-case internal
    fragmentation." Objects above {!max_cell} (8180 bytes: half a
    superpage minus metadata) go to the large object space.

    Sizes are multiples of the 4-byte word of the paper's 32-bit
    testbed. *)

val word : int
(** Allocation granularity (4 bytes). *)

val max_cell : int
(** Largest cell size handled by the segregated classes (8180). *)

val cell_sizes : int array
(** Ascending cell sizes, one per class. *)

val count : int
(** Number of classes (15 small + 37 large = 52). *)

val small_count : int
(** Number of one-size-per-class small classes (sizes 8..64). *)

val class_of_size : int -> int
(** Index of the smallest class whose cell fits [size]; [-1] above
    {!max_cell}. O(1). *)

val cell_size : int -> int
(** Cell size of a class index. *)

val internal_fragmentation : int -> float
(** Worst-case internal fragmentation of a class: wasted fraction for the
    smallest request mapped to it. *)
