(** Simulated virtual address space: a monotone page-range allocator.

    Collector spaces reserve page ranges here; ranges are never reused at
    this level (a space that recycles pages does so internally, as real
    heap spaces do within their mappings). *)

type t

val create : ?first_page:int -> unit -> t

val reserve : t -> npages:int -> int
(** Reserve a contiguous page range; returns the first page number. *)

val reserve_aligned : t -> npages:int -> align:int -> int
(** Reserve with the first page aligned to a multiple of [align] pages
    (used for superpages, located by bit-masking in the paper). *)
