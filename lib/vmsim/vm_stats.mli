(** Paging-event counters of one process (see {!Process.stats}). *)

type t = {
  mutable minor_faults : int;
  mutable major_faults : int;
  mutable protection_faults : int;
  mutable evictions : int;  (** pages written out / unmapped under pressure *)
  mutable discards : int;  (** pages freed via [madvise_dontneed] *)
  mutable relinquished : int;  (** pages surrendered via [vm_relinquish] *)
  mutable eviction_notices : int;  (** pre-eviction signals delivered *)
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable forced_evictions : int;
      (** desperation evictions that overrode owner vetoes *)
  mutable swap_retries : int;
      (** swap I/O attempts retried after a transient error *)
  mutable swap_stalls : int;
      (** evictions abandoned because the swap device stayed unavailable *)
  mutable resident_pages : int;
      (** gauge: pages of this owner currently backed by a frame *)
  mutable peak_resident_pages : int;
      (** high-water mark of [resident_pages] since creation or [reset] *)
}

val create : unit -> t

val add_resident : t -> int -> unit
(** Adjust the [resident_pages] gauge by a (possibly negative) delta,
    updating [peak_resident_pages]. Called by the VMM on every
    residency transition; one call per page. *)

val reset : t -> unit
(** Zero the counters. [resident_pages] is a gauge and survives — the
    pages are still mapped — and [peak_resident_pages] restarts from
    the current gauge value. *)

val pp : Format.formatter -> t -> unit
