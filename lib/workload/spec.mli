(** Workload specifications.

    Each paper benchmark is modelled as a parameterised synthetic
    allocator. The parameters capture what the paper's evaluation depends
    on: allocation volume, object demographics (size and reference
    counts), survival behaviour (the generational hypothesis), pointer
    mutation rate and access locality. Byte quantities are the paper's
    Table 1 values scaled by 1/8. *)

type t = {
  name : string;
  total_alloc_bytes : int;  (** stop after allocating this much *)
  immortal_bytes : int;  (** allocated up front, live forever *)
  window_bytes : int;  (** steady-state long-lived window (ring) *)
  long_frac : float;  (** fraction of allocations inserted in the window *)
  mean_size : int;  (** mean object size (geometric-ish distribution) *)
  max_size : int;  (** size cap for ordinary objects *)
  large_frac : float;  (** fraction of allocations above the LOS threshold *)
  array_frac : float;  (** fraction allocated as arrays *)
  nrefs_mean : int;  (** mean reference fields per object *)
  mutation_rate : float;  (** extra pointer stores per allocation *)
  access_rate : float;  (** reads of live objects per allocation *)
  cold_access_frac : float;
      (** probability an access goes to the cold immortal data instead of
          the hot window *)
  paper_min_heap_bytes : int;
      (** the paper's Table 1 minimum heap, scaled 1/8 — the unit for
          relative-heap-size sweeps *)
  seed : int;
}

val scale_volume : t -> float -> t
(** Scale the allocation volume (not the live set) — used by the quick
    bench mode. *)

val live_estimate_bytes : t -> int
(** Immortal plus window bytes: the steady-state live set. *)

val pp : Format.formatter -> t -> unit

val of_file : string -> t
(** Load a spec from a [key = value] file (lines starting with [#] are
    comments). Unset keys take the pseudoJBB-like defaults; unknown keys,
    and a [max_size] that is not positive, raise [Failure]. Keys are the
    record's field names. *)

val to_file : t -> string -> unit
