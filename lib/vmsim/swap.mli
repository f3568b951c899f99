(** The swap device: slot accounting for evicted pages.

    Tracks which pages currently have a swap copy, the device's occupancy
    high-water mark, and I/O counts. The paper's testbed had 2 GB of local
    swap; an optional capacity models device exhaustion, and an optional
    {!Faults.Fault_plan} injects transient I/O errors and scripted
    device-full episodes. *)

type t

exception Full
(** Raised by {!write} when the device is at capacity, or during an
    injected device-full episode. *)

exception Io_error
(** Raised by {!write}/{!read} on an injected transient I/O error. The
    caller may retry: injected errors are bounded, never permanent. *)

val create : ?capacity_pages:int -> ?faults:Faults.Fault_plan.t -> unit -> t
(** [capacity_pages] defaults to unlimited; [faults] to no injection. *)

val write : t -> int -> unit
(** Store (or refresh) the page's swap copy. *)

val read : t -> int -> unit
(** Count a read of the page's copy; the copy remains valid. Raises
    [Invalid_argument] when the page has no copy. *)

val drop : t -> int -> unit
(** Invalidate the page's copy ([madvise], unmap). No-op when absent. *)

val has_copy : t -> int -> bool

val occupancy_pages : t -> int

val high_water_pages : t -> int

val reads : t -> int
