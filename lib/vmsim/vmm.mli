(** The simulated virtual memory manager.

    Models the paper's extended Linux 2.4.20 kernel (§4.1): an approximate
    global LRU with an active list (clock / second chance) and an inactive
    FIFO, batched reclaim, demand zero-fill, a swap device, and the
    cooperative extensions the paper adds — pre-eviction notices delivered
    to registered processes, made-resident notices, [vm_relinquish],
    [madvise(MADV_DONTNEED)], [mprotect] upcalls and [mlock] pinning.

    Every page access in the simulation goes through {!touch}; this is the
    single point where reference bits, dirty bits, faults and the disk
    penalty are accounted.

    The address space is backed by {!Page_table}, a sparse two-level
    chunked table: memory is proportional to the pages actually mapped,
    so giant (2^30-page) address spaces are cheap.

    Every paging event is counted once, in the {!Vm_stats} record of the
    process that owns the page ({!Process.stats}). *)

(** The sparse two-level page table.

    A root array of chunk pointers; each chunk holds the struct-of-arrays
    page metadata (state bytes, packed {!Page_flags}, owner pids) for a
    fixed [chunk_pages]-page span and is materialised lazily on first
    {!Page_table.map}. Never-materialised chunks all alias one shared
    all-zero {!Page_table.sentinel}, so lookups anywhere in the address
    space are plain array indexing and never allocate.

    Invariants:
    - [owner_pid t page = 0] means the page was {e never} mapped (pid 0 is
      reserved); a page unmapped after use keeps its last owner with state
      unmapped, preserving the "never mapped" / "unmapped after use"
      distinction the error paths rely on.
    - The sentinel is never written; every writer materialises first.
    - A chunk, once materialised, is never replaced — pointers into its
      arrays (e.g. the VMM's touch-path chunk cache) stay valid for the
      table's lifetime.

    The module is exported for introspection and tests. Treat the chunk
    arrays as read-only outside [Vmm]: like {!Page_flags.set}, they are
    exposed raw so hot paths can index them without a cross-module
    call. *)
module Page_table : sig
  type t

  type chunk = {
    states : Bytes.t;  (** one state byte per page *)
    flags : Page_flags.set;  (** one packed flag byte per page *)
    owners : int array;  (** owner pid per page; 0 = never mapped *)
  }

  val chunk_shift : int
  (** [page lsr chunk_shift] is the chunk index. *)

  val sentinel : chunk
  (** The shared all-zero chunk that never-materialised slots alias. *)

  val create : unit -> t

  val state : t -> int -> int
  (** Page state byte; 0 (unmapped) for any never-materialised page,
      including pages beyond the root array and negative pages. *)

  val owner_pid : t -> int -> int
  (** Owning pid, or 0 if the page was never mapped. *)

  val chunk_of : t -> int -> chunk
  (** The chunk covering a page — possibly {!sentinel}. Total for every
      [int], so lookups need no bounds check of their own. *)

  val is_materialized : t -> int -> bool

  val map : t -> page:int -> pid:int -> unit
  (** Low-level mapping: stamp the page untouched with the given owner,
      materialising its chunk. Validation (already-mapped checks,
      accounting) is the caller's job — [Vmm.map_range] is the checked
      entry point. *)

  val materialized_chunks : t -> int
  (** Number of materialised chunks — the table's real memory footprint
      ([1 lsl chunk_shift] pages of metadata each) regardless of how
      high the page numbers reach. *)

  val iter_chunks : t -> (chunk_index:int -> chunk -> unit) -> unit
  (** Iterate materialised chunks in address order; sentinel (never
      touched) chunks are skipped, so iteration is O(touched pages). *)
end

type t

exception Thrashing of string
(** Raised when a frame is needed but every resident page is pinned. *)

(** {1 Construction} *)

val create :
  ?costs:Costs.t ->
  ?reclaim_batch:int ->
  ?swap_capacity_pages:int ->
  ?faults:Faults.Fault_plan.t ->
  clock:Clock.t ->
  frames:int ->
  unit ->
  t
(** [create ~clock ~frames ()] builds a VMM with [frames] physical page
    frames. [reclaim_batch] (default 16) is the eviction cluster size: the
    kernel frees that many frames per reclaim pass, so available memory
    fluctuates in steps, as §3.4.3 describes. [swap_capacity_pages] bounds
    the swap device (default unlimited); a capacity-full device fails
    evictions gracefully (the reclaimer moves on to other victims and
    counts a stall) rather than raising out of the paging path.

    [faults] attaches a fault-injection plan: pre-eviction and
    made-resident notices may then be dropped, delayed, duplicated or
    reordered, and swap I/O may fail transiently or reject writes during
    scripted device-full episodes. Delayed/duplicated notices are
    delivered at the next top-level {!touch}. Protection-fault upcalls are
    never faulted: they model synchronous hardware traps. *)

val create_process : t -> Process.t

val clock : t -> Clock.t

val costs : t -> Costs.t

val swap : t -> Swap.t
(** The swap device (occupancy and I/O accounting). *)

(** {1 Address space} *)

val map_range : t -> Process.t -> first_page:int -> npages:int -> unit
(** Map fresh zero-fill pages owned by the process ([mmap]). *)

val unmap_range : t -> first_page:int -> npages:int -> unit

val owner : t -> int -> Process.t option

(** {1 Access} *)

val touch : t -> ?write:bool -> int -> unit
(** [touch t page] performs a memory access: sets the reference bit,
    zero-fills on first touch (minor fault), reloads from swap (major
    fault, charging the disk penalty) and delivers protection-fault and
    made-resident upcalls as appropriate. *)

val is_resident : t -> int -> bool
(** [mincore]: true when the page is in a physical frame. *)

val is_swapped : t -> int -> bool

val is_protected : t -> int -> bool

val is_dirty : t -> int -> bool

(** {1 Cooperative system calls} *)

val madvise_dontneed : t -> int -> unit
(** Discard the page's contents: its frame (if any) is freed without
    writeback and its next touch zero-fills. No-op on unmapped pages. *)

val vm_relinquish : t -> int list -> unit
(** The paper's new system call: voluntarily surrender pages. They move to
    the tail of the inactive queue and are evicted on the next reclaim pass
    without a further notice. *)

val mprotect : t -> int -> protect:bool -> unit
(** Toggle access protection. Touching a protected page delivers the
    owner's protection-fault upcall (the handler is expected to
    unprotect). *)

val mlock : t -> int -> unit
(** Touch and pin the page: it becomes unevictable until {!munlock}. *)

val munlock : t -> int -> unit

(** {1 Capacity} *)

val capacity : t -> int

val set_capacity : t -> int -> unit
(** Change the number of physical frames, reclaiming immediately when
    shrinking below current residency. *)

val resident_count : t -> int

val free_frames : t -> int

val pinned_count : t -> int

(** {1 Tracing} *)

val set_trace : t -> Telemetry.Sink.t option -> unit
(** Attach (or detach) a telemetry sink. With no sink attached, every
    emission site is a single branch and return — no allocation and no
    clock advance, so tracing cannot perturb virtual-time results. *)

val trace : t -> Telemetry.Sink.t option

(** {1 Statistics} *)

val count_resident_owned : t -> Process.t -> int
(** Resident pages owned by a process: an O(1) read of the process's
    [Vm_stats.resident_pages] gauge, which every residency transition
    maintains. Debug builds cross-check it against a scan of the
    materialised chunks. *)

val page_table : t -> Page_table.t
(** The backing sparse page table, for introspection (e.g. asserting that
    a giant address space materialised only O(touched) chunks). Mutate it
    only through the [Vmm] entry points. *)

val coldest_pages : t -> owner:Process.t -> n:int -> int list
(** Up to [n] of the owner's reclaim-coldest resident pages, coldest
    first (inactive list from its tail, then the active list from its
    tail). Supports the paper's §7 exploration of smarter victim
    selection: the collector may prefer a slightly warmer page whose
    eviction creates less false garbage. *)
