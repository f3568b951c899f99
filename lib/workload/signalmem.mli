(** The paper's [signalmem] pressure generator (§5.1).

    "signalmem uses mmap to allocate a large array, touches these pages,
    and then pins them in memory with mlock." A separate simulated
    process pins pages on a virtual-time schedule, squeezing the memory
    available to the measured runtime. *)

type t

val create : Vmsim.Vmm.t -> Heapsim.Address_space.t -> t

val pin_pages : t -> int -> unit
(** Pin [n] more pages right now (mmap + touch + mlock). *)

val unpin_pages : t -> int -> unit
(** Release the [n] most recently pinned pages (a pressure spike
    receding): they are unlocked and discarded ([madvise_dontneed]), so
    their frames return to the free pool immediately — a receding burst
    models a competing process freeing its memory, not merely making it
    evictable. *)

val unpin_all : t -> unit

val pinned_pages : t -> int
