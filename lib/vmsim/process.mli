(** Simulated processes.

    A process owns pages (the reverse-mapping patch of §4.1 lets the
    kernel attribute pages to processes) and may register for paging
    signals, as the paper's runtime does: a pre-eviction notice delivered
    just before a page's table entry is unmapped, a notice when a page of
    its becomes resident again, and protection-fault upcalls for pages it
    has [mprotect]ed. Processes that never register (the baseline
    collectors) are evicted from silently — the stock-kernel behaviour. *)

type t

type handlers = {
  on_eviction_notice : int -> unit;
      (** [on_eviction_notice page] fires while the page is still resident;
          the handler may touch the page to veto, discard other pages, or
          relinquish pages. *)
  on_resident : int -> unit;
      (** Fires after one of this process's evicted pages is reloaded. *)
  on_protection_fault : int -> unit;
      (** Fires when this process touches a page it protected; the handler
          is expected to unprotect it. *)
}

val create : pid:int -> t

val pid : t -> int

val register : t -> handlers -> unit
(** Register paging-event handlers ("the application registers itself with
    the operating system", §4.1). At most one registration is active. *)

val handlers : t -> handlers option

val stats : t -> Vm_stats.t
(** Per-process paging counters. *)
