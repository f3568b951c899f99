(** The bookmarking collector (BC) — the paper's contribution.

    A generational collector with a bump-pointer nursery, a compacting
    mature space over {!Superpage}s and a page-based large object space,
    that cooperates with the virtual memory manager to eliminate
    GC-induced paging:

    - it reacts to pre-eviction notices by discarding empty pages, by
      shrinking its heap to the current footprint, or — when a
      non-discardable page must go — by {e bookmarking}: scanning the
      victim for outgoing pointers, summarising them as single bits in the
      targets' headers plus per-superpage incoming counters, then
      surrendering the page via [vm_relinquish] (§3.3–3.4);
    - full collections start from bookmarked objects as secondary roots,
      never touch evicted pages, and sweep only resident pages (§3.4.1);
    - bookmarks are cleared when evicted pages reload (§3.4.2);
    - when mark-sweep frees too little it falls back to a two-pass
      compacting collection whose targets include every superpage holding
      bookmarked objects or evicted pages (§3.2, §3.4.1);
    - completeness is preserved by a fail-safe full traversal that
      discards all bookmarks and touches evicted pages, used only on heap
      exhaustion (§3.5).

    The [bookmarks_enabled = false] configuration is the paper's
    "BC w/Resizing only" variant: it still discards empty pages and limits
    the heap to its footprint, but pays faults like the baselines when the
    collector visits evicted pages. *)

val name : string

val doc : string

val factory : Gc_common.Collector.factory
(** Builds a BC instance according to [config.bc] and registers its
    paging-signal handlers on the heap's process. *)

(** {1 Introspection (tests, experiments)} *)

type debug = {
  superpages : Superpage.t;
  residency : Residency.t;
  bookmarks : Bookmarks.t;  (** the covers and counts behind the bits *)
  evicted_pages : unit -> int;
  failsafe_count : unit -> int;
  target_footprint : unit -> int option;
  spurious_resident : unit -> int;
      (** made-resident signals ignored because the kernel disagreed *)
  compact : unit -> unit;
      (** run a compacting collection now, as the escalation ladder's
          third rung does *)
}

val debug_of : Gc_common.Collector.t -> debug
(** Internal state of a BC collector instance, for tests and experiment
    instrumentation. Raises [Invalid_argument] on non-BC collectors. *)
