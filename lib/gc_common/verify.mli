(** Post-collection heap/VM invariant verifier.

    Cross-checks the three views of the heap that must agree no matter
    what the kernel (or an injected fault plan) did: the object table,
    the page map, and the VMM's page states. Runs after collections in
    tests (after every BC collection under [BC_ORACLE=1]) and under the
    CLI's [--verify] flag; collector-specific invariants (BC's
    ledger/counter accounting) live with each collector in
    {!Collector.t.check_invariants}. *)

val heap : Heapsim.Heap.t -> unit
(** Raises [Failure "verify: ..."], one line naming the object or page at
    fault, on the first violation found:

    - a live object without a placement;
    - a live object whose first page is unindexed that runs past the end
      of that unindexed range, or one whose first page is indexed that
      spans an unindexed page ({!Heapsim.Page_map.unindex_range});
    - on an indexed page hosting live objects: a page-map entry for a
      dead object, for an object that does not actually span the page,
      or for an object listed twice; a live object whose first page it
      is and whose [page_slot] does not name its entry there
      ({!Heapsim.Page_map.remove} trusts that slot); a live object that
      spans the page but is missing from its bucket;
    - two live objects overlapping in the address space;
    - a page hosting live objects that is unmapped, or owned by a
      process other than the heap's;
    - an object reachable from the roots holding a reference to a freed
      object (a dangling pointer — the failure mode of releasing
      bookmark covers too early).

    Each bucket is read once, so the page-map checks cost time linear in
    the live objects and their pages' entries. *)
