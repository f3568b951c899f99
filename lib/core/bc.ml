module Vec = Repro_util.Vec
module Bitset = Repro_util.Bitset
module Collector = Gc_common.Collector
module Charge = Gc_common.Charge
module Gc_stats = Gc_common.Gc_stats
module Gc_config = Gc_common.Gc_config
module Space_tag = Gc_common.Space_tag

let name = "BC"

let doc = "bookmarking collector (the paper's BC)"

let resizing_only_name = "BC-resize"

let los_threshold = Gc_common.Size_class.max_cell

(* Never shrink the target footprint below this many pages. *)
let footprint_floor_pages = 32

(* Each array lists what one eviction scan did, newest first. *)
type ledger_entry = {
  sps : Superpage.sp array;  (* incoming counters incremented *)
  targets : Heapsim.Obj_id.t array;  (* resident targets whose bookmark
                                        count we incremented *)
  self : Heapsim.Obj_id.t array;  (* conservative self-bookmarks *)
  nonsp : bool;  (* counted one global cover for non-resident targets
                    outside the superpage space (nursery / LOS) *)
}

(* Compaction's census, indexed by superpage: the marked and dead
   objects on each, whether it must be a target and whether it was
   chosen, plus the marked objects ([demand]) and the chosen targets
   ([pools]) of each (size class, kind). Each instance owns one, which
   [plan_compaction] grows to the superpage count and resets. *)
type census = {
  mutable marked_on : int array;
  mutable dead_on : int array;
  mutable forced : bool array;
  mutable is_target : bool array;
  demand : int array;
  pools : Superpage.sp Vec.t array;
}

type t = {
  heap : Heapsim.Heap.t;
  config : Gc_config.t;
  opts : Gc_config.bc_opts;
  stats : Gc_stats.t;
  nursery : Gc_common.Bump_space.t;
  nursery_objects : Heapsim.Id_list.t;
  sp_space : Superpage.t;
  los : Gc_common.Large_object_space.t;
  cards : Gc_common.Card_table.t;
  wbuf : Gc_common.Write_buffer.t;
  residency : Residency.t;
  discarded : Bitset.t;  (* madvised pages: non-resident but cheap to reuse *)
  ledger : (int, ledger_entry) Hashtbl.t;
      (* evicted page -> exactly which superpage counters and which
         objects' bookmark counts its eviction scan incremented. The paper
         recomputes this from the reloaded page's pointers; we keep an
         exact ledger so the invariants survive object motion between
         eviction and reload. *)
  bookmark_counts : (int, int) Hashtbl.t;
      (* object id -> number of evicted pages whose summary covers it;
         the object-header bookmark bit is set iff the count is positive.
         The paper stores only the bit and clears approximately; exact
         counts keep clearing sound in every interleaving. *)
  empty_candidates : int Vec.t;
  on_page : Heapsim.Obj_id.t Vec.t;
      (* a page scan's copy of the page's objects (sweep, eviction and
         reload scans). A scan fills it after touching the page: the
         touch can deliver eviction notices, whose scans refill it. *)
  scan_sps : Superpage.sp Vec.t;
  scan_targets : Heapsim.Obj_id.t Vec.t;
  scan_self : Heapsim.Obj_id.t Vec.t;
      (* an eviction scan's records, in the order it made them, until
         they are copied into its ledger entry. Filled after the
         victim's touch, like [on_page]. *)
  peers : int Vec.t;  (* an aggressive discard's candidate pages *)
  census : census;  (* compaction's per-superpage counts *)
  cards_requeued : int Vec.t;
      (* a nursery collection's cards on evicted pages, marked again
         once the card table is drained *)
  pending_roots : Heapsim.Obj_id.t Vec.t;
      (* objects bookmarked while a trace is running; re-seeded so mid-GC
         evictions cannot hide connectivity *)
  pending_round : Heapsim.Obj_id.t Vec.t;
      (* the pending roots one further trace round starts from *)
  usable : int -> bool;  (* [resident_ok t], built once *)
  mutable target_footprint : int;  (* pages; -1 = the config limit *)
  mutable controller_cap : int option;
      (* external footprint cap (controller knob); composes with
         [target_footprint] by [min] so §3.3.3's own adaptation keeps
         running below it rather than clobbering it on the next notice *)
  mutable notice_batch : int;
      (* empty pages surrendered per eviction notice (controller knob;
         default 1 = historical behaviour) *)
  mutable relinquish_extra : int;
      (* extra coldest pages bookmarked-and-evicted per notice beyond the
         victim (controller knob; default 0 = historical behaviour) *)
  mutable epoch : int;
  mutable in_gc : bool;
  mutable gc_requested : bool;
  mutable scans : int;
      (* eviction scans so far: each takes the next count as the stamp
         it leaves in [Superpage.sp.scan] *)
  nonsp_deferred : Heapsim.Obj_id.t Vec.t;
  mutable nonsp_incoming : int;
      (* evicted pages with pointers to non-resident nursery/LOS targets *)
  mutable evicted_count : int;
  mutable failsafe_count : int;
  mutable failsafe_needed : bool;
      (* set when an unreliable kernel left our accounting inconsistent
         (counter underflow, handler failure); the next collection runs
         the §3.5 fail-safe, which rebuilds liveness from scratch *)
  mutable spurious_resident : int;
      (* made-resident signals for pages the kernel does not actually
         hold — acting on one would release covers still needed *)
  mutable reconciled : int;
      (* lost notices detected and replayed against kernel truth *)
  mutable handler_faults : int;
      (* exceptions swallowed inside paging-signal handlers *)
}

(* ------------------------------------------------------------------ *)
(* Residency                                                           *)

let resident_ok t page =
  Residency.is_resident t.residency page || Bitset.mem t.discarded page

(* The object predicates below run once per marked, swept, scanned or
   placed object, so they walk the object's pages in loops, as
   [Heap.touch_object] does, and build no closure. *)

(* Whether [ok] holds for every page from [page] to [last]. *)
let rec pages_ok ok page last =
  page > last || (ok page && pages_ok ok (page + 1) last)

(* [pages_ok (resident_ok t)] without the partial application. *)
let rec pages_resident t page last =
  page > last || (resident_ok t page && pages_resident t (page + 1) last)

(* The placed object's address, and its last page. *)
let placed_addr t id =
  let addr = Heapsim.Object_table.addr (Heapsim.Heap.objects t.heap) id in
  assert (addr >= 0);
  addr

let last_page t id addr =
  Vmsim.Page.of_addr
    (addr + Heapsim.Object_table.size (Heapsim.Heap.objects t.heap) id - 1)

(* Whether [ok] holds for every page the object spans. *)
let all_pages t id ok =
  let addr = placed_addr t id in
  pages_ok ok (Vmsim.Page.of_addr addr) (last_page t id addr)

let obj_resident t id =
  let addr = placed_addr t id in
  pages_resident t (Vmsim.Page.of_addr addr) (last_page t id addr)

(* Track the pages of a freshly placed object in the residency map. *)
let note_placed t id =
  let addr = placed_addr t id in
  for page = Vmsim.Page.of_addr addr to last_page t id addr do
    Bitset.clear t.discarded page;
    Residency.mark_resident t.residency page
  done

(* A page left memory with its objects still on it. *)
let note_evicted t page =
  Residency.mark_evicted t.residency page;
  Bitset.clear t.discarded page;
  Superpage.note_page_evicted t.sp_space page;
  t.evicted_count <- t.evicted_count + 1

(* The superpage space's on_acquire hook: runs once for each freshly
   mapped superpage; a recycled superpage never reaches it. *)
let track_new_superpage t (sp : Superpage.sp) =
  for
    page = sp.Superpage.first_page
    to sp.Superpage.first_page + Vmsim.Page.pages_per_superpage - 1
  do
    Bitset.clear t.discarded page;
    Residency.mark_resident t.residency page
  done;
  (* metadata write: the header page is touched and stays resident *)
  Vmsim.Vmm.touch (Heapsim.Heap.vmm t.heap) ~write:true
    sp.Superpage.first_page

(* ------------------------------------------------------------------ *)
(* Heap sizing (§3.3.3)                                                *)

let effective_heap_pages t =
  let config_pages = Gc_config.heap_pages t.config in
  let own =
    if t.target_footprint < 0 then config_pages
    else
      Int.min config_pages (Int.max t.target_footprint footprint_floor_pages)
  in
  match t.controller_cap with
  | None -> own
  | Some cap -> Int.min own (Int.max cap footprint_floor_pages)

let min_nursery_pages =
  Vmsim.Page.count_for_bytes Baselines.Gen_shared.min_nursery_bytes

let mature_pages t =
  Superpage.pages_acquired t.sp_space
  + Gc_common.Large_object_space.pages_in_use t.los

let total_pages t = mature_pages t + Gc_common.Bump_space.used_pages t.nursery

let nursery_limit t =
  let effective_bytes = effective_heap_pages t * Vmsim.Page.size in
  match t.config.Gc_config.nursery with
  | Gc_config.Fixed n -> Int.max n Baselines.Gen_shared.min_nursery_bytes
  | Gc_config.Appel ->
      let free = effective_bytes - (mature_pages t * Vmsim.Page.size) in
      Int.max (free / 2) Baselines.Gen_shared.min_nursery_bytes

let grow_sp t () =
  let needed = mature_pages t + Vmsim.Page.pages_per_superpage in
  if needed <= effective_heap_pages t - min_nursery_pages then true
  else begin
    let config_pages = Gc_config.heap_pages t.config in
    if needed <= config_pages - min_nursery_pages then begin
      (* growing past the footprint target "when this is necessary for
         program completion" (§3.3.3) — at the price of paging *)
      t.target_footprint <- needed + min_nursery_pages;
      true
    end
    else false
  end

let shrink_target t =
  (* "uses the new estimate as the target footprint" (§3.3.3): the target
     tracks the current footprint rather than ratcheting monotonically *)
  let current = Residency.footprint_pages t.residency in
  t.target_footprint <- max footprint_floor_pages (current - 1)

(* ------------------------------------------------------------------ *)
(* Empty-page discarding (§3.3.2, §3.4.3)                              *)

let page_has_objects t page =
  Heapsim.Page_map.count_on (Heapsim.Heap.page_map t.heap) page > 0

let header_in_use t page =
  Superpage.is_header_page t.sp_space page
  &&
  match Superpage.sp_of_page t.sp_space page with
  | Some sp -> sp.Superpage.cells_total > 0
  | None -> false

let discardable t page =
  Residency.is_resident t.residency page
  && (not (header_in_use t page))
  && (not (page_has_objects t page))
  && (Superpage.owns_page t.sp_space page
     || Gc_common.Bump_space.owns_page t.nursery page)

let discard_page t page =
  Vmsim.Vmm.madvise_dontneed (Heapsim.Heap.vmm t.heap) page;
  Residency.mark_evicted t.residency page;
  Bitset.set t.discarded page

(* Discard [page] and, aggressively, every discardable page sharing its
   residency-bitmap word (§3.4.3). Returns how many pages were freed.
   Every peer is judged before any is discarded, in ascending order. *)
let discard_with_peers t page =
  if t.opts.Gc_config.aggressive_discard then begin
    let peers = t.peers in
    Vec.clear peers;
    Residency.word_resident t.residency page peers;
    let kept = ref 0 in
    for i = 0 to Vec.length peers - 1 do
      let peer = Vec.get peers i in
      if discardable t peer then begin
        Vec.set peers !kept peer;
        incr kept
      end
    done;
    for i = 0 to !kept - 1 do
      discard_page t (Vec.get peers i)
    done;
    !kept
  end
  else begin
    discard_page t page;
    1
  end

(* Pop a validated empty page from the candidate store; -1 when none is
   left. *)
let rec find_discardable t =
  if Vec.is_empty t.empty_candidates then -1
  else begin
    let page = Vec.pop t.empty_candidates in
    if discardable t page then page else find_discardable t
  end

let count_valid_candidates t ~limit =
  let n = ref 0 in
  let i = ref (Vec.length t.empty_candidates - 1) in
  while !n < limit && !i >= 0 do
    if discardable t (Vec.get t.empty_candidates !i) then incr n;
    decr i
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Bookmarking (§3.4)                                                  *)

(* Add one evicted-page cover to an object's bookmark. The lookups
   below catch [Not_found] rather than box a [find_opt] result. *)
let bookmark_ref t id =
  let objects = Heapsim.Heap.objects t.heap in
  let n =
    match Hashtbl.find t.bookmark_counts id with
    | n -> n
    | exception Not_found -> 0
  in
  Hashtbl.replace t.bookmark_counts id (n + 1);
  if n = 0 then begin
    Heapsim.Object_table.set_bookmarked objects id true;
    if t.in_gc then Vec.push t.pending_roots id
  end

(* Release one cover; the bit clears when the last cover goes (§3.4.2). *)
let bookmark_unref t id =
  let objects = Heapsim.Heap.objects t.heap in
  if Heapsim.Object_table.is_live objects id then
    match Hashtbl.find t.bookmark_counts id with
    | n when n > 1 -> Hashtbl.replace t.bookmark_counts id (n - 1)
    | _ ->
        Hashtbl.remove t.bookmark_counts id;
        Heapsim.Object_table.set_bookmarked objects id false
    | exception Not_found -> ()

let unref_all t ids =
  for i = 0 to Array.length ids - 1 do
    bookmark_unref t ids.(i)
  done

let rec unref_deferred t = function
  | [] -> ()
  | ids :: rest ->
      unref_all t ids;
      unref_deferred t rest

(* A scan buffer's contents, last pushed first. Releases walk a ledger
   entry in this order, which fixes the sequence of [bookmark_counts]
   updates and so the table's iteration order. *)
let newest_first v =
  let n = Vec.length v in
  if n = 0 then [||]
  else begin
    let a = Array.make n (Vec.get v (n - 1)) in
    for i = 1 to n - 1 do
      a.(i) <- Vec.get v (n - 1 - i)
    done;
    a
  end

(* Scan a victim page, bookmark the targets of its outgoing references,
   bump the targets' superpage incoming counters (once per target
   superpage), conservatively bookmark the page's own objects, then
   surrender the page.

   A superpage counted once by this scan carries the scan's stamp. The
   stamp is taken after the victim's touch, and nothing between it and
   the ledger write touches a page, so no eviction notice, and no scan
   nested in one, can stamp a superpage in between. For the same reason
   the scan's records can go into the instance's scan buffers, which no
   nested scan refills before the ledger entry copies them. *)
let bookmark_and_evict t victim =
  let heap = t.heap in
  let objects = Heapsim.Heap.objects heap in
  let vmm = Heapsim.Heap.vmm heap in
  (* scanning reads the victim page (still resident) *)
  Vmsim.Vmm.touch vmm ~write:false victim;
  t.scans <- t.scans + 1;
  let stamp = t.scans in
  let incremented = t.scan_sps in
  let counted = t.scan_targets in
  let selves = t.scan_self in
  Vec.clear incremented;
  Vec.clear counted;
  Vec.clear selves;
  let nonsp = ref false in
  let visit_ref _field target =
    (* stale references out of floating garbage may dangle *)
    if Heapsim.Object_table.is_live objects target then begin
      let resident = obj_resident t target in
      (* counters live in always-resident superpage headers, so they
         are updated for every target — even non-resident ones; the
         bookmark bit lives in the target's own header and is only
         set when that is resident (conservative page bookmarks plus
         the counter cover the rest) *)
      (match Superpage.sp_of_addr t.sp_space
               (Heapsim.Object_table.addr objects target)
       with
      | Some tsp when tsp.Superpage.scan <> stamp ->
          tsp.Superpage.scan <- stamp;
          Vec.push incremented tsp;
          tsp.Superpage.incoming <- tsp.Superpage.incoming + 1
      | Some _ -> ()
      | None ->
          (* nursery / LOS target: one global cover per victim page
             keeps their conservative self-bookmarks deferred *)
          if not resident then nonsp := true);
      if resident then begin
        bookmark_ref t target;
        Vec.push counted target
      end
    end
  in
  let on_page = t.on_page in
  Heapsim.Page_map.objects_on (Heapsim.Heap.page_map heap) victim on_page;
  for i = 0 to Vec.length on_page - 1 do
    let id = Vec.get on_page i in
    Charge.object_visit heap;
    Heapsim.Object_table.iter_refs objects id visit_ref;
    (* conservative bookmark on the evictee itself *)
    bookmark_ref t id;
    Vec.push selves id
  done;
  if !nonsp then t.nonsp_incoming <- t.nonsp_incoming + 1;
  (match Hashtbl.find t.ledger victim with
  | exception Not_found -> ()
  | stale ->
      (* the page was surrendered, reloaded behind our back and is being
         evicted again: release the previous increments first *)
      Array.iter
        (fun (sp : Superpage.sp) ->
          if sp.Superpage.incoming > 0 then
            sp.Superpage.incoming <- sp.Superpage.incoming - 1)
        stale.sps;
      unref_all t stale.targets;
      unref_all t stale.self;
      if stale.nonsp && t.nonsp_incoming > 0 then
        t.nonsp_incoming <- t.nonsp_incoming - 1);
  Hashtbl.replace t.ledger victim
    {
      sps = newest_first incremented;
      targets = newest_first counted;
      self = newest_first selves;
      nonsp = !nonsp;
    };
  note_evicted t victim;
  (* prevent the eviction race (§3.4), then surrender the page *)
  Vmsim.Vmm.mprotect vmm victim ~protect:true;
  Vmsim.Vmm.vm_relinquish vmm [ victim ]

let bookmark_and_evict t victim =
  Gc_common.Pause.span t.heap Telemetry.Event.Bookmark_scan (fun () ->
      bookmark_and_evict t victim)

(* A page of ours came back (mutator fault or protection-fault upcall):
   update residency, release its ledger entry, clear now-unnecessary
   bookmarks (§3.4.2) and re-remember its old-to-young pointers. *)
let page_reloaded t page =
  let heap = t.heap in
  let objects = Heapsim.Heap.objects heap in
  let vmm = Heapsim.Heap.vmm heap in
  if not (Vmsim.Vmm.is_resident vmm page) then
    (* A made-resident signal for a page the kernel does not hold: a
       duplicated or badly delayed notice from an unreliable channel.
       Releasing the ledger entry of a page that is still on disk would
       drop covers the next trace needs, so ignore it — the genuine
       reload will raise its own (reliable) protection-fault upcall. *)
    t.spurious_resident <- t.spurious_resident + 1
  else begin
    if not (resident_ok t page) then begin
      if t.evicted_count > 0 then t.evicted_count <- t.evicted_count - 1;
      Residency.mark_resident t.residency page;
      Bitset.clear t.discarded page;
      Superpage.note_page_resident t.sp_space page ~resident:t.usable;
      let on_page = t.on_page in
      Heapsim.Page_map.objects_on (Heapsim.Heap.page_map heap) page on_page;
      for i = 0 to Vec.length on_page - 1 do
        let id = Vec.get on_page i in
        Charge.object_visit heap;
        (* the page's pointers may include old-to-young edges whose
           bookmarks we are about to release: re-remember them *)
        if Heapsim.Object_table.nrefs objects id > 0 then
          Gc_common.Card_table.mark_addr t.cards
            (Heapsim.Object_table.addr objects id)
      done
    end;
    if Vmsim.Vmm.is_protected vmm page then
      (* protection-fault race window (§3.4), or the normal unprotect on
         the reload path *)
      Vmsim.Vmm.mprotect vmm page ~protect:false;
    (* The ledger entry goes whenever the kernel confirms the page back,
       even if our own belief already said resident — under an unreliable
       notice channel the two can disagree (a duplicated reload event, or
       a handler fault that applied the residency half of a previous
       replay); a kernel-resident page never needs covers. *)
    (match Hashtbl.find t.ledger page with
    | exception Not_found -> ()
    | entry ->
        Hashtbl.remove t.ledger page;
        let sps = entry.sps in
        for i = 0 to Array.length sps - 1 do
          let sp = sps.(i) in
          if sp.Superpage.incoming > 0 then
            sp.Superpage.incoming <- sp.Superpage.incoming - 1
          else
            (* counter underflow: some notice was lost or replayed out
               of order; schedule the fail-safe to rebuild the exact
               state rather than guessing *)
            t.failsafe_needed <- true;
          (* a superpage whose incoming count reaches zero releases its
             deferred conservative bookmarks (§3.4.2) *)
          if sp.Superpage.incoming = 0 then begin
            let deferred = sp.Superpage.deferred in
            sp.Superpage.deferred <- [];
            unref_deferred t deferred
          end
        done;
        if entry.nonsp then begin
          if t.nonsp_incoming > 0 then
            t.nonsp_incoming <- t.nonsp_incoming - 1
          else t.failsafe_needed <- true;
          if t.nonsp_incoming = 0 then begin
            for i = 0 to Vec.length t.nonsp_deferred - 1 do
              bookmark_unref t (Vec.get t.nonsp_deferred i)
            done;
            Vec.clear t.nonsp_deferred
          end
        end;
        (* release the covers of this page's resident targets *)
        unref_all t entry.targets;
        (* conservative self-bookmarks: released only once no evicted
           page can still point into this page's container (§3.4.2) *)
        if t.opts.Gc_config.conservative_clear then begin
          match Superpage.sp_of_page t.sp_space page with
          | Some sp ->
              if sp.Superpage.incoming = 0 then unref_all t entry.self
              else sp.Superpage.deferred <- entry.self :: sp.Superpage.deferred
          | None ->
              if t.nonsp_incoming = 0 then unref_all t entry.self
              else
                for i = 0 to Array.length entry.self - 1 do
                  Vec.push t.nonsp_deferred entry.self.(i)
                done
        end)
  end

(* Reconcile BC's residency beliefs with kernel truth (§3.3.1 keeps them
   "synchronised from eviction notices and reload events" — under an
   unreliable channel those events can be lost, so a collection first
   replays whatever the kernel did behind our back). Lost made-resident
   notices become late ledger releases; lost eviction notices become late
   bookmark-and-evict scans (paying the reload fault the paper's prompt
   notice would have avoided) or, for pages that must stay resident, a
   veto touch. *)
let reconcile_with_kernel t =
  let vmm = Heapsim.Heap.vmm t.heap in
  (* lost made-resident notices: ledger pages the kernel reloaded *)
  let reloaded =
    Hashtbl.fold
      (fun page _ acc ->
        if Vmsim.Vmm.is_resident vmm page then page :: acc else acc)
      t.ledger []
  in
  List.iter
    (fun page ->
      t.reconciled <- t.reconciled + 1;
      page_reloaded t page)
    reloaded;
  (* lost eviction notices: pages believed resident the kernel swapped *)
  let stale = ref [] in
  Residency.iter_resident t.residency (fun page ->
      if Vmsim.Vmm.is_swapped vmm page then stale := page :: !stale);
  List.iter
    (fun page ->
      t.reconciled <- t.reconciled + 1;
      if
        header_in_use t page
        || (Gc_common.Bump_space.owns_page t.nursery page
           && page_has_objects t page)
      then
        (* metadata and populated nursery pages must stay resident *)
        Vmsim.Vmm.touch vmm ~write:false page
      else if t.opts.Gc_config.bookmarks_enabled then
        (* late eviction protocol: reload, scan, bookmark, surrender *)
        bookmark_and_evict t page
      else note_evicted t page)
    !stale

let reconcile_with_kernel t =
  Gc_common.Pause.span t.heap Telemetry.Event.Reconcile (fun () ->
      reconcile_with_kernel t)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let follow_ok t id =
  (not t.opts.Gc_config.bookmarks_enabled) || obj_resident t id

(* Secondary roots: every bookmarked object (§3.4.1). The paper finds
   them by scanning superpages with a nonzero incoming count plus the
   nursery and LOS; we iterate the exact bookmarked set, charging a visit
   per candidate, which models the same scan cost without re-deriving the
   set from page contents. *)
let bookmark_roots t enqueue =
  if
    t.opts.Gc_config.bookmarks_enabled
    && Hashtbl.length t.bookmark_counts > 0
  then begin
    let objects = Heapsim.Heap.objects t.heap in
    Hashtbl.iter
      (fun id _count ->
        Charge.object_visit t.heap;
        if Heapsim.Object_table.is_live objects id then enqueue id)
      t.bookmark_counts
  end

let is_marked t id = Gc_common.Tracer.marked t.heap ~epoch:t.epoch id

(* One collection's trace. Objects bookmarked while it runs (a mid-GC
   eviction) are traced in further rounds from just those objects, so the
   eviction cannot hide connectivity; everything else is marked already. *)
let trace t ~roots ~follow ~evacuate ~copy =
  let run roots =
    Gc_common.Tracer.run t.heap ~epoch:t.epoch ~roots ~follow ~evacuate ~copy
  in
  run roots;
  (* [round] holds one round's roots; what its trace bookmarks goes to
     [t.pending_roots], for the next round *)
  let round = t.pending_round in
  let round_roots enqueue = Vec.iter enqueue round in
  while not (Vec.is_empty t.pending_roots) do
    Vec.clear round;
    Vec.iter (Vec.push round) t.pending_roots;
    Vec.clear t.pending_roots;
    run round_roots
  done

(* Full-heap marking: never follows references to evicted objects (their
   liveness is covered by bookmarks); with bookmarks disabled it behaves
   like a stock tracer and faults. *)
let mark_heap t ~follow =
  Gc_common.Pause.span t.heap Telemetry.Event.Mark (fun () ->
      trace t
        ~roots:(fun enqueue ->
          Heapsim.Heap.iter_roots t.heap enqueue;
          bookmark_roots t enqueue)
        ~follow ~evacuate:(fun _ -> false) ~copy:ignore)

(* Sweep the mature superpages, visiting only pages allowed by
   [resident]; evicted pages are left untouched, their objects preserved
   (§3.4.1). Newly empty data pages become discard candidates. *)
let sweep_superpages t ~resident =
  let heap = t.heap in
  let objects = Heapsim.Heap.objects heap in
  let page_map = Heapsim.Heap.page_map heap in
  let vmm = Heapsim.Heap.vmm heap in
  let on_page = t.on_page in
  Superpage.iter_sps t.sp_space (fun sp ->
      for
        page = sp.Superpage.first_page
        to sp.Superpage.first_page + Vmsim.Page.pages_per_superpage - 1
      do
        if resident page && Heapsim.Page_map.count_on page_map page > 0 then begin
          Charge.page_sweep heap;
          Vmsim.Vmm.touch vmm ~write:true page;
          (* each free swap-removes an entry from the page's bucket, so
             the sweep walks a copy *)
          Heapsim.Page_map.objects_on page_map page on_page;
          for i = 0 to Vec.length on_page - 1 do
            let id = Vec.get on_page i in
            (* process each object from its first page only, and only
               when every page it spans may be visited *)
            if
              Heapsim.Heap.first_page heap id = page
              && all_pages t id resident
              && (not (is_marked t id))
              && not (Heapsim.Object_table.bookmarked objects id)
            then begin
              let addr = Heapsim.Object_table.addr objects id in
              Heapsim.Heap.free_object heap id;
              Superpage.free_cell t.sp_space sp ~addr
            end
          done;
          if
            Heapsim.Page_map.count_on page_map page = 0
            && page <> sp.Superpage.first_page
          then Vec.push t.empty_candidates page
        end
      done)

let sweep_superpages t ~resident =
  Gc_common.Pause.span t.heap Telemetry.Event.Sweep (fun () ->
      sweep_superpages t ~resident)

(* Sweep the large object space: unmarked, unbookmarked, fully visitable
   objects are freed and their pages leave the residency view; evicted
   ones are preserved. *)
let sweep_los t ~resident =
  Gc_common.Pause.span t.heap Telemetry.Event.Sweep (fun () ->
      let objects = Heapsim.Heap.objects t.heap in
      Gc_common.Large_object_space.sweep t.los
        ~on_free:(fun page ->
          Residency.mark_evicted t.residency page;
          Bitset.clear t.discarded page)
        ~keep:(fun id ->
          is_marked t id
          || Heapsim.Object_table.bookmarked objects id
          || not (all_pages t id resident)))

(* ------------------------------------------------------------------ *)
(* Evacuation into the mature space                                    *)

let sp_kind_of = function `Scalar -> Superpage.Scalar | `Array -> Superpage.Array

(* Copy one nursery object into a mature cell. A collection builds the
   copier once, [sp_copy_young t ~grow:(grow_sp t) ~resident:(resident_ok t)],
   and applies it to each survivor. *)
let sp_copy_young t ~grow ~resident id =
  let objects = Heapsim.Heap.objects t.heap in
  let size = Heapsim.Object_table.size objects id in
  let kind = sp_kind_of (Heapsim.Object_table.kind objects id) in
  let addr = Superpage.alloc t.sp_space ~bytes:size ~kind ~grow ~resident in
  if addr < 0 then
    raise
      (Collector.Heap_exhausted
         (name ^ ": mature space cannot absorb nursery survivors"));
  Baselines.Gen_shared.copy_object t.heap id ~new_addr:addr;
  Heapsim.Object_table.set_space objects id Space_tag.mature;
  note_placed t id

(* Seeds for a nursery collection: the filtered write buffer, the card
   table (skipping — and re-marking — cards on evicted pages; their
   nursery referents are covered by bookmarks) and bookmarked nursery
   objects (§3.1, §3.4). *)
let remembered_roots t enqueue =
  let objects = Heapsim.Heap.objects t.heap in
  Gc_common.Write_buffer.drain t.wbuf
    (Baselines.Gen_shared.remembered t.heap ~follow:(follow_ok t) enqueue);
  let page_map = Heapsim.Heap.page_map t.heap in
  let push _field target = enqueue target in
  (* one visitor for every card: [card] is the card being scanned *)
  let card = ref 0 in
  let scan_object id =
    let a = Heapsim.Object_table.addr objects id in
    let sz = Heapsim.Object_table.size objects id in
    if a < !card + Gc_common.Card_table.card_bytes && a + sz > !card then begin
      Charge.object_visit t.heap;
      Heapsim.Object_table.iter_refs objects id push
    end
  in
  let requeued = t.cards_requeued in
  Vec.clear requeued;
  Gc_common.Card_table.drain t.cards (fun card_addr ->
      let page = Vmsim.Page.of_addr card_addr in
      if
        (not t.opts.Gc_config.bookmarks_enabled)
        || resident_ok t page
      then begin
        Vmsim.Vmm.touch (Heapsim.Heap.vmm t.heap) ~write:false page;
        card := card_addr;
        Heapsim.Page_map.iter_on page_map page scan_object
      end
      else Vec.push requeued card_addr);
  (* marked once the drain is over, since it clears what is marked
     during it; last requeued first, the order the next drain visits *)
  for i = Vec.length requeued - 1 downto 0 do
    Gc_common.Card_table.mark_addr t.cards (Vec.get requeued i)
  done;
  Heapsim.Id_list.iter
    (fun id ->
      if
        Heapsim.Object_table.is_live objects id
        && Heapsim.Object_table.bookmarked objects id
      then enqueue id)
    t.nursery_objects

(* Retire the (now fully evacuated or dead) nursery: its touched pages
   become discard candidates. *)
let retire_nursery_pages t =
  let used = Gc_common.Bump_space.used_pages t.nursery in
  let first = Gc_common.Bump_space.first_page t.nursery in
  Gc_common.Bump_space.reset t.nursery;
  for page = first to first + used - 1 do
    Vec.push t.empty_candidates page
  done

let oracle_enabled =
  match Sys.getenv_opt "BC_ORACLE" with Some _ -> true | None -> false

(* Debugging aid (set BC_ORACLE=1): after every collection, run
   {!Gc_common.Verify.heap}, which fails loudly if a reachable object was
   freed or the object table, page map and VMM disagree. Far stronger than
   any assertion when bisecting a new bookmark or compaction change; off
   by default because it is O(live) per GC. *)
let oracle t = if oracle_enabled then Gc_common.Verify.heap t.heap

let with_gc t f =
  t.in_gc <- true;
  Fun.protect ~finally:(fun () -> t.in_gc <- false) f

(* Under extreme pressure even nursery pages may have been surrendered;
   a collection must reload them (paying the faults) before it can
   evacuate and reset the nursery. *)
let reload_nursery t =
  let vmm = Heapsim.Heap.vmm t.heap in
  let first = Gc_common.Bump_space.first_page t.nursery in
  let used = Gc_common.Bump_space.used_pages t.nursery in
  for page = first to first + used - 1 do
    if not (resident_ok t page) then Vmsim.Vmm.touch vmm ~write:false page
  done

let minor t =
  Gc_common.Pause.run t.stats t.heap Gc_stats.Minor (fun () ->
      reload_nursery t;
      with_gc t @@ fun () ->
      Charge.setup t.heap;
      t.epoch <- t.epoch + 1;
      trace t
        ~roots:(fun enqueue ->
          Heapsim.Heap.iter_roots t.heap enqueue;
          remembered_roots t enqueue)
        ~follow:(Baselines.Gen_shared.in_young t.heap)
        ~evacuate:(fun _ -> true)
        ~copy:(sp_copy_young t ~grow:(grow_sp t) ~resident:(resident_ok t));
      Baselines.Gen_shared.reap_young t.heap t.nursery_objects ~epoch:t.epoch;
      retire_nursery_pages t;
      oracle t;
      Gc_stats.note_heap_pages t.stats (total_pages t))

(* Evacuate marked nursery survivors after a full mark; the sweep that
   just ran has refilled the mature free lists. The young list is first
   filtered down to the survivors, freeing the rest, and then copied
   from; nothing reads it during the copies. Abort-safe: when a copy
   fails (heap exhausted), exactly the not-yet-moved survivors stay
   listed as nursery objects, in order. *)
let evacuate_nursery t =
  let objects = Heapsim.Heap.objects t.heap in
  let young = t.nursery_objects in
  Heapsim.Id_list.filter_in_place
    (fun id ->
      if not (Heapsim.Object_table.is_live objects id) then false
      else if is_marked t id || Heapsim.Object_table.bookmarked objects id
      then true
      else begin
        Heapsim.Heap.free_object t.heap id;
        false
      end)
    young;
  let copy = sp_copy_young t ~grow:(grow_sp t) ~resident:(resident_ok t) in
  let moved = ref 0 in
  (try
     Heapsim.Id_list.iter
       (fun id ->
         copy id;
         incr moved)
       young
   with e ->
     (* the rest are still nursery residents *)
     let seen = ref 0 in
     Heapsim.Id_list.filter_in_place
       (fun _ ->
         incr seen;
         !seen > !moved)
       young;
     raise e);
  Heapsim.Id_list.clear young;
  retire_nursery_pages t

let evacuate_nursery t =
  Gc_common.Pause.span t.heap Telemetry.Event.Evacuate (fun () ->
      evacuate_nursery t)

let clear_remembered t =
  Gc_common.Write_buffer.drain t.wbuf (fun ~src:_ ~field:_ -> ());
  Gc_common.Card_table.drain t.cards (fun _ -> ())

(* Recycle empty superpages and offer all their pages — headers included —
   for discarding. *)
let recycle_and_offer t =
  Superpage.recycle_empty t.sp_space ~resident:(resident_ok t);
  Superpage.iter_sps t.sp_space (fun sp ->
      if sp.Superpage.cells_total = 0 then
        for
          page = sp.Superpage.first_page
          to sp.Superpage.first_page + Vmsim.Page.pages_per_superpage - 1
        do
          Vec.push t.empty_candidates page
        done)

(* ------------------------------------------------------------------ *)
(* Mature collections: full (§3.4.1), compacting (§3.2, §3.4.1) and   *)
(* the completeness fail-safe (§3.5)                                  *)

type mature = Full | Compact | Failsafe

(* A cell on the first superpage of [pool], from its [i]th on, that has a
   usable free one; -1 when none has. *)
let rec alloc_in_pool sp_space pool i ~resident =
  if i >= Vec.length pool then -1
  else
    let addr = Superpage.alloc_on sp_space (Vec.get pool i) ~resident in
    if addr >= 0 then addr else alloc_in_pool sp_space pool (i + 1) ~resident

(* The census arrays, each at least [nsp] long, with the first [nsp]
   entries reset; they double when a superpage index outgrows them. *)
let reset_census c nsp =
  if Array.length c.marked_on < nsp then begin
    let n = max nsp (2 * Array.length c.marked_on) in
    c.marked_on <- Array.make n 0;
    c.dead_on <- Array.make n 0;
    c.forced <- Array.make n false;
    c.is_target <- Array.make n false
  end;
  Array.fill c.marked_on 0 nsp 0;
  Array.fill c.dead_on 0 nsp 0;
  Array.fill c.forced 0 nsp false;
  Array.fill c.is_target 0 nsp false;
  Array.fill c.demand 0 (Array.length c.demand) 0;
  Array.iter Vec.clear c.pools

(* Compaction's census and target selection, made between the mark and
   the sweep: per (size class, kind), the superpages that cannot move
   (incoming bookmarks, evicted pages, bookmarked residents) plus the
   fullest others, until they can hold every marked object. Returns the
   move pass, which runs after the sweep: epoch marks survive it, and the
   marked objects still on non-target superpages are forwarded.

   The census and the move pass each visit every object with one
   closure, built per collection; [page], [index] and [key] say which
   page, superpage and (class, kind) it is visiting. *)
let plan_compaction t ~resident =
  let objects = Heapsim.Heap.objects t.heap in
  let page_map = Heapsim.Heap.page_map t.heap in
  let c = t.census in
  reset_census c (Superpage.sp_count t.sp_space);
  let marked_on = c.marked_on and dead_on = c.dead_on in
  let forced = c.forced and is_target = c.is_target in
  let demand = c.demand and target_pools = c.pools in
  let nclasses = Array.length demand in
  let idx_of (sp : Superpage.sp) =
    (sp.Superpage.cls * 2)
    + match sp.Superpage.kind with Superpage.Scalar -> 0 | Superpage.Array -> 1
  in
  let page = ref 0 and index = ref 0 and key = ref 0 in
  (* apply [visit] to every object whose pages may all be visited, on
     its first page *)
  let census (sp : Superpage.sp) visit =
    index := sp.Superpage.index;
    key := idx_of sp;
    for p = sp.Superpage.first_page
        to sp.Superpage.first_page + Vmsim.Page.pages_per_superpage - 1
    do
      if resident p then begin
        page := p;
        Heapsim.Page_map.iter_on page_map p visit
      end
    done
  in
  let visitable id =
    Heapsim.Heap.first_page t.heap id = !page && all_pages t id resident
  in
  (* per-superpage census of marked and dead objects *)
  let count id =
    if visitable id then begin
      let i = !index in
      if is_marked t id then begin
        marked_on.(i) <- marked_on.(i) + 1;
        demand.(!key) <- demand.(!key) + 1;
        if Heapsim.Object_table.bookmarked objects id then forced.(i) <- true
      end
      else if not (Heapsim.Object_table.bookmarked objects id) then
        dead_on.(i) <- dead_on.(i) + 1
    end
  in
  Superpage.iter_sps t.sp_space (fun sp ->
      if
        sp.Superpage.incoming > 0
        || sp.Superpage.evicted_data_pages > 0
      then forced.(sp.Superpage.index) <- true;
      census sp count);
  (* select the minimum target set per (class, kind); each is chosen
     apart from the others *)
  let by_idx = Array.make nclasses [] in
  Superpage.iter_sps t.sp_space (fun sp ->
      if sp.Superpage.cells_total > 0 then begin
        let key = idx_of sp in
        by_idx.(key) <- sp :: by_idx.(key)
      end);
  Array.iteri
    (fun key sps ->
      let capacity (sp : Superpage.sp) =
        marked_on.(sp.Superpage.index)
        + dead_on.(sp.Superpage.index)
        + Superpage.free_count sp
      in
      let covered = ref 0 in
      let pool = target_pools.(key) in
      let choose sp =
        is_target.(sp.Superpage.index) <- true;
        Vec.push pool sp;
        covered := !covered + capacity sp
      in
      let forced_sps, others =
        List.partition (fun (sp : Superpage.sp) -> forced.(sp.Superpage.index)) sps
      in
      List.iter choose forced_sps;
      let sorted =
        List.sort
          (fun (a : Superpage.sp) (b : Superpage.sp) ->
            compare marked_on.(b.Superpage.index) marked_on.(a.Superpage.index))
          others
      in
      List.iter
        (fun sp -> if !covered < demand.(key) then choose sp)
        sorted)
    by_idx;
  (* forward marked objects off the non-target superpages *)
  fun () ->
    let grow = grow_sp t and usable = t.usable in
    let move id =
      if
        visitable id
        && is_marked t id
        && not (Heapsim.Object_table.bookmarked objects id)
      then begin
        let addr =
          alloc_in_pool t.sp_space target_pools.(!key) 0 ~resident:usable
        in
        let addr =
          if addr >= 0 then addr
          else
            (* selection shortfall: fall back to a fresh cell *)
            Superpage.alloc t.sp_space
              ~bytes:(Heapsim.Object_table.size objects id)
              ~kind:(sp_kind_of (Heapsim.Object_table.kind objects id))
              ~grow ~resident:usable
        in
        if addr < 0 then
          raise
            (Collector.Heap_exhausted
               (name ^ ": compaction ran out of target space"));
        Baselines.Gen_shared.copy_object t.heap id ~new_addr:addr;
        note_placed t id
      end
    in
    Superpage.iter_sps t.sp_space (fun sp ->
        if (not is_target.(sp.Superpage.index)) && sp.Superpage.cells_total > 0
        then census sp move)

(* The fail-safe's first step: discard every bookmark and counter. Its
   trace then rebuilds exact liveness, touching evicted pages as it goes. *)
let forget_bookmarks t =
  let objects = Heapsim.Heap.objects t.heap in
  Heapsim.Object_table.iter_live objects (fun id ->
      Heapsim.Object_table.set_bookmarked objects id false);
  Hashtbl.reset t.bookmark_counts;
  Superpage.iter_sps t.sp_space (fun sp ->
      sp.Superpage.incoming <- 0;
      sp.Superpage.deferred <- []);
  Hashtbl.reset t.ledger;
  Vec.clear t.nonsp_deferred;
  t.nonsp_incoming <- 0

let mature t kind =
  let phase = if kind = Compact then Gc_stats.Compacting else Gc_stats.Full in
  Gc_common.Pause.run t.stats t.heap phase (fun () ->
      let collect () =
        reload_nursery t;
        with_gc t @@ fun () ->
        if kind = Failsafe then begin
          t.failsafe_count <- t.failsafe_count + 1;
          Gc_stats.note_failsafe t.stats
        end;
        Charge.setup t.heap;
        reconcile_with_kernel t;
        if kind = Failsafe then forget_bookmarks t;
        (* bookmarks stand in for evicted pages, which the trace and the
           sweeps leave alone; without them, or to rebuild them, every
           page is visited *)
        let follow, resident =
          if kind <> Failsafe && t.opts.Gc_config.bookmarks_enabled then
            (obj_resident t, resident_ok t)
          else ((fun _ -> true), fun _ -> true)
        in
        t.epoch <- t.epoch + 1;
        mark_heap t ~follow;
        let move =
          if kind = Compact then plan_compaction t ~resident else ignore
        in
        sweep_superpages t ~resident;
        sweep_los t ~resident;
        move ();
        (* recycle what the sweep emptied before evacuating the nursery:
           the survivors may need those superpages *)
        recycle_and_offer t;
        evacuate_nursery t;
        clear_remembered t;
        recycle_and_offer t;
        if kind = Failsafe then begin
          (* not before evacuate_nursery, whose grow_sp reads the target;
             whatever inconsistency scheduled us is now rebuilt *)
          t.target_footprint <- -1;
          t.failsafe_needed <- false
        end;
        oracle t;
        Gc_stats.note_heap_pages t.stats (total_pages t)
      in
      if kind = Failsafe then
        Gc_common.Pause.span t.heap Telemetry.Event.Failsafe collect
      else collect ())

(* ------------------------------------------------------------------ *)
(* VM cooperation handlers (§3.3–§3.4)                                 *)

let maybe_request_gc t =
  if
    (not t.in_gc)
    && count_valid_candidates t ~limit:(t.opts.Gc_config.reserve_pages + 1)
       <= t.opts.Gc_config.reserve_pages
  then t.gc_requested <- true

let our_page t page =
  Gc_common.Bump_space.owns_page t.nursery page
  || Superpage.owns_page t.sp_space page
  || Gc_common.Large_object_space.owns_page t.los page

(* A resident page of ours that may leave memory: neither a live
   superpage's header nor a populated nursery page. *)
let evictable t page =
  our_page t page
  && (not (header_in_use t page))
  && not
       (Gc_common.Bump_space.owns_page t.nursery page
       && page_has_objects t page)
  && Residency.is_resident t.residency page

(* §7: the victim's outgoing-pointer count, used to prefer evicting
   pointer-free pages (no false garbage, nothing to bookmark). Objects
   without reference fields need no scan (the superpage header says so),
   so only pointer-bearing objects are charged. *)
let pointer_score t page =
  let objects = Heapsim.Heap.objects t.heap in
  let score = ref 0 in
  Heapsim.Page_map.iter_on (Heapsim.Heap.page_map t.heap) page (fun id ->
      if Heapsim.Object_table.nrefs objects id > 0 then begin
        Charge.object_visit t.heap;
        Heapsim.Object_table.iter_refs objects id (fun _ _ -> incr score)
      end);
  !score

(* Pick the eviction victim among the kernel's choice and the next
   coldest candidates, minimising outgoing pointers; ties keep the
   kernel's (LRU) preference. *)
let choose_victim t victim =
  let n = t.opts.Gc_config.pointer_aware_victims in
  if n <= 0 then victim
  else begin
    let candidates =
      victim
      :: List.filter
           (fun page -> page = victim || evictable t page)
           (Vmsim.Vmm.coldest_pages (Heapsim.Heap.vmm t.heap)
              ~owner:(Heapsim.Heap.process t.heap) ~n)
    in
    let best, _ =
      List.fold_left
        (fun (best, best_score) page ->
          let score = pointer_score t page in
          if score < best_score then (page, score) else (best, best_score))
        (victim, pointer_score t victim)
        candidates
    in
    best
  end

(* Controller batching: after a notice's first discard, surrender up to
   [notice_batch - 1] further empty pages, amortising notice handling
   under sustained pressure. A no-op at the default batch of 1. *)
let discard_batch_extra t =
  let remaining = ref (t.notice_batch - 1) in
  let exhausted = ref false in
  while !remaining > 0 && not !exhausted do
    let page = find_discardable t in
    if page >= 0 then ignore (discard_with_peers t page)
    else exhausted := true;
    decr remaining
  done

(* Controller relinquish aggressiveness: beyond the kernel's chosen
   victim, proactively bookmark-and-evict up to [relinquish_extra] of our
   coldest evictable pages — trading our own cold pages for headroom
   before the kernel has to ask again. A no-op at the default of 0. *)
let relinquish_beyond_victim t ~victim =
  if t.relinquish_extra > 0 && t.opts.Gc_config.bookmarks_enabled then begin
    let cold =
      List.filter
        (fun page -> page <> victim && evictable t page)
        (Vmsim.Vmm.coldest_pages (Heapsim.Heap.vmm t.heap)
           ~owner:(Heapsim.Heap.process t.heap)
           ~n:(2 * t.relinquish_extra))
    in
    let rec evict n = function
      | page :: rest when n > 0 ->
          if Residency.is_resident t.residency page then
            bookmark_and_evict t page;
          evict (n - 1) rest
      | _ -> ()
    in
    evict t.relinquish_extra cold
  end

let handle_eviction_notice t victim =
  let vmm = Heapsim.Heap.vmm t.heap in
  if our_page t victim then begin
    if header_in_use t victim then
      (* metadata of a live superpage must stay resident: veto (§3.4) *)
      Vmsim.Vmm.touch vmm ~write:false victim
    else begin
      (* the heap footprint exceeds available memory: shrink (§3.3.3) *)
      shrink_target t;
      if discardable t victim then begin
        ignore (discard_with_peers t victim);
        discard_batch_extra t;
        maybe_request_gc t
      end
      else begin
        let page = find_discardable t in
        if page >= 0 then begin
          ignore (discard_with_peers t page);
          discard_batch_extra t;
          maybe_request_gc t
        end
        else begin
          (* no empty page in the store: ask for a collection at the
             next allocation (the reserve discipline of §3.4.3 — a
             collection inside the eviction path would need frames the
             machine does not have), and deal with the victim now *)
          t.gc_requested <- true;
          if
            Gc_common.Bump_space.owns_page t.nursery victim
            && page_has_objects t victim
          then
            (* nursery pages are about to be reused: veto (§3.4). If
               everything is vetoed the kernel's desperation pass will
               still make progress, and the collection just requested
               turns these pages into discardable ones. *)
            Vmsim.Vmm.touch vmm ~write:false victim
          else if t.opts.Gc_config.bookmarks_enabled then begin
            let chosen = choose_victim t victim in
            if chosen <> victim then
              (* keep the kernel's choice in memory instead *)
              Vmsim.Vmm.touch vmm ~write:false victim;
            bookmark_and_evict t chosen;
            relinquish_beyond_victim t ~victim:chosen
          end
          else
            (* resizing-only variant: let the page go to disk *)
            note_evicted t victim
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let mature_can_absorb t =
  let growable_bytes =
    max 0 (effective_heap_pages t - min_nursery_pages - mature_pages t)
    * Vmsim.Page.size
  in
  Superpage.free_bytes t.sp_space + growable_bytes
  >= Gc_common.Bump_space.used_bytes t.nursery

(* Pressure bursts overshoot the footprint estimate (evictions are
   batched), so reclaim the slack the kernel is no longer using: raise the
   target by the machine's free frames (§7 sketches this regrowth). *)
let maybe_regrow t =
  if t.opts.Gc_config.regrow && t.target_footprint >= 0 then begin
    let free = Vmsim.Vmm.free_frames (Heapsim.Heap.vmm t.heap) in
    if free > 32 then t.target_footprint <- t.target_footprint + free - 16
  end

(* Under memory pressure, the space-minimising collection is the
   compacting one (§2: BC "minimizes space consumption by performing
   compaction when under memory pressure"). *)
let full_or_compact t =
  mature t
    (if t.target_footprint >= 0 && t.opts.Gc_config.compaction_enabled
     then Compact
     else Full)

(* Escalation ladder: nursery GC, full GC, compaction, growing past the
   footprint target (at the price of paging), and finally the
   completeness fail-safe. Each stage swallows its own heap exhaustion,
   so a failed rung is followed by the next one, not by an aborted
   allocation. *)
let escalations t =
  let stage f () = try f () with Collector.Heap_exhausted _ -> () in
  Array.map stage [|
    (fun () ->
      maybe_regrow t;
      if t.failsafe_needed && t.opts.Gc_config.bookmarks_enabled then begin
        (* detected inconsistency: rebuild exact liveness rather than
           trusting damaged summaries (§3.5 used as a recovery path) *)
        t.gc_requested <- false;
        mature t Failsafe
      end
      else if t.gc_requested then begin
        t.gc_requested <- false;
        full_or_compact t
      end
      else if mature_can_absorb t then begin
        try minor t
        with Collector.Heap_exhausted _ ->
          (* a full trace recovers the aborted nursery collection *)
          mature t Full
      end
      else full_or_compact t);
    (fun () -> mature t Full);
    (fun () -> if t.opts.Gc_config.compaction_enabled then mature t Compact);
    (fun () ->
      if t.target_footprint >= 0 then begin
        t.target_footprint <- -1;
        mature t Full
      end);
    (fun () ->
      if t.opts.Gc_config.bookmarks_enabled && t.evicted_count > 0 then
        mature t Failsafe);
  |]

(* ------------------------------------------------------------------ *)
(* Invariant checking (tests)                                          *)

let check_invariants t =
  (* a detected-but-not-yet-repaired inconsistency is allowed to exist
     between collections; repair it before judging the invariants *)
  if t.failsafe_needed && t.opts.Gc_config.bookmarks_enabled then
    mature t Failsafe;
  let objects = Heapsim.Heap.objects t.heap in
  (* incoming counters equal the ledger's per-superpage totals *)
  let expected = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _page entry ->
      Array.iter
        (fun (sp : Superpage.sp) ->
          let i = sp.Superpage.index in
          Hashtbl.replace expected i
            (1 + Option.value (Hashtbl.find_opt expected i) ~default:0))
        entry.sps)
    t.ledger;
  Superpage.iter_sps t.sp_space (fun sp ->
      let want =
        Option.value (Hashtbl.find_opt expected sp.Superpage.index) ~default:0
      in
      if sp.Superpage.incoming <> want then
        failwith
          (Printf.sprintf
             "BC invariant: superpage %d incoming=%d but ledger says %d"
             sp.Superpage.index sp.Superpage.incoming want));
  (* evicted pages tracked by the ledger are indeed non-resident *)
  Hashtbl.iter
    (fun page _ ->
      if Residency.is_resident t.residency page then
        failwith (Printf.sprintf "BC invariant: ledger page %d is resident" page))
    t.ledger;
  (* the bookmark bit mirrors a positive bookmark count *)
  Heapsim.Object_table.iter_live objects (fun id ->
      let bit = Heapsim.Object_table.bookmarked objects id in
      let counted = Hashtbl.mem t.bookmark_counts id in
      if bit <> counted then
        failwith
          (Printf.sprintf "BC invariant: object #%d bit=%b counted=%b" id bit
             counted));
  (* per-superpage cell accounting: free + blocked + live occupants never
     exceed the carved cell count *)
  Superpage.iter_sps t.sp_space (fun sp ->
      if sp.Superpage.cells_total > 0 then begin
        let occupied = Superpage.live_count t.sp_space sp in
        let free = Superpage.free_count sp in
        let blocked = Vec.length sp.Superpage.blocked in
        if free + blocked + occupied > sp.Superpage.cells_total then
          failwith
            (Printf.sprintf
               "BC invariant: superpage %d cells %d < free %d + blocked %d + \
                live %d"
               sp.Superpage.index sp.Superpage.cells_total free blocked
               occupied)
      end);
  (* every live object has a placement, and mature objects sit on a
     superpage of their own size class *)
  Heapsim.Object_table.iter_live objects (fun id ->
      let addr = Heapsim.Object_table.addr objects id in
      assert (addr >= 0);
      if Heapsim.Object_table.space objects id = Space_tag.mature then
        match Superpage.sp_of_addr t.sp_space addr with
        | None -> failwith "BC invariant: mature object outside superpages"
        | Some sp ->
            let cell = Gc_common.Size_class.cell_size sp.Superpage.cls in
            if Heapsim.Object_table.size objects id > cell then
              failwith "BC invariant: object larger than its cell")

(* ------------------------------------------------------------------ *)
(* Factory and debug access                                            *)

type debug = {
  superpages : Superpage.t;
  residency : Residency.t;
  evicted_pages : unit -> int;
  bookmarked_count : unit -> int;
  incoming_total : unit -> int;
  ledger_total : unit -> int;
  failsafe_count : unit -> int;
  target_footprint : unit -> int option;
  spurious_resident : unit -> int;
  reconciled : unit -> int;
  handler_faults : unit -> int;
}

type Collector.debug += Debug of debug

let make_debug t =
  {
    superpages = t.sp_space;
    residency = t.residency;
    evicted_pages = (fun () -> t.evicted_count);
    bookmarked_count =
      (fun () ->
        let objects = Heapsim.Heap.objects t.heap in
        let n = ref 0 in
        Heapsim.Object_table.iter_live objects (fun id ->
            if Heapsim.Object_table.bookmarked objects id then incr n);
        !n);
    incoming_total =
      (fun () ->
        let n = ref 0 in
        Superpage.iter_sps t.sp_space (fun sp ->
            n := !n + sp.Superpage.incoming);
        !n);
    ledger_total =
      (fun () ->
        Hashtbl.fold (fun _ e acc -> acc + Array.length e.sps) t.ledger 0);
    failsafe_count = (fun () -> t.failsafe_count);
    target_footprint =
      (fun () ->
        if t.target_footprint < 0 then None else Some t.target_footprint);
    spurious_resident = (fun () -> t.spurious_resident);
    reconciled = (fun () -> t.reconciled);
    handler_faults = (fun () -> t.handler_faults);
  }

let debug_of (c : Collector.t) =
  match c.Collector.debug with
  | Debug debug -> debug
  | _ -> invalid_arg "Bc.debug_of: not a bookmarking collector instance"

let factory config heap =
  let opts = config.Gc_config.bc in
  let cards = Gc_common.Card_table.create () in
  let objects = Heapsim.Heap.objects heap in
  let wbuf =
    Gc_common.Write_buffer.create ~cards
      ~src_addr:(fun id -> Heapsim.Object_table.addr objects id)
      ~filterable:(fun id ->
        Heapsim.Object_table.is_live objects id
        && Heapsim.Object_table.space objects id <> Space_tag.nursery)
      ()
  in
  let rec t =
    {
      heap;
      config;
      opts;
      stats = Gc_stats.create ();
      nursery =
        Gc_common.Bump_space.create heap ~name:"nursery"
          ~npages:(Gc_config.heap_pages config) ~indexed:true;
      nursery_objects = Heapsim.Id_list.create ();
      sp_space = Superpage.create heap;

      los = Gc_common.Large_object_space.create heap ~name:"los";
      cards;
      wbuf;
      residency = Residency.create ();
      discarded = Bitset.create ();
      ledger = Hashtbl.create 64;
      bookmark_counts = Hashtbl.create 64;
      scans = 0;
      nonsp_deferred = Vec.create ();
      nonsp_incoming = 0;
      empty_candidates = Vec.create ();
      on_page = Vec.create ();
      scan_sps = Vec.create ();
      scan_targets = Vec.create ();
      scan_self = Vec.create ();
      peers = Vec.create ();
      census =
        {
          marked_on = [||];
          dead_on = [||];
          forced = [||];
          is_target = [||];
          demand = Array.make (Gc_common.Size_class.count * 2) 0;
          pools =
            Array.init (Gc_common.Size_class.count * 2) (fun _ -> Vec.create ());
        };
      cards_requeued = Vec.create ();
      pending_roots = Vec.create ();
      pending_round = Vec.create ();
      usable = (fun page -> resident_ok t page);
      target_footprint = -1;
      controller_cap = None;
      notice_batch = 1;
      relinquish_extra = 0;
      epoch = 0;
      in_gc = false;
      gc_requested = false;
      evicted_count = 0;
      failsafe_count = 0;
      failsafe_needed = false;
      spurious_resident = 0;
      reconciled = 0;
      handler_faults = 0;
    }
  in
  Superpage.set_on_acquire t.sp_space (fun sp -> track_new_superpage t sp);
  Baselines.Gen_shared.install_barrier heap
    (Gc_common.Write_buffer.record t.wbuf);
  (* register for paging signals (§4.1). A signal handler must never
     take down the mutator: programming-error exceptions are swallowed,
     counted, and converted into a scheduled fail-safe collection, which
     rebuilds exact state. Resource exceptions (Thrashing, heap
     exhaustion) still propagate — they are the caller's to handle. *)
  let guarded f page =
    try f page
    with Failure _ | Invalid_argument _ | Assert_failure _ | Not_found ->
      t.handler_faults <- t.handler_faults + 1;
      t.failsafe_needed <- true
  in
  Vmsim.Process.register (Heapsim.Heap.process heap)
    {
      Vmsim.Process.on_eviction_notice =
        guarded (fun page -> handle_eviction_notice t page);
      on_resident = guarded (fun page -> page_reloaded t page);
      on_protection_fault = guarded (fun page -> page_reloaded t page);
    };
  let display_name =
    if opts.Gc_config.bookmarks_enabled then
      match config.Gc_config.nursery with
      | Gc_config.Appel -> name
      | Gc_config.Fixed _ -> name ^ "-fixed"
    else resizing_only_name
  in
  let stages = escalations t in
  let path =
    Gc_common.Alloc.create ~name:display_name ~heap ~config ~stats:t.stats
      ~small:(fun bytes ->
        Gc_common.Bump_space.alloc t.nursery ~bytes
          ~limit_bytes:(nursery_limit t))
      ~small_tag:Space_tag.nursery ~young:t.nursery_objects ~stages
      ~los:t.los ~los_above:los_threshold
      ~los_grow:(fun ~npages ->
        mature_pages t + npages <= effective_heap_pages t)
      (* large objects skip the nursery-first rung *)
      ~los_stages:(Array.sub stages 1 (Array.length stages - 1))
      ~on_placed:(note_placed t) ()
  in
  {
    Collector.name = display_name;
    heap;
    config;
    alloc = (fun ~size ~nrefs ~kind -> Gc_common.Alloc.alloc path ~size ~nrefs ~kind);
    collect = (fun () -> mature t Full);
    stats = t.stats;
    footprint_pages = (fun () -> total_pages t);
    check_invariants = (fun () -> check_invariants t);
    tuning =
      {
        Collector.set_target_pages =
          (fun target ->
            t.controller_cap <-
              Option.map (max footprint_floor_pages) target);
        set_notice_batch = (fun n -> t.notice_batch <- max 1 n);
        set_relinquish_extra = (fun n -> t.relinquish_extra <- max 0 n);
        request_failsafe =
          (fun () ->
            (* deferred to the next allocation's escalation ladder —
               forcing a collection inside the decision path would need
               frames the machine may not have (§3.4.3's reserve
               discipline applies to the controller too) *)
            if t.opts.Gc_config.bookmarks_enabled then
              t.failsafe_needed <- true
            else t.gc_requested <- true);
      };
    debug = Debug (make_debug t);
  }
