exception Thrashing of string

module Fault_plan = Faults.Fault_plan
module Sparse = Repro_util.Sparse

(* Page states, one byte per page in the struct-of-arrays table. *)
let st_unmapped = 0

let st_untouched = 1

let st_resident = 2

let st_swapped = 3

(* The page table: per-page state bytes, packed Page_flags bytes and
   owner pids in 4096-page chunks of a [Sparse] table, so memory follows
   the pages mapped, not how high their numbers reach. Never-mapped pages
   read the all-zero [sentinel]: state unmapped, owner 0, flags clear.
   [map] materialises a page's chunk, and every other writer runs only on
   mapped pages, asserted below. *)
module Page_table = struct
  let chunk_shift = 12

  let chunk_pages = 1 lsl chunk_shift

  let chunk_mask = chunk_pages - 1

  type chunk = {
    states : Bytes.t;
    flags : Page_flags.set;
    owners : int array;
  }

  let fresh () =
    {
      states = Bytes.make chunk_pages '\000';
      flags = Page_flags.create chunk_pages;
      owners = Array.make chunk_pages 0;
    }

  let sentinel = fresh ()

  type t = chunk Sparse.t

  let create () = Sparse.create ~shift:chunk_shift ~sentinel

  let[@inline] chunk_of t page = Sparse.chunk t page

  let[@inline] state t page =
    Char.code (Bytes.unsafe_get (chunk_of t page).states (page land chunk_mask))

  let[@inline] owner_pid t page =
    Array.unsafe_get (chunk_of t page).owners (page land chunk_mask)

  let[@inline] flag t page bit =
    Page_flags.get (chunk_of t page).flags (page land chunk_mask) bit

  (* Low-level mapping: stamp [page] untouched with owner [pid],
     materialising its chunk. No already-mapped check — [Vmm.map_range]
     owns validation and error wording. *)
  let map t ~page ~pid =
    let chunk = Sparse.materialize t page fresh in
    let s = page land chunk_mask in
    Bytes.unsafe_set chunk.states s (Char.unsafe_chr st_untouched);
    Array.unsafe_set chunk.owners s pid
end

type t = {
  clock : Clock.t;
  costs : Costs.t;
  swap : Swap.t;
  faults : Fault_plan.t option;
  (* notices the fault plan held back (delayed or duplicated), delivered
     at the next top-level page access *)
  pending_notices : (Fault_plan.notice * int) Queue.t;
  reclaim_batch : int;
  pt : Page_table.t;
  (* last-chunk cache for the touch fast path: [fast_ci] is the chunk
     index whose (materialised) state/flag bytes are cached below, or -1.
     Chunks are never replaced once materialised, so a cached chunk can
     never go stale; the cache only ever holds materialised chunks. *)
  mutable fast_ci : int;
  mutable fast_states : Bytes.t;
  mutable fast_flags : Page_flags.set;
  (* pid -> process: pids are dense from 1, so pid [p] lives at index
     [p - 1]; the array doubles when full *)
  mutable procs : Process.t array;
  lru : Lru.t;
  mutable capacity : int;
  mutable resident : int;
  mutable pinned : int;
  mutable next_pid : int;
  mutable in_reclaim : bool;
  mutable delivering : bool;
  (* true iff [pending_notices] is nonempty: the touch fast path tests
     one immediate instead of poking the queue on every access *)
  mutable notices_pending : bool;
  mutable trace : Telemetry.Sink.t option;
}

(* Trace emission: with no sink attached this is one branch and a return
   — no allocation, and never a clock advance, so attaching (or not
   attaching) a sink cannot change virtual-time results. *)
let[@inline] ev t kind a b =
  match t.trace with
  | None -> ()
  | Some sink -> Telemetry.Sink.emit sink ~ts_ns:(Clock.now t.clock) kind a b

let[@inline] ev_inject t which page =
  match t.trace with
  | None -> ()
  | Some sink ->
      Telemetry.Sink.emit sink ~ts_ns:(Clock.now t.clock)
        Telemetry.Event.Fault_injected
        (Telemetry.Event.injection_code which)
        page

let create ?(costs = Costs.default) ?(reclaim_batch = 16) ?swap_capacity_pages
    ?faults ~clock ~frames () =
  if frames <= 0 then invalid_arg "Vmm.create: frames must be positive";
  {
    clock;
    costs;
    swap = Swap.create ?capacity_pages:swap_capacity_pages ?faults ();
    faults;
    pending_notices = Queue.create ();
    reclaim_batch;
    pt = Page_table.create ();
    fast_ci = -1;
    fast_states = Page_table.sentinel.Page_table.states;
    fast_flags = Page_table.sentinel.Page_table.flags;
    procs = [||];
    lru = Lru.create ();
    capacity = frames;
    resident = 0;
    pinned = 0;
    next_pid = 1;
    in_reclaim = false;
    delivering = false;
    notices_pending = false;
    trace = None;
  }

(* Attach a telemetry sink ([None] detaches). The swap device shares it so
   injected swap faults are stamped at their exact decision point. *)
let set_trace t sink = t.trace <- sink

let trace t = t.trace

let clock t = t.clock

let costs t = t.costs

let swap t = t.swap

let table_chunks t = Sparse.materialized t.pt

let create_process t =
  let p = Process.create ~pid:t.next_pid in
  let i = t.next_pid - 1 in
  t.next_pid <- t.next_pid + 1;
  if i = Array.length t.procs then begin
    let procs' = Array.make (max 1 (2 * i)) p in
    Array.blit t.procs 0 procs' 0 i;
    t.procs <- procs'
  end;
  t.procs.(i) <- p;
  p

let capacity t = t.capacity

let resident_count t = t.resident

let free_frames t = t.capacity - t.resident

let pinned_count t = t.pinned

(* {2 Page-table accessors}

   Reads go through the chunk table and are safe for any page number:
   out-of-root or never-materialised pages read the shared sentinel
   (state unmapped, owner 0, flags clear). Writers must only run on pages
   that were mapped — which every call site guarantees by checking
   mapped-ness first — so [mapped_chunk] asserts an owner: the sentinel
   has none, so it is never written. *)

let[@inline] pstate t page = Page_table.state t.pt page

let[@inline] mapped_chunk t page =
  let chunk = Page_table.chunk_of t.pt page in
  assert (
    Array.unsafe_get chunk.Page_table.owners (page land Page_table.chunk_mask)
    <> 0);
  chunk

let[@inline] set_pstate t page s =
  Bytes.unsafe_set
    (mapped_chunk t page).Page_table.states
    (page land Page_table.chunk_mask)
    (Char.unsafe_chr s)

let[@inline] opid t page = Page_table.owner_pid t.pt page

let[@inline] owner_proc t page =
  let pid = opid t page in
  assert (pid >= 1 && pid < t.next_pid);
  t.procs.(pid - 1)

(* Every VM event is counted once, on the record of the page's owner. *)
let[@inline] owner_stats t page = Process.stats (owner_proc t page)

(* [info t page = None] in the old record table meant "slot never
   mapped"; that is [owner_pid = 0] here (map_range always records an
   owner and never clears it). *)
let[@inline] ever_mapped t page = opid t page <> 0

let check_mapped t page =
  if not (ever_mapped t page) then
    invalid_arg (Printf.sprintf "Vmm: page %d is unmapped" page)

(* Per-page flag helpers over the chunked flag bytes. *)

let[@inline] fget t page bit = Page_table.flag t.pt page bit

let[@inline] fset t page bit =
  Page_flags.set
    (mapped_chunk t page).Page_table.flags
    (page land Page_table.chunk_mask)
    bit

let[@inline] fclear t page bit =
  Page_flags.clear
    (mapped_chunk t page).Page_table.flags
    (page land Page_table.chunk_mask)
    bit

let[@inline] fput t page bit v = if v then fset t page bit else fclear t page bit

let map_range t proc ~first_page ~npages =
  let pid = Process.pid proc in
  for p = first_page to first_page + npages - 1 do
    if pstate t p <> st_unmapped then
      invalid_arg (Printf.sprintf "Vmm.map_range: page %d already mapped" p);
    (* a reused slot keeps its residual flag bits, as the record table's
       reused pinfo did; fresh slots start all-clear *)
    Page_table.map t.pt ~page:p ~pid
  done

let owner t page =
  if ever_mapped t page && pstate t page <> st_unmapped then
    Some (owner_proc t page)
  else None

let is_resident t page = pstate t page = st_resident

let is_swapped t page = pstate t page = st_swapped

let is_protected t page = fget t page Page_flags.protected_

let is_dirty t page = fget t page Page_flags.dirty

(* Every residency transition funnels through here so the machine count
   and the owning process's gauge stay in lock-step;
   [Vm_stats.resident_pages] is what surfaces per-process residency to
   the harness without an O(pages) scan. *)
let note_residency t page delta =
  t.resident <- t.resident + delta;
  Vm_stats.add_resident (owner_stats t page) delta

(* Drop a page's frame without writeback, and any swap copy with it: the
   page's next touch zero-fills. The page must be resident and unpinned. *)
let release_frame t page =
  ignore (Lru.remove_if_present t.lru page : bool);
  set_pstate t page st_untouched;
  Swap.drop t.swap page;
  fclear t page Page_flags.dirty;
  fclear t page Page_flags.surrendered;
  note_residency t page (-1)

(* Attempt the swap write behind an eviction, with bounded
   retry-with-backoff on transient I/O errors. Returns false when the
   device is full or the error persisted past the retry budget. *)
let swap_write_retrying t page =
  let max_attempts = 8 in
  let rec go attempt =
    match Swap.write t.swap page with
    | () -> true
    | exception Swap.Io_error ->
        ev_inject t Telemetry.Event.Swap_write_error page;
        let pstats = owner_stats t page in
        pstats.Vm_stats.swap_retries <- pstats.Vm_stats.swap_retries + 1;
        (* linear backoff: each retry waits one more write-slot *)
        Clock.advance t.clock (attempt * t.costs.Costs.swap_write_ns);
        if attempt >= max_attempts then false else go (attempt + 1)
    | exception Swap.Full ->
        ev_inject t Telemetry.Event.Swap_full page;
        let pstats = owner_stats t page in
        pstats.Vm_stats.swap_stalls <- pstats.Vm_stats.swap_stalls + 1;
        false
  in
  go 1

(* Write a resident, unlisted page out to swap. Returns false — leaving
   the page resident, back on the active list — when the swap device
   refuses the write; the reclaim loop then moves on to other victims. *)
let swap_out t page =
  assert (pstate t page = st_resident && not (fget t page Page_flags.pinned));
  let wrote =
    if fget t page Page_flags.dirty || not (Swap.has_copy t.swap page) then begin
      if swap_write_retrying t page then begin
        let pstats = owner_stats t page in
        Clock.advance t.clock t.costs.Costs.swap_write_ns;
        ev t Telemetry.Event.Swap_write page (Process.pid (owner_proc t page));
        pstats.Vm_stats.swap_outs <- pstats.Vm_stats.swap_outs + 1;
        true
      end
      else false
    end
    else true
  in
  if wrote then begin
    set_pstate t page st_swapped;
    fclear t page Page_flags.dirty;
    fclear t page Page_flags.surrendered;
    fclear t page Page_flags.referenced;
    note_residency t page (-1);
    ev t Telemetry.Event.Eviction page (Process.pid (owner_proc t page));
    let pstats = owner_stats t page in
    pstats.Vm_stats.evictions <- pstats.Vm_stats.evictions + 1;
    true
  end
  else begin
    (* eviction failed: the page stays resident and re-enters the LRU so
       a later pass can retry once the device recovers *)
    fclear t page Page_flags.referenced;
    fclear t page Page_flags.surrendered;
    if Lru.membership t.lru page = None then Lru.push_active_head t.lru page;
    false
  end

(* Deliver a pre-eviction notice now, counting it as delivered. *)
let deliver_eviction_notice t h victim =
  ev t Telemetry.Event.Eviction_notice victim
    (Process.pid (owner_proc t victim));
  let pstats = owner_stats t victim in
  pstats.Vm_stats.eviction_notices <- pstats.Vm_stats.eviction_notices + 1;
  h.Process.on_eviction_notice victim

(* Deliver a notice of [kind] to the page owner's handlers [h], now. *)
let deliver t h kind page =
  match kind with
  | Fault_plan.Eviction -> deliver_eviction_notice t h page
  | Fault_plan.Resident ->
      ev t Telemetry.Event.Made_resident page (Process.pid (owner_proc t page));
      h.Process.on_resident page

(* Route a notice for handlers [h] through the fault plan: deliver it,
   drop it, queue it for late delivery, or deliver now and again later. *)
let route_notice t h kind page =
  let decision =
    match t.faults with
    | None -> Fault_plan.Deliver
    | Some plan -> Fault_plan.on_notice plan kind
  in
  match decision with
  | Fault_plan.Deliver -> deliver t h kind page
  | Fault_plan.Drop ->
      ev_inject t
        (match kind with
        | Fault_plan.Eviction -> Telemetry.Event.Dropped_eviction
        | Fault_plan.Resident -> Telemetry.Event.Dropped_resident)
        page
  | Fault_plan.Delay ->
      ev_inject t Telemetry.Event.Delayed_notice page;
      Queue.add (kind, page) t.pending_notices;
      t.notices_pending <- true;
      (* the touch fast path has no pending-notices test: it relies on a
         raised flag invalidating the chunk cache (see [touch]) *)
      t.fast_ci <- -1
  | Fault_plan.Duplicate ->
      ev_inject t Telemetry.Event.Duplicated_notice page;
      deliver t h kind page;
      Queue.add (kind, page) t.pending_notices;
      t.notices_pending <- true;
      t.fast_ci <- -1

(* Move up to [n] pages from the active tail into the inactive list,
   giving referenced pages a second chance. Returns how many moved. *)
let refill_inactive t n =
  let moved = ref 0 in
  let attempts = ref 0 in
  let budget = (2 * Lru.active_size t.lru) + 2 in
  while !moved < n && !attempts < budget do
    incr attempts;
    let page = Lru.active_tail t.lru in
    if page < 0 then attempts := budget
    else begin
      check_mapped t page;
      Lru.remove t.lru page;
      if fget t page Page_flags.referenced then begin
        fclear t page Page_flags.referenced;
        Lru.push_active_head t.lru page
      end
      else begin
        Lru.push_inactive_head t.lru page;
        incr moved
      end
    end
  done;
  !moved

let lru_tail t ~inactive =
  if inactive then Lru.inactive_tail t.lru else Lru.active_tail t.lru

(* Desperation: evict the coldest unpinned pages of one list, from its
   tail, without notices, until [required] frames are free. A failed swap
   write re-queues the victim, so [attempts] bounds the tries across both
   lists. *)
let steal t ~required ~inactive attempts max_attempts =
  while
    free_frames t < required && !attempts < max_attempts
    && lru_tail t ~inactive >= 0
  do
    let victim = lru_tail t ~inactive in
    incr attempts;
    check_mapped t victim;
    Lru.remove t.lru victim;
    fclear t victim Page_flags.referenced;
    if swap_out t victim then begin
      ev t Telemetry.Event.Forced_eviction victim
        (Process.pid (owner_proc t victim));
      let pstats = owner_stats t victim in
      pstats.Vm_stats.forced_evictions <- pstats.Vm_stats.forced_evictions + 1
    end
  done

(* The body of [reclaim], run with [in_reclaim] set. *)
let reclaim_frames t ~required ~target =
  let budget = (4 * (Lru.active_size t.lru + Lru.inactive_size t.lru)) + 64 in
  let scanned = ref 0 in
  while free_frames t < target && !scanned < budget do
    incr scanned;
    if Lru.inactive_size t.lru = 0 then begin
      if refill_inactive t t.reclaim_batch = 0 then
        raise
          (Thrashing
             (Printf.sprintf
                "need %d free frames but all %d resident pages are pinned or \
                 unreclaimable"
                target t.resident))
    end
    else begin
      let victim = Lru.inactive_tail t.lru in
      if victim >= 0 then begin
        check_mapped t victim;
        Lru.remove t.lru victim;
        if fget t victim Page_flags.referenced then begin
          (* second chance; a touch also cancels a pending surrender
             (the page's owner was already told it reloaded) *)
          fclear t victim Page_flags.referenced;
          fclear t victim Page_flags.surrendered;
          Lru.push_active_head t.lru victim
        end
        else if fget t victim Page_flags.surrendered then
          ignore (swap_out t victim)
        else begin
          (* Pre-eviction notice: the page is still resident and its
             owner may react before the PTE is unmapped. Only
             registered owners receive (and are billed for) one; the
             fault plan may lose or hold the signal, in which case the
             eviction proceeds as if the owner stayed silent. *)
          (match Process.handlers (owner_proc t victim) with
          | Some h -> route_notice t h Fault_plan.Eviction victim
          | None -> ());
          if Lru.membership t.lru victim <> None then
            (* handler repositioned the page (vm_relinquish) *)
            ()
          else if pstate t victim <> st_resident then
            (* handler discarded it *)
            ()
          else if
            free_frames t >= target || fget t victim Page_flags.referenced
          then begin
            (* pressure relieved, or the owner vetoed by touching *)
            fclear t victim Page_flags.referenced;
            Lru.push_active_head t.lru victim
          end
          else ignore (swap_out t victim)
        end
      end
    end
  done;
  (* Desperation: the cooperative pass failed (every candidate vetoed or
     re-referenced). A real kernel overrides user hints under severe
     pressure: evict the coldest unpinned pages without notices. *)
  if free_frames t < required then begin
    let attempts = ref 0 in
    let max_attempts = (2 * t.resident) + 16 in
    steal t ~required ~inactive:true attempts max_attempts;
    steal t ~required ~inactive:false attempts max_attempts
  end;
  if free_frames t < required then
    raise
      (Thrashing
         (Printf.sprintf "reclaim gave up: %d free of %d required"
            (free_frames t) required));
  ev t Telemetry.Event.Gauge_resident t.resident (free_frames t)

(* Reclaim frames until [free_frames t >= target], raising only when even
   [required] frames cannot be freed (the batch beyond [required] is
   opportunistic clustering). Delivers pre-eviction notices to registered
   owners; handlers may veto (touch), discard (madvise) or surrender
   (vm_relinquish) pages, all of which this loop observes. A reclaim
   started from a handler is a no-op. *)
let reclaim t ~required ~target =
  if not t.in_reclaim then begin
    t.in_reclaim <- true;
    match reclaim_frames t ~required ~target with
    | () -> t.in_reclaim <- false
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        t.in_reclaim <- false;
        Printexc.raise_with_backtrace e bt
  end

(* Make room for one more resident page, freeing a cluster when memory is
   tight so availability moves in batches. *)
let ensure_frame t =
  if free_frames t < 1 then
    reclaim t ~required:1
      ~target:(min t.reclaim_batch (max 1 (t.capacity - t.pinned)))

let count_fault t page ~major =
  let pstats = owner_stats t page in
  if major then begin
    pstats.Vm_stats.major_faults <- pstats.Vm_stats.major_faults + 1;
    pstats.Vm_stats.swap_ins <- pstats.Vm_stats.swap_ins + 1
  end
  else begin
    pstats.Vm_stats.minor_faults <- pstats.Vm_stats.minor_faults + 1
  end

let deliver_protection_fault t page =
  Clock.advance t.clock t.costs.Costs.protection_fault_ns;
  ev t Telemetry.Event.Protection_fault page (Process.pid (owner_proc t page));
  let pstats = owner_stats t page in
  pstats.Vm_stats.protection_faults <- pstats.Vm_stats.protection_faults + 1;
  match Process.handlers (owner_proc t page) with
  | Some h -> h.Process.on_protection_fault page
  | None -> fclear t page Page_flags.protected_

(* Read the page's swap copy, retrying past injected transient errors.
   The fault plan bounds consecutive read errors, so the retry budget is
   never exhausted by injection alone. *)
let swap_read_retrying t page =
  let max_attempts = 6 in
  let rec go attempt =
    match Swap.read t.swap page with
    | () -> ()
    | exception Swap.Io_error ->
        ev_inject t Telemetry.Event.Swap_read_error page;
        let pstats = owner_stats t page in
        pstats.Vm_stats.swap_retries <- pstats.Vm_stats.swap_retries + 1;
        Clock.advance t.clock (attempt * t.costs.Costs.swap_write_ns);
        if attempt >= max_attempts then
          raise
            (Thrashing
               (Printf.sprintf "swap read of page %d failed %d times" page
                  max_attempts))
        else go (attempt + 1)
  in
  go 1

(* The touch slow path: everything except an unprotected resident hit. *)
let rec do_touch t ~write page =
  let s = pstate t page in
  if s = st_resident then begin
    fset t page Page_flags.referenced;
    if write then fset t page Page_flags.dirty;
    if fget t page Page_flags.protected_ then begin
      deliver_protection_fault t page;
      (* retry the access if the handler unprotected the page; if it did
         not, the access proceeds anyway (the handler owns the policy) *)
      if not (fget t page Page_flags.protected_) then do_touch t ~write page
    end
  end
  else if s = st_untouched then begin
    Clock.advance t.clock t.costs.Costs.minor_fault_ns;
    ev t Telemetry.Event.Minor_fault page (Process.pid (owner_proc t page));
    count_fault t page ~major:false;
    ensure_frame t;
    set_pstate t page st_resident;
    fset t page Page_flags.referenced;
    fput t page Page_flags.dirty write;
    note_residency t page 1;
    if not (fget t page Page_flags.pinned) then Lru.push_active_head t.lru page
  end
  else if s = st_swapped then begin
    swap_read_retrying t page;
    Clock.advance t.clock t.costs.Costs.major_fault_ns;
    ev t Telemetry.Event.Swap_read page (Process.pid (owner_proc t page));
    ev t Telemetry.Event.Major_fault page (Process.pid (owner_proc t page));
    count_fault t page ~major:true;
    ensure_frame t;
    set_pstate t page st_resident;
    fset t page Page_flags.referenced;
    fput t page Page_flags.dirty write;
    fclear t page Page_flags.surrendered;
    note_residency t page 1;
    if not (fget t page Page_flags.pinned) then Lru.push_active_head t.lru page;
    (* made-resident notice (the fault plan may lose it — the
       protection upcall below is the reliable backstop), then any
       protection upcall *)
    (match Process.handlers (owner_proc t page) with
    | Some h -> route_notice t h Fault_plan.Resident page
    | None -> ());
    if fget t page Page_flags.protected_ then deliver_protection_fault t page
  end
  else if opid t page = 0 then
    invalid_arg (Printf.sprintf "Vmm: page %d is unmapped" page)
  else invalid_arg (Printf.sprintf "Vmm.touch: page %d unmapped" page)

(* Late delivery of notices the fault plan held back. Notices for pages
   that have since been unmapped, or whose owner has no handlers, are
   quietly discarded; everything else is delivered as-is — possibly
   stale, possibly a duplicate — which is exactly the unreliability the
   consumers must tolerate. *)
let flush_pending_notices t =
  if
    (not t.delivering) && (not t.in_reclaim)
    && not (Queue.is_empty t.pending_notices)
  then begin
    t.delivering <- true;
    Fun.protect ~finally:(fun () -> t.delivering <- false) @@ fun () ->
    let items = List.of_seq (Queue.to_seq t.pending_notices) in
    Queue.clear t.pending_notices;
    (* handlers below may enqueue fresh notices, which re-raise the flag *)
    t.notices_pending <- false;
    let items =
      match t.faults with
      | Some plan when Fault_plan.reorder_pending plan ->
          ev_inject t Telemetry.Event.Reordered_flush 0;
          List.rev items
      | Some _ | None -> items
    in
    List.iter
      (fun (kind, page) ->
        if ever_mapped t page && pstate t page <> st_unmapped then
          match Process.handlers (owner_proc t page) with
          | Some h -> deliver t h kind page
          | None -> ())
      items
  end

(* The fast path below hard-codes the Page_flags bit layout: dev-profile
   builds pass -opaque, which turns Page_flags accessors into real calls
   and its constants into module-block loads, so going through the module
   would put two calls and a stack frame on the hottest loop in the
   simulator. Verified against the real layout at module init. *)
let () =
  assert (
    Page_flags.referenced = 2 && Page_flags.dirty = 1
    && Page_flags.protected_ = 4)

(* Chunk-cache miss: flush any pending notices (a raised flag always
   invalidates the cache — see [route_notice] — so a cache hit implies no
   pending notices and the fast path below carries no notices test at
   all), install the page's chunk and take one touch step on it. Only
   materialised chunks are ever cached — a materialised chunk is never
   replaced, so the cached bytes cannot go stale. An unmaterialised
   chunk means the page was never mapped.

   The single touch step is taken directly on the chunk rather than by
   retrying through the cache: a flush may itself enqueue fresh notices
   (re-invalidating the cache), and the historical semantics flush at
   most once per touch. For the same reason the cache is only installed
   when the flush left nothing pending. *)
let touch_miss t ~write page =
  if t.notices_pending then flush_pending_notices t;
  if Sparse.is_materialized t.pt page then begin
    let chunk = Page_table.chunk_of t.pt page in
    let states = chunk.Page_table.states
    and flags = chunk.Page_table.flags in
    if not t.notices_pending then begin
      t.fast_ci <- page lsr Page_table.chunk_shift;
      t.fast_states <- states;
      t.fast_flags <- flags
    end;
    let s = page land Page_table.chunk_mask in
    if Char.code (Bytes.get states s) = st_resident then begin
      let f = Char.code (Bytes.get flags s) in
      if f land 4 (* protected_ *) = 0 then
        Bytes.set flags s
          (Char.unsafe_chr
             (f lor if write then 3 (* referenced+dirty *) else 2))
      else do_touch t ~write page
    end
    else do_touch t ~write page
  end
  else invalid_arg (Printf.sprintf "Vmm: page %d is unmapped" page)

(* The hot path of the whole simulator: every simulated byte the mutator
   or a collector touches lands here. The fast path — page in the cached
   chunk, resident, unprotected — is a shift + compare against the
   cached chunk index, one state-byte load and one flag-byte
   read-modify-write. There is no pending-notices test: enqueuing a
   notice invalidates the chunk cache, so a hit proves the queue is
   empty and [touch_miss] flushes on the way back in. A chunk-cache miss
   refreshes the cache through [touch_miss] and everything else drops to
   [do_touch].

   Negative pages cannot false-hit the cache: [page lsr chunk_shift] on a
   negative argument yields a huge positive index far above any chunk the
   root array could hold, so the compare fails and [touch_miss] reports
   the page unmapped, preserving the error wording. *)
let touch t ?(write = false) page =
  if page lsr Page_table.chunk_shift = t.fast_ci then begin
    let s = page land Page_table.chunk_mask in
    if Char.code (Bytes.unsafe_get t.fast_states s) = st_resident then begin
      let f = Char.code (Bytes.unsafe_get t.fast_flags s) in
      if f land 4 (* protected_ *) = 0 then
        Bytes.unsafe_set t.fast_flags s
          (Char.unsafe_chr
             (f lor if write then 3 (* referenced+dirty *) else 2))
      else do_touch t ~write page
    end
    else do_touch t ~write page
  end
  else touch_miss t ~write page

let unmap_range t ~first_page ~npages =
  for p = first_page to first_page + npages - 1 do
    if ever_mapped t p then begin
      if pstate t p = st_resident then begin
        if fget t p Page_flags.pinned then begin
          fclear t p Page_flags.pinned;
          t.pinned <- t.pinned - 1;
          note_residency t p (-1)
        end
        else release_frame t p
      end;
      Swap.drop t.swap p;
      set_pstate t p st_unmapped;
      fclear t p Page_flags.protected_
    end
  done

let madvise_dontneed t page =
  if ever_mapped t page then begin
    Clock.advance t.clock t.costs.Costs.syscall_ns;
    let s = pstate t page in
    if s = st_resident then begin
      if fget t page Page_flags.pinned then
        invalid_arg "Vmm.madvise_dontneed: page is pinned";
      release_frame t page;
      ev t Telemetry.Event.Discard page (Process.pid (owner_proc t page));
      let pstats = owner_stats t page in
      pstats.Vm_stats.discards <- pstats.Vm_stats.discards + 1
    end
    else if s = st_swapped then begin
      Swap.drop t.swap page;
      set_pstate t page st_untouched;
      fclear t page Page_flags.dirty;
      ev t Telemetry.Event.Discard page (Process.pid (owner_proc t page));
      let pstats = owner_stats t page in
      pstats.Vm_stats.discards <- pstats.Vm_stats.discards + 1
    end
  end

let vm_relinquish t pages =
  Clock.advance t.clock t.costs.Costs.syscall_ns;
  List.iter
    (fun page ->
      if
        ever_mapped t page
        && pstate t page = st_resident
        && not (fget t page Page_flags.pinned)
      then begin
        fclear t page Page_flags.referenced;
        fset t page Page_flags.surrendered;
        ignore (Lru.remove_if_present t.lru page : bool);
        Lru.push_inactive_tail t.lru page;
        ev t Telemetry.Event.Relinquish page (Process.pid (owner_proc t page));
        let pstats = owner_stats t page in
        pstats.Vm_stats.relinquished <- pstats.Vm_stats.relinquished + 1
      end)
    pages

let mprotect t page ~protect =
  Clock.advance t.clock t.costs.Costs.syscall_ns;
  check_mapped t page;
  fput t page Page_flags.protected_ protect

let mlock t page =
  check_mapped t page;
  (* locking must not fire protection upcalls; lock the raw frame *)
  if pstate t page <> st_resident then touch t ~write:false page;
  if not (fget t page Page_flags.pinned) then begin
    fset t page Page_flags.pinned;
    t.pinned <- t.pinned + 1;
    ignore (Lru.remove_if_present t.lru page : bool)
  end

let munlock t page =
  check_mapped t page;
  if fget t page Page_flags.pinned then begin
    fclear t page Page_flags.pinned;
    t.pinned <- t.pinned - 1;
    if pstate t page = st_resident then Lru.push_active_head t.lru page
  end

let set_capacity t frames =
  if frames <= 0 then invalid_arg "Vmm.set_capacity";
  t.capacity <- frames;
  if free_frames t < 0 then reclaim t ~required:0 ~target:0

let coldest_pages t ~owner ~n =
  let pid = Process.pid owner in
  let acc = ref [] in
  let count = ref 0 in
  let consider page =
    if !count < n && opid t page = pid then begin
      acc := page :: !acc;
      incr count
    end
  in
  Lru.iter_inactive_from_tail t.lru consider;
  Lru.iter_active_from_tail t.lru consider;
  List.rev !acc

(* O(materialised pages) scan, kept as the debug cross-check for the
   gauge below. Only materialised chunks are visited, so the scan stays
   proportional to touched pages even on 2^30-page address spaces. *)
let debug_count_resident_owned t proc =
  let pid = Process.pid proc in
  let n = ref 0 in
  Sparse.iter t.pt (fun _ chunk ->
      for s = 0 to Page_table.chunk_pages - 1 do
        if
          Char.code (Bytes.unsafe_get chunk.Page_table.states s) = st_resident
          && Array.unsafe_get chunk.Page_table.owners s = pid
        then incr n
      done);
  !n

(* Per-process residency is maintained incrementally by [note_residency],
   so this is a gauge read; the materialised-chunk scan survives only as
   an assertion (compiled out with -noassert). *)
let count_resident_owned t proc =
  let n = (Process.stats proc).Vm_stats.resident_pages in
  assert (n = debug_count_resident_owned t proc);
  n
