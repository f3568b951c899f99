module Vmm = Vmsim.Vmm
module Lru = Vmsim.Lru
module Clock = Vmsim.Clock
module Process = Vmsim.Process
module Vm_stats = Vmsim.Vm_stats

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Lru                                                                *)

let test_lru_push_remove () =
  let l = Lru.create () in
  Lru.push_active_head l 1;
  Lru.push_active_head l 2;
  check Alcotest.int "active tail is first pushed" 1 (Lru.active_tail l);
  check Alcotest.int "active size" 2 (Lru.active_size l);
  Lru.remove l 1;
  check Alcotest.int "tail after remove" 2 (Lru.active_tail l);
  Lru.remove l 2;
  check Alcotest.int "empty" (-1) (Lru.active_tail l)

let test_lru_inactive_order () =
  let l = Lru.create () in
  Lru.push_inactive_head l 1;
  Lru.push_inactive_head l 2;
  (* reclaim happens at the tail: 1 went in first, sits at tail *)
  check Alcotest.int "fifo victim" 1 (Lru.inactive_tail l);
  Lru.push_inactive_tail l 3;
  check Alcotest.int "tail insert is next victim" 3 (Lru.inactive_tail l)

let test_lru_membership () =
  let l = Lru.create () in
  Lru.push_active_head l 7;
  check Alcotest.bool "active member" true (Lru.membership l 7 = Some Lru.Active);
  Lru.remove l 7;
  Lru.push_inactive_head l 7;
  check Alcotest.bool "inactive member" true
    (Lru.membership l 7 = Some Lru.Inactive);
  check Alcotest.bool "non member" true (Lru.membership l 8 = None)

let test_lru_double_insert_rejected () =
  let l = Lru.create () in
  Lru.push_active_head l 1;
  Alcotest.check_raises "double insert"
    (Invalid_argument "Lru: page already on a list") (fun () ->
      Lru.push_inactive_head l 1)

let test_lru_iterate () =
  let l = Lru.create () in
  List.iter (Lru.push_inactive_head l) [ 1; 2; 3 ];
  let rec walk p order = if p < 0 then order else walk (Lru.prev l p) (p :: order) in
  check (Alcotest.list Alcotest.int) "tail-to-head" [ 3; 2; 1 ]
    (walk (Lru.inactive_tail l) [])

let test_lru_remove_if_present () =
  let l = Lru.create () in
  check Alcotest.bool "absent page" false (Lru.remove_if_present l 3);
  Lru.push_active_head l 3;
  check Alcotest.bool "active member removed" true (Lru.remove_if_present l 3);
  check Alcotest.bool "removed is gone" false (Lru.remove_if_present l 3);
  check Alcotest.int "lists empty" 0 (Lru.active_size l + Lru.inactive_size l);
  Lru.push_inactive_head l 4;
  check Alcotest.bool "inactive member removed" true
    (Lru.remove_if_present l 4);
  check Alcotest.bool "membership cleared" true (Lru.membership l 4 = None);
  (* beyond the grown arrays: trivially absent, must not grow or raise *)
  check Alcotest.bool "way out of range" false (Lru.remove_if_present l 100_000)

(* The link arrays are chunked: pages with giant numbers must list and
   unlist without the lists ever allocating dense tables. *)
let test_lru_giant_pages () =
  let l = Lru.create () in
  let giant = (1 lsl 30) + 5 in
  Lru.push_active_head l giant;
  Lru.push_inactive_head l 3;
  Lru.push_inactive_head l (giant + 100_000);
  check Alcotest.bool "giant active member" true
    (Lru.membership l giant = Some Lru.Active);
  check Alcotest.int "giant inactive ordering" 3 (Lru.inactive_tail l);
  Lru.remove l giant;
  check Alcotest.bool "giant removed" true (Lru.membership l giant = None);
  check Alcotest.bool "untouched giant region absent" false
    (Lru.remove_if_present l (giant + 200_000))

(* ----------------------------------------------------------------- *)
(* Page_flags                                                         *)

module Page_flags = Vmsim.Page_flags

let test_page_flags_roundtrip () =
  let b = Page_flags.create 4 in
  List.iter
    (fun bit ->
      check Alcotest.bool "initially clear" false (Page_flags.get b 2 bit);
      Page_flags.set b 2 bit;
      check Alcotest.bool "set" true (Page_flags.get b 2 bit);
      check Alcotest.int "neighbour untouched" 0 (Page_flags.byte b 1);
      Page_flags.clear b 2 bit;
      check Alcotest.bool "cleared" false (Page_flags.get b 2 bit);
      Page_flags.put b 2 bit true;
      check Alcotest.bool "put true" true (Page_flags.get b 2 bit);
      Page_flags.put b 2 bit false;
      check Alcotest.bool "put false" false (Page_flags.get b 2 bit))
    Page_flags.all;
  (* bits are independent: from all-set, dropping one keeps the rest *)
  List.iter (fun bit -> Page_flags.set b 0 bit) Page_flags.all;
  let full = List.fold_left ( lor ) 0 Page_flags.all in
  check Alcotest.int "packed byte" full (Page_flags.byte b 0);
  List.iter
    (fun bit ->
      Page_flags.clear b 0 bit;
      check Alcotest.int "others survive" (full land lnot bit)
        (Page_flags.byte b 0);
      Page_flags.set b 0 bit)
    Page_flags.all

let test_page_flags_layout () =
  check Alcotest.int "five flags" 5 (List.length Page_flags.all);
  check Alcotest.int "distinct bits" 5
    (List.length (List.sort_uniq compare Page_flags.all));
  List.iter
    (fun bit ->
      check Alcotest.bool "single bit" true (bit > 0 && bit land (bit - 1) = 0))
    Page_flags.all;
  (* the VMM touch fast path hard-codes these three *)
  check Alcotest.int "dirty" 1 Page_flags.dirty;
  check Alcotest.int "referenced" 2 Page_flags.referenced;
  check Alcotest.int "protected" 4 Page_flags.protected_

let test_page_flags_grow () =
  let b = Page_flags.create 2 in
  Page_flags.set b 1 Page_flags.pinned;
  Page_flags.set b 1 Page_flags.surrendered;
  let b = Page_flags.grow b 8 in
  check Alcotest.int "grown length" 8 (Page_flags.length b);
  check Alcotest.int "contents preserved"
    (Page_flags.pinned lor Page_flags.surrendered)
    (Page_flags.byte b 1);
  check Alcotest.int "new pages clear" 0 (Page_flags.byte b 7)

(* ----------------------------------------------------------------- *)
(* Vmm basics                                                         *)

let machine ?(frames = 64) ?(batch = 2) () =
  let clock = Clock.create () in
  let vmm = Vmm.create ~reclaim_batch:batch ~clock ~frames () in
  let proc = Vmm.create_process vmm in
  (clock, vmm, proc)

let test_first_touch_minor_fault () =
  let clock, vmm, proc = machine () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:4;
  check Alcotest.bool "untouched not resident" false (Vmm.is_resident vmm 0);
  let t0 = Clock.now clock in
  Vmm.touch vmm 0;
  check Alcotest.bool "resident after touch" true (Vmm.is_resident vmm 0);
  check Alcotest.int "one minor fault" 1
    (Process.stats proc).Vm_stats.minor_faults;
  check Alcotest.bool "minor fault charged" true (Clock.now clock > t0);
  Vmm.touch vmm 0;
  check Alcotest.int "second touch free" 1
    (Process.stats proc).Vm_stats.minor_faults

let test_unmapped_touch_rejected () =
  let _, vmm, _ = machine () in
  Alcotest.check_raises "unmapped" (Invalid_argument "Vmm: page 9 is unmapped")
    (fun () -> Vmm.touch vmm 9)

let test_eviction_and_major_fault () =
  let clock, vmm, proc = machine ~frames:8 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:32;
  for p = 0 to 31 do
    Vmm.touch vmm ~write:true p
  done;
  (* only 8 frames: earlier pages must have been evicted *)
  check Alcotest.bool "capacity respected" true (Vmm.resident_count vmm <= 8);
  check Alcotest.bool "evictions happened" true
    ((Process.stats proc).Vm_stats.evictions > 0);
  let swapped = ref [] in
  for p = 0 to 31 do
    if Vmm.is_swapped vmm p then swapped := p :: !swapped
  done;
  check Alcotest.bool "some pages swapped" true (!swapped <> []);
  let victim = List.hd !swapped in
  let t0 = Clock.now clock in
  Vmm.touch vmm victim;
  check Alcotest.bool "major fault charged disk latency" true
    (Clock.now clock - t0 >= (Vmm.costs vmm).Vmsim.Costs.major_fault_ns);
  check Alcotest.bool "major fault counted" true
    ((Process.stats proc).Vm_stats.major_faults > 0)

let test_second_chance () =
  let _, vmm, proc = machine ~frames:4 ~batch:1 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:8;
  for p = 0 to 3 do
    Vmm.touch vmm ~write:true p
  done;
  (* first demand: every reference bit is set, so the clock sweep
     degenerates to FIFO and evicts the oldest page *)
  Vmm.touch vmm 4;
  check Alcotest.bool "oldest evicted first" true (Vmm.is_swapped vmm 0);
  (* reference bits are now clear; re-referencing page 1 protects it *)
  Vmm.touch vmm 1;
  Vmm.touch vmm 5;
  check Alcotest.bool "referenced page got its second chance" true
    (Vmm.is_resident vmm 1);
  check Alcotest.bool "unreferenced page evicted instead" true
    (Vmm.is_swapped vmm 2)

let test_notice_delivered_to_registered () =
  let _, vmm, proc = machine ~frames:4 () in
  let noticed = ref [] in
  Process.register proc
    {
      Process.on_eviction_notice = (fun p -> noticed := p :: !noticed);
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "notices delivered" true (!noticed <> []);
  check Alcotest.bool "stats count notices" true
    ((Process.stats proc).Vm_stats.eviction_notices > 0)

let test_unregistered_gets_no_notice () =
  let _, vmm, proc = machine ~frames:4 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.int "no notices" 0 (Process.stats proc).Vm_stats.eviction_notices

let test_veto_by_touch () =
  let _, vmm, proc = machine ~frames:4 () in
  let protected_page = 0 in
  Process.register proc
    {
      Process.on_eviction_notice =
        (fun p -> if p = protected_page then Vmm.touch vmm p);
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "vetoed page stays resident" true
    (Vmm.is_resident vmm protected_page)

let test_relinquish_skips_notice () =
  let _, vmm, proc = machine ~frames:16 () in
  let noticed = ref 0 in
  Process.register proc
    {
      Process.on_eviction_notice = (fun _ -> incr noticed);
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  Vmm.vm_relinquish vmm [ 0; 1 ];
  check Alcotest.int "relinquished counted" 2
    (Process.stats proc).Vm_stats.relinquished;
  (* demanding frames evicts the surrendered pages without notices *)
  Vmm.map_range vmm proc ~first_page:100 ~npages:2;
  Vmm.touch vmm 100;
  Vmm.touch vmm 101;
  check Alcotest.bool "surrendered page evicted" true (Vmm.is_swapped vmm 0);
  check Alcotest.int "no notice for surrendered" 0 !noticed

let test_relinquish_cancelled_by_touch () =
  let _, vmm, proc = machine ~frames:8 ~batch:1 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:10;
  for p = 0 to 7 do
    Vmm.touch vmm ~write:true p
  done;
  (* age the list so the other pages' reference bits are clear *)
  Vmm.touch vmm 8;
  (* surrender page 1, then the mutator races in and touches it *)
  Vmm.vm_relinquish vmm [ 1 ];
  Vmm.touch vmm 1;
  Vmm.touch vmm 9;
  check Alcotest.bool "touched page survived surrender" true
    (Vmm.is_resident vmm 1);
  check Alcotest.bool "a cold page was evicted instead" true
    (Vmm.is_swapped vmm 2)

let test_madvise_dontneed () =
  let _, vmm, proc = machine () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:2;
  Vmm.touch vmm ~write:true 0;
  let resident_before = Vmm.resident_count vmm in
  Vmm.madvise_dontneed vmm 0;
  check Alcotest.int "frame freed" (resident_before - 1)
    (Vmm.resident_count vmm);
  check Alcotest.int "discard counted" 1 (Process.stats proc).Vm_stats.discards;
  (* next touch is a cheap zero-fill, not a disk read *)
  Vmm.touch vmm 0;
  check Alcotest.int "no major fault" 0 (Process.stats proc).Vm_stats.major_faults

let test_mprotect_upcall () =
  let _, vmm, proc = machine () in
  let faulted = ref [] in
  Process.register proc
    {
      Process.on_eviction_notice = (fun _ -> ());
      on_resident = (fun _ -> ());
      on_protection_fault =
        (fun p ->
          faulted := p :: !faulted;
          Vmm.mprotect vmm p ~protect:false);
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:1;
  Vmm.touch vmm 0;
  Vmm.mprotect vmm 0 ~protect:true;
  check Alcotest.bool "protected" true (Vmm.is_protected vmm 0);
  Vmm.touch vmm 0;
  check (Alcotest.list Alcotest.int) "upcall fired" [ 0 ] !faulted;
  check Alcotest.bool "handler unprotected" false (Vmm.is_protected vmm 0);
  check Alcotest.int "protection fault counted" 1
    (Process.stats proc).Vm_stats.protection_faults

let test_on_resident_fires_on_reload () =
  let _, vmm, proc = machine ~frames:4 () in
  let reloaded = ref [] in
  Process.register proc
    {
      Process.on_eviction_notice = (fun _ -> ());
      on_resident = (fun p -> reloaded := p :: !reloaded);
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  let victim = ref (-1) in
  for p = 0 to 15 do
    if !victim < 0 && Vmm.is_swapped vmm p then victim := p
  done;
  Vmm.touch vmm !victim;
  check Alcotest.bool "on_resident fired" true (List.mem !victim !reloaded)

let test_mlock_pins () =
  let _, vmm, proc = machine ~frames:4 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  Vmm.mlock vmm 0;
  check Alcotest.int "pinned" 1 (Vmm.pinned_count vmm);
  for p = 1 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "pinned page never evicted" true (Vmm.is_resident vmm 0);
  Vmm.munlock vmm 0;
  check Alcotest.int "unpinned" 0 (Vmm.pinned_count vmm)

let test_thrashing_when_all_pinned () =
  let _, vmm, proc = machine ~frames:4 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:8;
  for p = 0 to 3 do
    Vmm.mlock vmm p
  done;
  check Alcotest.bool "thrashing raised" true
    (match Vmm.touch vmm 4 with
    | () -> false
    | exception Vmm.Thrashing _ -> true)

let test_desperation_overrides_veto () =
  let _, vmm, proc = machine ~frames:4 () in
  (* an owner that vetoes everything *)
  Process.register proc
    {
      Process.on_eviction_notice = (fun p -> Vmm.touch vmm p);
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "forced evictions" true
    ((Process.stats proc).Vm_stats.forced_evictions > 0);
  check Alcotest.bool "capacity held" true (Vmm.resident_count vmm <= 4)

let test_set_capacity_shrink () =
  let _, vmm, proc = machine ~frames:16 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  Vmm.set_capacity vmm 4;
  check Alcotest.bool "shrunk" true (Vmm.resident_count vmm <= 4)

let test_unmap_releases () =
  let _, vmm, proc = machine () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:4;
  Vmm.touch vmm 0;
  Vmm.unmap_range vmm ~first_page:0 ~npages:4;
  check Alcotest.int "frames released" 0 (Vmm.resident_count vmm);
  check Alcotest.bool "owner gone" true (Vmm.owner vmm 0 = None)

let test_unmap_swapped_drops_copy () =
  let _, vmm, proc = machine ~frames:4 ~batch:1 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:8;
  for p = 0 to 7 do
    Vmm.touch vmm ~write:true p
  done;
  let victim = ref (-1) in
  for p = 7 downto 0 do
    if Vmm.is_swapped vmm p then victim := p
  done;
  check Alcotest.bool "victim has a swap copy" true
    (Vmsim.Swap.has_copy (Vmm.swap vmm) !victim);
  Vmm.unmap_range vmm ~first_page:!victim ~npages:1;
  check Alcotest.bool "copy dropped at unmap" false
    (Vmsim.Swap.has_copy (Vmm.swap vmm) !victim)

let test_count_resident_owned () =
  let _, vmm, proc = machine () in
  let other = Vmm.create_process vmm in
  Vmm.map_range vmm proc ~first_page:0 ~npages:2;
  Vmm.map_range vmm other ~first_page:10 ~npages:2;
  Vmm.touch vmm 0;
  Vmm.touch vmm 10;
  check Alcotest.int "per-process count" 1 (Vmm.count_resident_owned vmm proc)

(* [count_resident_owned] is a gauge read, not a scan; drive eviction,
   reload, discard and unmap churn and check the gauges stay exact (the
   call itself also cross-checks against a full-table scan in debug
   builds). *)
let test_resident_gauge_tracks_churn () =
  let _, vmm, proc = machine ~frames:4 () in
  let other = Vmm.create_process vmm in
  Vmm.map_range vmm proc ~first_page:0 ~npages:6;
  Vmm.map_range vmm other ~first_page:10 ~npages:2;
  let agree msg =
    check Alcotest.int msg (Vmm.resident_count vmm)
      (Vmm.count_resident_owned vmm proc + Vmm.count_resident_owned vmm other);
    check Alcotest.int (msg ^ " (raw gauge)")
      (Vmm.count_resident_owned vmm proc)
      (Process.stats proc).Vm_stats.resident_pages
  in
  (* 7 touches into 4 frames: evictions and reloads on proc's pages *)
  for p = 0 to 5 do
    Vmm.touch vmm p
  done;
  Vmm.touch vmm 10;
  agree "after eviction churn";
  Vmm.touch vmm 0;
  agree "after reload";
  (match
     List.find_opt (fun p -> Vmm.is_resident vmm p) [ 0; 1; 2; 3; 4; 5 ]
   with
  | Some p -> Vmm.madvise_dontneed vmm p
  | None -> ());
  agree "after discard";
  Vmm.unmap_range vmm ~first_page:0 ~npages:6;
  check Alcotest.int "unmap zeroes the gauge" 0
    (Vmm.count_resident_owned vmm proc);
  agree "after unmap"

let test_coldest_pages () =
  let _, vmm, proc = machine ~frames:32 () in
  let other = Vmm.create_process vmm in
  Vmm.map_range vmm proc ~first_page:0 ~npages:4;
  Vmm.map_range vmm other ~first_page:10 ~npages:2;
  List.iter (fun p -> Vmm.touch vmm p) [ 0; 1; 10; 2; 11; 3 ];
  (* the pages go after what the buffer already holds *)
  let buf = Repro_util.Vec.of_list [ -7 ] in
  Vmm.coldest_pages vmm ~owner:proc ~n:3 buf;
  let cold = List.tl (Repro_util.Vec.to_list buf) in
  check Alcotest.int "buffer kept" (-7) (Repro_util.Vec.get buf 0);
  check Alcotest.int "n respected" 3 (List.length cold);
  check Alcotest.bool "only owner's pages" true
    (List.for_all (fun p -> p < 4) cold);
  (* coldest = least recently faulted in: page 0 first *)
  check Alcotest.int "coldest first" 0 (List.hd cold);
  Repro_util.Vec.clear buf;
  Vmm.coldest_pages vmm ~owner:proc ~n:0 buf;
  check Alcotest.int "none for n = 0" 0 (Repro_util.Vec.length buf)

(* ----------------------------------------------------------------- *)
(* Swap device                                                        *)

let test_swap_accounting () =
  let s = Vmsim.Swap.create () in
  Vmsim.Swap.write s 1;
  Vmsim.Swap.write s 2;
  check Alcotest.int "occupancy" 2 (Vmsim.Swap.occupancy_pages s);
  Vmsim.Swap.read s 1;
  check Alcotest.int "reads" 1 (Vmsim.Swap.reads s);
  Vmsim.Swap.drop s 1;
  check Alcotest.int "occupancy after drop" 1 (Vmsim.Swap.occupancy_pages s);
  check Alcotest.int "high water" 2 (Vmsim.Swap.high_water_pages s);
  check Alcotest.bool "has copy" true (Vmsim.Swap.has_copy s 2);
  Alcotest.check_raises "read without copy"
    (Invalid_argument "Swap.read: page 1 has no swap copy") (fun () ->
      Vmsim.Swap.read s 1)

let test_swap_capacity () =
  let s = Vmsim.Swap.create ~capacity_pages:1 () in
  Vmsim.Swap.write s 1;
  check Alcotest.bool "full raises" true
    (match Vmsim.Swap.write s 2 with
    | () -> false
    | exception Vmsim.Swap.Full -> true);
  (* rewriting an existing copy is fine at capacity *)
  Vmsim.Swap.write s 1

(* A page read back from swap is clean and keeps its copy; discarding it
   drops the copy with the frame, or the dead copy would hold a slot of a
   bounded device until the page is unmapped. *)
let test_discard_drops_clean_copy () =
  let clock = Clock.create () in
  let vmm =
    Vmm.create ~reclaim_batch:1 ~swap_capacity_pages:2 ~clock ~frames:2 ()
  in
  let proc = Vmm.create_process vmm in
  Vmm.map_range vmm proc ~first_page:0 ~npages:3;
  for p = 0 to 2 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "page 0 swapped" true (Vmm.is_swapped vmm 0);
  Vmm.touch vmm 0;
  let swap = Vmm.swap vmm in
  check Alcotest.bool "read back: resident and clean" true
    (Vmm.is_resident vmm 0 && not (Vmm.is_dirty vmm 0));
  check Alcotest.bool "read back keeps the copy" true
    (Vmsim.Swap.has_copy swap 0);
  Vmm.madvise_dontneed vmm 0;
  check Alcotest.bool "discard drops the copy" false
    (Vmsim.Swap.has_copy swap 0);
  check Alcotest.int "occupancy counts only swapped pages"
    (List.length (List.filter (Vmm.is_swapped vmm) [ 0; 1; 2 ]))
    (Vmsim.Swap.occupancy_pages swap)

let test_swap_tracks_evictions () =
  let _, vmm, proc = machine ~frames:8 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:32;
  for p = 0 to 31 do
    Vmm.touch vmm ~write:true p
  done;
  let swap = Vmm.swap vmm in
  check Alcotest.bool "swap occupied" true
    (Vmsim.Swap.occupancy_pages swap > 0);
  check Alcotest.int "occupancy matches swapped pages"
    (let n = ref 0 in
     for p = 0 to 31 do
       if Vmm.is_swapped vmm p then incr n
     done;
     !n)
    (Vmsim.Swap.occupancy_pages swap);
  (* reloading reads the copy but keeps it *)
  let victim = ref (-1) in
  for p = 31 downto 0 do
    if Vmm.is_swapped vmm p then victim := p
  done;
  Vmm.touch vmm !victim;
  check Alcotest.bool "reads counted" true (Vmsim.Swap.reads swap > 0)

(* ----------------------------------------------------------------- *)
(* Cooperation syscalls under failure                                  *)

let test_relinquish_already_evicted () =
  let _, vmm, proc = machine ~frames:4 ~batch:1 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:8;
  for p = 0 to 7 do
    Vmm.touch vmm ~write:true p
  done;
  let swapped = ref [] in
  for p = 0 to 7 do
    if Vmm.is_swapped vmm p then swapped := p :: !swapped
  done;
  check Alcotest.bool "some pages already evicted" true (!swapped <> []);
  (* surrendering pages the kernel already evicted (a stale footprint
     view after lost notices) must be a harmless no-op *)
  Vmm.vm_relinquish vmm !swapped;
  check Alcotest.int "nothing newly relinquished" 0
    (Process.stats proc).Vm_stats.relinquished;
  List.iter
    (fun p -> check Alcotest.bool "still swapped" true (Vmm.is_swapped vmm p))
    !swapped;
  (* same for unmapped and never-touched pages *)
  Vmm.vm_relinquish vmm [ 200; 201 ]

let test_madvise_races_reclaim () =
  let _, vmm, proc = machine ~frames:4 ~batch:1 () in
  (* an owner that answers every eviction notice by discarding the
     page — madvise_dontneed issued from inside the reclaim pass *)
  Process.register proc
    {
      Process.on_eviction_notice = (fun p -> Vmm.madvise_dontneed vmm p);
      on_resident = (fun _ -> ());
      on_protection_fault = (fun _ -> ());
    };
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  for p = 0 to 15 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.bool "discards recorded" true
    ((Process.stats proc).Vm_stats.discards > 0);
  check Alcotest.bool "capacity held" true (Vmm.resident_count vmm <= 4);
  (* discarded pages need no swap copy: re-touching is a zero fill *)
  check Alcotest.int "no major faults" 0 (Process.stats proc).Vm_stats.major_faults

let test_mlock_when_all_frames_pinned () =
  let _, vmm, proc = machine ~frames:4 () in
  Vmm.map_range vmm proc ~first_page:0 ~npages:8;
  for p = 0 to 3 do
    Vmm.mlock vmm p
  done;
  check Alcotest.int "all frames pinned" 4 (Vmm.pinned_count vmm);
  (* locking a fifth page needs a frame no reclaim pass can free *)
  check Alcotest.bool "mlock past capacity raises Thrashing" true
    (match Vmm.mlock vmm 4 with
    | () -> false
    | exception Vmm.Thrashing _ -> true)

let test_swap_full_during_eviction () =
  let clock = Clock.create () in
  (* swap holds 2 pages; 4 frames; 16 dirty pages force evictions that
     soon find the device full. The run may still complete (stalled
     evictions retried later) or legitimately thrash once neither memory
     nor swap can hold the working set — but Swap.Full must never escape
     the paging path *)
  let vmm =
    Vmm.create ~reclaim_batch:1 ~swap_capacity_pages:2 ~clock ~frames:4 ()
  in
  let proc = Vmm.create_process vmm in
  Vmm.map_range vmm proc ~first_page:0 ~npages:16;
  (match
     for p = 0 to 15 do
       Vmm.touch vmm ~write:true p
     done
   with
  | () -> ()
  | exception Vmm.Thrashing _ -> ()
  | exception Vmsim.Swap.Full -> Alcotest.fail "Swap.Full escaped eviction");
  check Alcotest.bool "stalls recorded" true
    ((Process.stats proc).Vm_stats.swap_stalls > 0);
  check Alcotest.bool "swap capacity respected" true
    (Vmsim.Swap.occupancy_pages (Vmm.swap vmm) <= 2);
  check Alcotest.bool "capacity still held" true (Vmm.resident_count vmm <= 4)

(* ----------------------------------------------------------------- *)
(* Sparse page table and giant address spaces                        *)

module Sparse = Repro_util.Sparse

let owner_pid vmm page =
  match Vmm.owner vmm page with Some p -> Process.pid p | None -> 0

(* The page table is a Sparse table of 4096-page chunks: the layout half
   of each assertion is made on Sparse with the table's shift, and the
   VMM half through Vmm's own functions. *)
let test_page_table_api () =
  let _, vmm, proc = machine () in
  let giant = (1 lsl 30) + 3 in
  let pid = Process.pid proc in
  check Alcotest.int "fresh table: no chunks" 0 (Vmm.table_chunks vmm);
  (* reads are total anywhere in the address space, without allocating *)
  check Alcotest.bool "unmapped state" false
    (Vmm.is_resident vmm giant || Vmm.is_swapped vmm giant);
  check Alcotest.int "owner 0 = never mapped" 0 (owner_pid vmm giant);
  check Alcotest.int "negative pages never mapped" 0 (owner_pid vmm (-5));
  check Alcotest.int "reads materialised nothing" 0 (Vmm.table_chunks vmm);
  Vmm.map_range vmm proc ~first_page:giant ~npages:1;
  check Alcotest.int "exactly one chunk" 1 (Vmm.table_chunks vmm);
  check Alcotest.int "owner recorded" pid (owner_pid vmm giant);
  check Alcotest.int "chunk-mate still never mapped" 0
    (owner_pid vmm (giant + 1));
  Alcotest.check_raises "chunk-mate unmapped"
    (Invalid_argument (Printf.sprintf "Vmm: page %d is unmapped" (giant + 1)))
    (fun () -> Vmm.touch vmm (giant + 1));
  let sentinel = Array.make 4096 0 in
  let pt = Sparse.create ~shift:12 ~sentinel in
  check Alcotest.bool "sentinel covers untouched pages" true
    (Sparse.chunk pt giant == sentinel);
  check Alcotest.bool "negative pages answer sentinel" true
    (Sparse.chunk pt (-5) == sentinel);
  (Sparse.materialize pt giant (fun () -> Array.make 4096 0)).(giant land 4095)
  <- pid;
  check Alcotest.bool "mapped page materialised" true
    (Sparse.is_materialized pt giant);
  check Alcotest.int "exactly one Sparse chunk" 1 (Sparse.materialized pt);
  check Alcotest.int "owner written" pid
    (Sparse.chunk pt giant).(giant land 4095);
  check Alcotest.int "chunk-mate unwritten" 0
    (Sparse.chunk pt (giant + 1)).((giant + 1) land 4095);
  check Alcotest.bool "sentinel unwritten" true
    (Array.for_all (fun x -> x = 0) sentinel);
  let visited = ref [] in
  Sparse.iter pt (fun c _ -> visited := c :: !visited);
  check
    (Alcotest.list Alcotest.int)
    "iter visits only the materialised chunk" [ giant lsr 12 ] !visited

let test_giant_sparse_touch () =
  let _, vmm, proc = machine ~frames:64 () in
  (* straddle the 2^30 boundary: two chunks at most *)
  let base = (1 lsl 30) - 8 in
  Vmm.map_range vmm proc ~first_page:base ~npages:32;
  for p = base to base + 31 do
    Vmm.touch vmm ~write:true p
  done;
  check Alcotest.int "all resident" 32 (Vmm.resident_count vmm);
  check Alcotest.bool "resident at 2^30" true (Vmm.is_resident vmm (1 lsl 30));
  check Alcotest.bool "metadata stays O(touched)" true
    (Vmm.table_chunks vmm <= 2);
  Alcotest.check_raises "far-away page unmapped"
    (Invalid_argument "Vmm: page 4096 is unmapped") (fun () ->
      Vmm.touch vmm 4096);
  Alcotest.check_raises "negative page unmapped"
    (Invalid_argument "Vmm: page -3 is unmapped") (fun () ->
      Vmm.touch vmm (-3))

(* The pid table is one array that doubles when full: 600 processes grow
   it past 512 slots, and every pid must still resolve as its pages'
   owner. *)
let test_many_processes () =
  let _, vmm, _ = machine ~frames:2048 () in
  let procs =
    List.init 600 (fun _ -> Vmm.create_process vmm)
  in
  List.iteri
    (fun i proc ->
      Vmm.map_range vmm proc ~first_page:(i * 4) ~npages:2;
      Vmm.touch vmm (i * 4))
    procs;
  List.iteri
    (fun i proc ->
      match Vmm.owner vmm (i * 4) with
      | Some p ->
          if Process.pid p <> Process.pid proc then
            Alcotest.failf "page %d owned by pid %d, expected %d" (i * 4)
              (Process.pid p) (Process.pid proc)
      | None -> Alcotest.failf "page %d has no owner" (i * 4))
    procs

(* Model property: a random touch/madvise/relinquish sequence keeps the
   VMM's resident count within capacity and consistent with page
   states. *)
let prop_vmm_model =
  QCheck.Test.make ~name:"vmm invariants under random operations" ~count:60
    QCheck.(small_list (pair (int_bound 3) (int_bound 31)))
    (fun ops ->
      let _, vmm, proc = machine ~frames:8 () in
      Vmm.map_range vmm proc ~first_page:0 ~npages:32;
      List.iter
        (fun (op, page) ->
          match op with
          | 0 -> Vmm.touch vmm page
          | 1 -> Vmm.touch vmm ~write:true page
          | 2 -> Vmm.madvise_dontneed vmm page
          | _ -> Vmm.vm_relinquish vmm [ page ])
        ops;
      let resident = ref 0 in
      for p = 0 to 31 do
        if Vmm.is_resident vmm p then incr resident
      done;
      !resident = Vmm.resident_count vmm && !resident <= 8)

let () =
  Alcotest.run "vmsim"
    [
      ( "lru",
        [
          Alcotest.test_case "push/remove" `Quick test_lru_push_remove;
          Alcotest.test_case "inactive order" `Quick test_lru_inactive_order;
          Alcotest.test_case "membership" `Quick test_lru_membership;
          Alcotest.test_case "double insert" `Quick test_lru_double_insert_rejected;
          Alcotest.test_case "iterate" `Quick test_lru_iterate;
          Alcotest.test_case "remove if present" `Quick
            test_lru_remove_if_present;
          Alcotest.test_case "giant pages" `Quick test_lru_giant_pages;
        ] );
      ( "page_flags",
        [
          Alcotest.test_case "roundtrip" `Quick test_page_flags_roundtrip;
          Alcotest.test_case "layout" `Quick test_page_flags_layout;
          Alcotest.test_case "grow" `Quick test_page_flags_grow;
        ] );
      ( "faults",
        [
          Alcotest.test_case "first touch minor" `Quick test_first_touch_minor_fault;
          Alcotest.test_case "unmapped rejected" `Quick test_unmapped_touch_rejected;
          Alcotest.test_case "eviction + major" `Quick test_eviction_and_major_fault;
          Alcotest.test_case "second chance" `Quick test_second_chance;
        ] );
      ( "cooperation",
        [
          Alcotest.test_case "notice to registered" `Quick
            test_notice_delivered_to_registered;
          Alcotest.test_case "no notice unregistered" `Quick
            test_unregistered_gets_no_notice;
          Alcotest.test_case "veto by touch" `Quick test_veto_by_touch;
          Alcotest.test_case "relinquish fast path" `Quick
            test_relinquish_skips_notice;
          Alcotest.test_case "relinquish cancelled" `Quick
            test_relinquish_cancelled_by_touch;
          Alcotest.test_case "madvise dontneed" `Quick test_madvise_dontneed;
          Alcotest.test_case "mprotect upcall" `Quick test_mprotect_upcall;
          Alcotest.test_case "on_resident" `Quick test_on_resident_fires_on_reload;
        ] );
      ( "swap",
        [
          Alcotest.test_case "accounting" `Quick test_swap_accounting;
          Alcotest.test_case "capacity" `Quick test_swap_capacity;
          Alcotest.test_case "tracks evictions" `Quick test_swap_tracks_evictions;
          Alcotest.test_case "discard drops clean copy" `Quick
            test_discard_drops_clean_copy;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "mlock pins" `Quick test_mlock_pins;
          Alcotest.test_case "thrashing" `Quick test_thrashing_when_all_pinned;
          Alcotest.test_case "desperation" `Quick test_desperation_overrides_veto;
          Alcotest.test_case "set_capacity" `Quick test_set_capacity_shrink;
          Alcotest.test_case "unmap" `Quick test_unmap_releases;
          Alcotest.test_case "resident owned" `Quick test_count_resident_owned;
          Alcotest.test_case "resident gauge churn" `Quick
            test_resident_gauge_tracks_churn;
          Alcotest.test_case "coldest pages" `Quick test_coldest_pages;
          Alcotest.test_case "unmap drops swap copy" `Quick
            test_unmap_swapped_drops_copy;
        ] );
      ( "failure modes",
        [
          Alcotest.test_case "relinquish already evicted" `Quick
            test_relinquish_already_evicted;
          Alcotest.test_case "madvise races reclaim" `Quick
            test_madvise_races_reclaim;
          Alcotest.test_case "mlock all pinned" `Quick
            test_mlock_when_all_frames_pinned;
          Alcotest.test_case "swap full during eviction" `Quick
            test_swap_full_during_eviction;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "page table api" `Quick test_page_table_api;
          Alcotest.test_case "giant sparse touch" `Quick
            test_giant_sparse_touch;
          Alcotest.test_case "many processes" `Quick test_many_processes;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_vmm_model ]);
    ]
