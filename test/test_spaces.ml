module Mini = Test_support.Mini
module Bump = Gc_common.Bump_space
module Ms = Gc_common.Ms_space
module Los = Gc_common.Large_object_space
module OT = Heapsim.Object_table
module Heap = Heapsim.Heap

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Bump_space                                                         *)

let test_bump_basic () =
  let m = Mini.machine () in
  let b = Bump.create m.Mini.heap ~name:"b" ~npages:4 ~indexed:true in
  check Alcotest.int "capacity" (4 * 4096) (Bump.capacity_bytes b);
  let x = Bump.alloc b ~bytes:100 ~limit_bytes:max_int in
  let y = Bump.alloc b ~bytes:100 ~limit_bytes:max_int in
  if x < 0 || y < 0 then Alcotest.fail "allocations failed";
  check Alcotest.int "contiguous bump" (x + 100) y;
  check Alcotest.bool "contains" true (Bump.contains b x);
  check Alcotest.int "used" 200 (Bump.used_bytes b);
  check Alcotest.int "used pages" 1 (Bump.used_pages b)

let test_bump_limit () =
  let m = Mini.machine () in
  let b = Bump.create m.Mini.heap ~name:"b" ~npages:4 ~indexed:true in
  check Alcotest.int "limit enforced" (-1)
    (Bump.alloc b ~bytes:300 ~limit_bytes:200);
  check Alcotest.int "capacity enforced" (-1)
    (Bump.alloc b ~bytes:(5 * 4096) ~limit_bytes:max_int);
  ignore (Bump.alloc b ~bytes:100 ~limit_bytes:max_int);
  Bump.reset b;
  check Alcotest.int "reset" 0 (Bump.used_bytes b)

(* ----------------------------------------------------------------- *)
(* Ms_space                                                           *)

let ms_fixture () =
  let m = Mini.machine () in
  let ms = Ms.create m.Mini.heap ~name:"ms" ~max_cell:2048 in
  (m, ms)

let test_ms_alloc_same_page () =
  let _, ms = ms_fixture () in
  let x = Ms.alloc ms ~bytes:100 ~grow:(fun () -> true) in
  let y = Ms.alloc ms ~bytes:100 ~grow:(fun () -> true) in
  if x < 0 || y < 0 then Alcotest.fail "alloc failed";
  check Alcotest.int "same page" (Vmsim.Page.of_addr x) (Vmsim.Page.of_addr y);
  check Alcotest.int "one page acquired" 1 (Ms.pages_acquired ms)

let test_ms_grow_denied () =
  let _, ms = ms_fixture () in
  check Alcotest.int "denied" (-1) (Ms.alloc ms ~bytes:64 ~grow:(fun () -> false))

let test_ms_sweep_frees_rejected () =
  let m, ms = ms_fixture () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let place size =
    let addr = Ms.alloc ms ~bytes:size ~grow:(fun () -> true) in
    assert (addr >= 0);
    let id = OT.alloc objects ~size ~nrefs:0 ~kind:`Scalar in
    Heap.place heap id ~addr;
    id
  in
  let live = place 64 in
  let dead = place 64 in
  let free_before = Ms.free_bytes ms in
  Ms.sweep ms ~keep:(fun id -> id = live);
  check Alcotest.bool "kept survives" true (OT.is_live objects live);
  check Alcotest.bool "dead freed" false (OT.is_live objects dead);
  check Alcotest.bool "cell returned" true (Ms.free_bytes ms > free_before)

let test_ms_empty_page_recycled () =
  let m, ms = ms_fixture () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  (* fill a page with one class, kill everything, then allocate a very
     different class: the page must be reusable *)
  let ids =
    List.init 10 (fun _ ->
        let addr = Ms.alloc ms ~bytes:2048 ~grow:(fun () -> true) in
        assert (addr >= 0);
        let id = OT.alloc objects ~size:2048 ~nrefs:0 ~kind:`Scalar in
        Heap.place heap id ~addr;
        id)
  in
  ignore ids;
  let pages_before = Ms.pages_acquired ms in
  Ms.sweep ms ~keep:(fun _ -> false);
  (* nothing kept: all dead, pages wholly empty *)
  let got = ref 0 in
  for _ = 1 to 10 do
    if Ms.alloc ms ~bytes:8 ~grow:(fun () -> false) >= 0 then incr got
  done;
  check Alcotest.bool "recycled page served a different class" true (!got > 0);
  check Alcotest.int "no new pages" pages_before (Ms.pages_acquired ms)

let test_ms_owns_page () =
  let _, ms = ms_fixture () in
  let addr = Ms.alloc ms ~bytes:64 ~grow:(fun () -> true) in
  assert (addr >= 0);
  check Alcotest.bool "owns" true (Ms.owns_page ms (Vmsim.Page.of_addr addr));
  check Alcotest.bool "not owns" false (Ms.owns_page ms 99999)

(* Accounting property: alloc/sweep cycles keep free_bytes consistent
   with what a reference count says. *)
let prop_ms_accounting =
  QCheck.Test.make ~name:"ms_space sweep frees exactly the rejected"
    ~count:50
    QCheck.(small_list (pair (int_range 8 2048) bool))
    (fun plan ->
      let m, ms = ms_fixture () in
      let heap = m.Mini.heap in
      let objects = Heap.objects heap in
      let placed =
        List.filter_map
          (fun (size, keep) ->
            let addr = Ms.alloc ms ~bytes:size ~grow:(fun () -> true) in
            if addr < 0 then None
            else begin
              let id = OT.alloc objects ~size ~nrefs:0 ~kind:`Scalar in
              Heap.place heap id ~addr;
              Some (id, keep)
            end)
          plan
      in
      Ms.sweep ms ~keep:(fun id -> List.assoc id placed);
      List.for_all (fun (id, keep) -> OT.is_live objects id = keep) placed)

(* ----------------------------------------------------------------- *)
(* Large_object_space                                                 *)

let test_los_alloc_sweep () =
  let m = Mini.machine () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let los = Los.create heap ~name:"los" in
  let addr = Los.alloc los ~bytes:10_000 ~grow:(fun ~npages:_ -> true) in
  assert (addr >= 0);
  let id = OT.alloc objects ~size:10_000 ~nrefs:0 ~kind:`Array in
  Heap.place heap id ~addr;
  Los.note_object los id;
  check Alcotest.int "pages for 10000 bytes" 3 (Los.pages_in_use los);
  check Alcotest.bool "owns" true (Los.owns_page los (Vmsim.Page.of_addr addr));
  Los.sweep los ~keep:(fun _ -> true);
  check Alcotest.bool "kept survives" true (OT.is_live objects id);
  (* dies rejected, pages unmapped and each passed to on_free *)
  let freed = ref [] in
  Los.sweep los
    ~on_free:(fun page -> freed := page :: !freed)
    ~keep:(fun _ -> false);
  check Alcotest.bool "rejected dies" false (OT.is_live objects id);
  check Alcotest.int "pages released" 0 (Los.pages_in_use los);
  let first = Vmsim.Page.of_addr addr in
  check (Alcotest.list Alcotest.int) "freed pages" [ first; first + 1; first + 2 ]
    (List.rev !freed)

let test_los_grow_denied () =
  let m = Mini.machine () in
  let los = Los.create m.Mini.heap ~name:"los" in
  check Alcotest.int "denied" (-1)
    (Los.alloc los ~bytes:10_000 ~grow:(fun ~npages:_ -> false))

(* ----------------------------------------------------------------- *)
(* Remset / Card_table / Write_buffer                                 *)

let test_remset () =
  let r = Gc_common.Remset.create () in
  Gc_common.Remset.record r ~src:1 ~field:0;
  Gc_common.Remset.record r ~src:2 ~field:3;
  check Alcotest.int "length" 2 (Gc_common.Remset.length r);
  let seen = ref [] in
  Gc_common.Remset.drain r (fun ~src ~field -> seen := (src, field) :: !seen);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "drained"
    [ (2, 3); (1, 0) ] !seen;
  check Alcotest.int "cleared" 0 (Gc_common.Remset.length r)

let test_card_table () =
  let c = Gc_common.Card_table.create () in
  Gc_common.Card_table.mark_addr c 1000;
  Gc_common.Card_table.mark_addr c 1020;
  (* same 512-byte card *)
  check Alcotest.int "dedup within card" 1 (Gc_common.Card_table.dirty_count c);
  Gc_common.Card_table.mark_addr c 5000;
  check Alcotest.int "two cards" 2 (Gc_common.Card_table.dirty_count c);
  check Alcotest.bool "marked addr" true
    (Gc_common.Card_table.is_marked_addr c 1023);
  let cards = ref [] in
  Gc_common.Card_table.drain c (fun a -> cards := a :: !cards);
  check (Alcotest.list Alcotest.int) "card base addresses" [ 4608; 512 ]
    !cards;
  check Alcotest.int "drained" 0 (Gc_common.Card_table.dirty_count c)

let test_write_buffer_filtering () =
  let m = Mini.machine () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let cards = Gc_common.Card_table.create () in
  (* two sources: a "mature" one (filterable) and a "young" one *)
  let mature = OT.alloc objects ~size:16 ~nrefs:1 ~kind:`Scalar in
  let young = OT.alloc objects ~size:16 ~nrefs:1 ~kind:`Scalar in
  OT.set_addr objects mature 40_000;
  OT.set_addr objects young 80_000;
  let wb =
    Gc_common.Write_buffer.create ~cards
      ~src_addr:(fun id -> OT.addr objects id)
      ~filterable:(fun id -> id = mature)
      ()
  in
  (* fill the buffer past a page of entries *)
  for _ = 1 to Gc_common.Write_buffer.entries_per_page do
    Gc_common.Write_buffer.record wb ~src:mature ~field:0
  done;
  Gc_common.Write_buffer.record wb ~src:young ~field:0;
  check Alcotest.int "one overflow" 1 (Gc_common.Write_buffer.overflow_count wb);
  (* the mature entries collapsed into a card mark *)
  check Alcotest.bool "card marked for mature source" true
    (Gc_common.Card_table.is_marked_addr cards 40_000);
  check Alcotest.bool "buffer kept only unfiltered slots" true
    (Gc_common.Write_buffer.length wb <= 2);
  let survivors = ref [] in
  Gc_common.Write_buffer.drain wb (fun ~src ~field:_ -> survivors := src :: !survivors);
  check Alcotest.bool "young slot survived the filter" true
    (List.mem young !survivors)

let test_nested_pause_single_interval () =
  let clock = Vmsim.Clock.create () in
  let stats = Gc_common.Gc_stats.create () in
  Gc_common.Gc_stats.time_pause stats clock Gc_common.Gc_stats.Full (fun () ->
      Vmsim.Clock.advance clock 1000;
      (* a collection triggered from within a collection (e.g. via an
         eviction notice) folds into the enclosing pause *)
      Gc_common.Gc_stats.time_pause stats clock Gc_common.Gc_stats.Minor
        (fun () -> Vmsim.Clock.advance clock 500));
  check Alcotest.int "one pause recorded" 1
    (List.length (Gc_common.Gc_stats.pauses stats));
  check Alcotest.int "outer kind counted" 1
    (Gc_common.Gc_stats.count stats Gc_common.Gc_stats.Full);
  check Alcotest.int "inner kind folded" 0
    (Gc_common.Gc_stats.count stats Gc_common.Gc_stats.Minor);
  match Gc_common.Gc_stats.pauses stats with
  | [ p ] -> check Alcotest.int "full duration" 1500 p.Gc_common.Gc_stats.duration_ns
  | _ -> Alcotest.fail "expected one pause"

let () =
  Alcotest.run "spaces"
    [
      ( "bump",
        [
          Alcotest.test_case "basic" `Quick test_bump_basic;
          Alcotest.test_case "limits" `Quick test_bump_limit;
        ] );
      ( "mark-sweep space",
        [
          Alcotest.test_case "same page" `Quick test_ms_alloc_same_page;
          Alcotest.test_case "grow denied" `Quick test_ms_grow_denied;
          Alcotest.test_case "sweep" `Quick test_ms_sweep_frees_rejected;
          Alcotest.test_case "page recycling" `Quick test_ms_empty_page_recycled;
          Alcotest.test_case "ownership" `Quick test_ms_owns_page;
        ] );
      ( "large objects",
        [
          Alcotest.test_case "alloc/sweep" `Quick test_los_alloc_sweep;
          Alcotest.test_case "grow denied" `Quick test_los_grow_denied;
        ] );
      ( "remembered sets",
        [
          Alcotest.test_case "remset" `Quick test_remset;
          Alcotest.test_case "card table" `Quick test_card_table;
          Alcotest.test_case "write buffer filter" `Quick
            test_write_buffer_filtering;
        ] );
      ( "pauses",
        [
          Alcotest.test_case "nested pause folds" `Quick
            test_nested_pause_single_interval;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_ms_accounting ]);
    ]
