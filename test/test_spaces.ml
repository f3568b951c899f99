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

(* Carving writes no cell list: once the space's own tables exist, the
   first allocation of a class on a fresh page costs the same host words
   for the 8-byte class (512 cells) as for the space's largest (2 cells
   of 2048 bytes). Holds in the dev and the release build alike. *)
let test_ms_carve_host_words () =
  let carve bytes =
    let _, ms = ms_fixture () in
    ignore (Ms.alloc ms ~bytes:64 ~grow:(fun () -> true));
    Mini.host_words (fun () ->
        ignore (Ms.alloc ms ~bytes ~grow:(fun () -> true)))
  in
  let small = carve 8 and large = carve 2048 in
  check (Alcotest.float 0.)
    (Printf.sprintf "carving host words: 8-byte class %.0f, largest %.0f"
       small large)
    large small

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

(* The eager carve, kept as the reference for the space's cell order:
   acquiring a page lists every cell in address order before the first
   allocation, allocation pops the list, and a sweep pushes each freed
   cell. Pages come from an address space of its own that starts where
   the machine's does, so the reference reserves the same page numbers. *)
module Eager_ms = struct
  module Vec = Repro_util.Vec
  module SC = Gc_common.Size_class

  type page = {
    page : int;
    mutable cls : int;
    mutable cells : int;
    free : int Vec.t;
    mutable on_partial : bool;
  }

  type t = {
    space : Heapsim.Address_space.t;
    partial : page Vec.t array;
    empty_pool : page Vec.t;
    pages : page Vec.t;
    mutable free_bytes : int;
  }

  let create () =
    {
      space = Heapsim.Address_space.create ();
      partial = Array.init SC.count (fun _ -> Vec.create ());
      empty_pool = Vec.create ();
      pages = Vec.create ();
      free_bytes = 0;
    }

  let carve t pr cls =
    let cell = SC.cell_size cls in
    pr.cls <- cls;
    pr.cells <- Vmsim.Page.size / cell;
    Vec.clear pr.free;
    for i = 0 to pr.cells - 1 do
      Vec.push pr.free (Vmsim.Page.addr_of pr.page + (i * cell))
    done;
    t.free_bytes <- t.free_bytes + (pr.cells * cell)

  let acquire t cls ~grow =
    if not (Vec.is_empty t.empty_pool) then begin
      let pr = Vec.pop t.empty_pool in
      t.free_bytes <- t.free_bytes - Vmsim.Page.size;
      carve t pr cls;
      Some pr
    end
    else if grow () then begin
      let page = Heapsim.Address_space.reserve t.space ~npages:1 in
      let pr = { page; cls; cells = 0; free = Vec.create (); on_partial = false } in
      Vec.push t.pages pr;
      carve t pr cls;
      Some pr
    end
    else None

  let rec has_partial t cls =
    let v = t.partial.(cls) in
    (not (Vec.is_empty v))
    &&
    let pr = Vec.top v in
    if pr.cls <> cls || Vec.is_empty pr.free then begin
      ignore (Vec.pop v);
      pr.on_partial <- false;
      has_partial t cls
    end
    else true

  let alloc t ~bytes ~grow =
    let cls = SC.class_of_size bytes in
    let ready =
      has_partial t cls
      ||
      match acquire t cls ~grow with
      | Some pr ->
          pr.on_partial <- true;
          Vec.push t.partial.(cls) pr;
          true
      | None -> false
    in
    if not ready then -1
    else begin
      let v = t.partial.(cls) in
      let pr = Vec.top v in
      let addr = Vec.pop pr.free in
      t.free_bytes <- t.free_bytes - SC.cell_size cls;
      if Vec.is_empty pr.free then begin
        pr.on_partial <- false;
        ignore (Vec.pop v)
      end;
      addr
    end

  (* [freed] lists the cells the sweep under test returned, in the order
     it freed them; each page takes its own, in that order. *)
  let sweep t freed =
    Vec.iter
      (fun pr ->
        List.iter
          (fun addr ->
            if Vmsim.Page.of_addr addr = pr.page then begin
              Vec.push pr.free addr;
              t.free_bytes <- t.free_bytes + SC.cell_size pr.cls
            end)
          freed;
        if Vec.length pr.free = pr.cells && pr.cells > 0 then begin
          t.free_bytes <-
            t.free_bytes - (pr.cells * SC.cell_size pr.cls) + Vmsim.Page.size;
          Vec.clear pr.free;
          pr.cells <- 0;
          pr.on_partial <- false;
          Vec.push t.empty_pool pr
        end
        else if (not pr.on_partial) && not (Vec.is_empty pr.free) then begin
          pr.on_partial <- true;
          Vec.push t.partial.(pr.cls) pr
        end)
      t.pages
end

type ms_op = Ms_alloc of int | Ms_sweep of int

let ms_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Ms_alloc s) (oneofl [ 8; 16; 24; 100; 500; 1024; 2048 ]));
        (1, map (fun k -> Ms_sweep k) (int_range 0 1000));
      ])

let ms_op_print = function
  | Ms_alloc s -> Printf.sprintf "alloc %d" s
  | Ms_sweep k -> Printf.sprintf "sweep %d" k

(* Random allocations and sweeps, under a page budget that forces
   recycling and refusals: the space hands out the reference's address
   for every allocation and keeps its free bytes and page count. *)
let prop_ms_matches_eager_carve =
  QCheck.Test.make ~name:"ms_space hands out the eager carve's cells"
    ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list ms_op_print)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 300) ms_op_gen))
    (fun ops ->
      let m, ms = ms_fixture () in
      let heap = m.Mini.heap in
      let objects = Heap.objects heap in
      let model = Eager_ms.create () in
      let budget = 6 in
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: %d, reference %d" what a b
      in
      List.iter
        (fun op ->
          (match op with
          | Ms_alloc size ->
              let addr =
                Ms.alloc ms ~bytes:size ~grow:(fun () -> Ms.pages_acquired ms < budget)
              in
              let expected =
                Eager_ms.alloc model ~bytes:size ~grow:(fun () ->
                    Repro_util.Vec.length model.Eager_ms.pages < budget)
              in
              same (Printf.sprintf "alloc %d" size) addr expected;
              if addr >= 0 then begin
                let id = OT.alloc objects ~size ~nrefs:0 ~kind:`Scalar in
                Heap.place heap id ~addr
              end
          | Ms_sweep k ->
              let freed = ref [] in
              (* a fifth of the sweeps free everything, the others two
                 objects in three *)
              Ms.sweep ms ~keep:(fun id ->
                  (k mod 5 <> 0 && ((id * 7) + k) mod 3 = 0)
                  || begin
                       freed := OT.addr objects id :: !freed;
                       false
                     end);
              Eager_ms.sweep model (List.rev !freed));
          same "free bytes" (Ms.free_bytes ms) model.Eager_ms.free_bytes;
          same "pages" (Ms.pages_acquired ms)
            (Repro_util.Vec.length model.Eager_ms.pages))
        ops;
      true)

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

(* Ownership covers every page of a live range, not only its first, and
   ends with the sweep that frees it. *)
let test_los_owns_every_page () =
  let m = Mini.machine () in
  let heap = m.Mini.heap in
  let objects = Heap.objects heap in
  let los = Los.create heap ~name:"los" in
  let addr = Los.alloc los ~bytes:10_000 ~grow:(fun ~npages:_ -> true) in
  assert (addr >= 0);
  let id = OT.alloc objects ~size:10_000 ~nrefs:0 ~kind:`Array in
  Heap.place heap id ~addr;
  Los.note_object los id;
  let first = Vmsim.Page.of_addr addr in
  let owned () = List.map (Los.owns_page los) [ first; first + 1; first + 2 ] in
  check (Alcotest.list Alcotest.bool) "all three pages owned"
    [ true; true; true ] (owned ());
  check Alcotest.bool "the page past the range" false
    (Los.owns_page los (first + 3));
  Los.sweep los ~keep:(fun _ -> false);
  check (Alcotest.list Alcotest.bool) "none once freed" [ false; false; false ]
    (owned ())

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
          Alcotest.test_case "carve host words" `Quick test_ms_carve_host_words;
        ] );
      ( "large objects",
        [
          Alcotest.test_case "alloc/sweep" `Quick test_los_alloc_sweep;
          Alcotest.test_case "owns every page" `Quick test_los_owns_every_page;
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
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ms_accounting; prop_ms_matches_eager_carve ] );
    ]
