(* Geometry and cell management of BC's superpage space. *)

module Mini = Test_support.Mini
module Sp = Bookmarking.Superpage
module SC = Gc_common.Size_class

let check = Alcotest.check

let fixture () =
  let m = Mini.machine () in
  (m, Sp.create m.Mini.heap)

let anywhere _ = true

let nowhere _ = false

(* A cell that must be granted, with the superpage that holds it. *)
let alloc_sp t ~bytes ~kind ~grow ~resident =
  let addr = Sp.alloc t ~bytes ~kind ~grow ~resident in
  if addr < 0 then Alcotest.fail "alloc failed";
  (addr, Option.get (Sp.sp_of_addr t addr))

let test_geometry () =
  check Alcotest.int "header bytes" 24 Sp.header_bytes;
  check Alcotest.int "usable" (16384 - 24) Sp.usable_bytes;
  (* the paper's LOS threshold: "objects larger than 8180 bytes (half the
     size of a superpage minus metadata)" -- two max cells fill exactly *)
  check Alcotest.int "two max cells fit exactly" Sp.usable_bytes
    (2 * SC.max_cell)

let test_alloc_alignment_and_ownership () =
  let _, t = fixture () in
  let addr, sp =
    alloc_sp t ~bytes:100 ~kind:Sp.Scalar ~grow:(fun () -> true)
      ~resident:anywhere
  in
  check Alcotest.int "superpage aligned" 0
    (sp.Sp.first_page mod Vmsim.Page.pages_per_superpage);
  check Alcotest.bool "addr above header" true
    (addr >= Vmsim.Page.addr_of sp.Sp.first_page + Sp.header_bytes);
  check Alcotest.bool "owns its pages" true
    (Sp.owns_page t sp.Sp.first_page && Sp.owns_page t (sp.Sp.first_page + 3));
  check Alcotest.bool "header page identified" true
    (Sp.is_header_page t sp.Sp.first_page);
  check Alcotest.bool "data page not header" false
    (Sp.is_header_page t (sp.Sp.first_page + 1));
  check (Alcotest.list Alcotest.int) "data pages"
    [ sp.Sp.first_page + 1; sp.Sp.first_page + 2; sp.Sp.first_page + 3 ]
    (Sp.data_pages sp)

let test_scalar_array_segregation () =
  let _, t = fixture () in
  let alloc kind =
    alloc_sp t ~bytes:64 ~kind ~grow:(fun () -> true) ~resident:anywhere
  in
  let _, sp_scalar = alloc Sp.Scalar in
  let _, sp_array = alloc Sp.Array in
  check Alcotest.bool "separate superpages per kind" true
    (sp_scalar.Sp.index <> sp_array.Sp.index);
  (* a second scalar shares the scalar superpage *)
  let _, sp_scalar2 = alloc Sp.Scalar in
  check Alcotest.int "same class+kind shares" sp_scalar.Sp.index
    sp_scalar2.Sp.index

let test_grow_denied () =
  let _, t = fixture () in
  check Alcotest.int "denied" (-1)
    (Sp.alloc t ~bytes:64 ~kind:Sp.Scalar ~grow:(fun () -> false)
       ~resident:anywhere);
  (* with every free cell blocked, a superpage has none to give *)
  let _, sp =
    alloc_sp t ~bytes:4096 ~kind:Sp.Array ~grow:(fun () -> true)
      ~resident:anywhere
  in
  check Alcotest.int "alloc_on: every cell blocked" (-1)
    (Sp.alloc_on t sp ~resident:nowhere);
  check Alcotest.bool "its free cells parked" true
    (Repro_util.Vec.is_empty sp.Sp.free
    && not (Repro_util.Vec.is_empty sp.Sp.blocked));
  (* ... and alloc, refused a fresh superpage, fails with them *)
  let _, sp =
    alloc_sp t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> true)
      ~resident:anywhere
  in
  check Alcotest.int "alloc: every cell blocked" (-1)
    (Sp.alloc t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> false)
       ~resident:nowhere);
  check Alcotest.bool "cells parked, superpage off its partial list" true
    (Repro_util.Vec.is_empty sp.Sp.free && not sp.Sp.on_partial)

let test_blocked_cells () =
  let _, t = fixture () in
  (* cells on "non-resident" pages are parked, not handed out *)
  let blocked_page = ref (-1) in
  let resident p = p <> !blocked_page in
  let _, sp =
    alloc_sp t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> true) ~resident
  in
  (* block the superpage's middle data page and allocate until exhausted *)
  blocked_page := sp.Sp.first_page + 2;
  let rec drain n =
    let a =
      Sp.alloc t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> false) ~resident
    in
    if a < 0 then n
    else begin
      check Alcotest.bool "never hands out a blocked cell" true
        (Vmsim.Page.of_addr a <> !blocked_page
        && Vmsim.Page.of_addr (a + 4095) <> !blocked_page);
      drain (n + 1)
    end
  in
  ignore (drain 0);
  check Alcotest.bool "some cells parked" true
    (Repro_util.Vec.length sp.Sp.blocked > 0);
  (* page becomes resident again: parked cells return *)
  let freed = Repro_util.Vec.length sp.Sp.free in
  let reloaded = !blocked_page in
  blocked_page := -1;
  Sp.note_page_resident t reloaded ~resident:(fun _ -> true);
  check Alcotest.bool "cells unparked" true
    (Repro_util.Vec.length sp.Sp.free > freed)

let test_cells_overlapping_page () =
  let _, t = fixture () in
  let _, sp =
    alloc_sp t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> true)
      ~resident:anywhere
  in
  (* every data page overlaps at least one cell; the total with overlaps
     is at least the cell count *)
  let total =
    List.fold_left
      (fun acc page -> acc + Sp.cells_overlapping_page sp page)
      (Sp.cells_overlapping_page sp sp.Sp.first_page)
      (Sp.data_pages sp)
  in
  check Alcotest.bool "overlap count covers all cells" true
    (total >= sp.Sp.cells_total)

let test_free_cell_and_recycle () =
  let m, t = fixture () in
  ignore m;
  let addr, sp =
    alloc_sp t ~bytes:64 ~kind:Sp.Scalar ~grow:(fun () -> true)
      ~resident:anywhere
  in
  let before = Sp.free_bytes t in
  Sp.free_cell t sp ~addr;
  check Alcotest.bool "free bytes grew" true (Sp.free_bytes t > before);
  Sp.recycle_empty t ~resident:(fun _ -> true);
  check Alcotest.int "empty superpage recycled" 0 sp.Sp.cells_total;
  (* reassignable to a different class *)
  let _, sp2 =
    alloc_sp t ~bytes:2048 ~kind:Sp.Array ~grow:(fun () -> false)
      ~resident:anywhere
  in
  check Alcotest.int "reused without growth" sp.Sp.index sp2.Sp.index

(* Recycling's vacancy check: a superpage holding a placed object stays
   assigned, whether the object sits on one data page or spans two, and
   is recycled once the object is displaced and its cell freed. *)
let test_recycle_keeps_occupied () =
  let m, t = fixture () in
  let heap = m.Mini.heap in
  let place bytes =
    let addr, sp =
      alloc_sp t ~bytes ~kind:Sp.Scalar ~grow:(fun () -> true)
        ~resident:anywhere
    in
    let id =
      Heapsim.Object_table.alloc (Heapsim.Heap.objects heap) ~size:bytes
        ~nrefs:0 ~kind:`Scalar
    in
    Heapsim.Heap.place heap id ~addr;
    (id, addr, sp)
  in
  let placed = [ place 64; place SC.max_cell ] in
  let _, span_addr, span_sp = List.nth placed 1 in
  let first = Vmsim.Page.of_addr span_addr in
  let last = Vmsim.Page.of_addr (span_addr + SC.max_cell - 1) in
  check Alcotest.bool "spans two data pages" true
    (first <> last
    && List.mem first (Sp.data_pages span_sp)
    && List.mem last (Sp.data_pages span_sp));
  let cells () = List.map (fun (_, _, sp) -> sp.Sp.cells_total) placed in
  let assigned = cells () in
  check Alcotest.bool "distinct superpages" true
    (List.for_all (fun n -> n > 0) assigned);
  Sp.recycle_empty t ~resident:(fun _ -> true);
  check (Alcotest.list Alcotest.int) "occupied superpages kept" assigned
    (cells ());
  List.iter
    (fun (id, addr, sp) ->
      Heapsim.Heap.displace heap id;
      Sp.free_cell t sp ~addr)
    placed;
  Sp.recycle_empty t ~resident:(fun _ -> true);
  check (Alcotest.list Alcotest.int) "vacated superpages recycled" [ 0; 0 ]
    (cells ())

let () =
  Alcotest.run "superpage"
    [
      ( "superpage",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "alignment/ownership" `Quick
            test_alloc_alignment_and_ownership;
          Alcotest.test_case "scalar/array segregation" `Quick
            test_scalar_array_segregation;
          Alcotest.test_case "grow denied" `Quick test_grow_denied;
          Alcotest.test_case "blocked cells" `Quick test_blocked_cells;
          Alcotest.test_case "cell overlap census" `Quick
            test_cells_overlapping_page;
          Alcotest.test_case "free + recycle" `Quick test_free_cell_and_recycle;
          Alcotest.test_case "occupied superpage kept" `Quick
            test_recycle_keeps_occupied;
        ] );
    ]
