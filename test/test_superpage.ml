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
    (Sp.free_count sp = 0 && not (Repro_util.Vec.is_empty sp.Sp.blocked));
  (* ... and alloc, refused a fresh superpage, fails with them *)
  let _, sp =
    alloc_sp t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> true)
      ~resident:anywhere
  in
  check Alcotest.int "alloc: every cell blocked" (-1)
    (Sp.alloc t ~bytes:4096 ~kind:Sp.Scalar ~grow:(fun () -> false)
       ~resident:nowhere);
  check Alcotest.bool "cells parked, superpage off its partial list" true
    (Sp.free_count sp = 0 && not sp.Sp.on_partial)

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
  let freed = Sp.free_count sp in
  let reloaded = !blocked_page in
  blocked_page := -1;
  Sp.note_page_resident t reloaded ~resident:(fun _ -> true);
  check Alcotest.bool "cells unparked" true
    (Sp.free_count sp > freed)

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
  Sp.recycle_empty t ~resident:(fun _ -> true) ~pointed_into:(fun _ -> false);
  check Alcotest.int "empty superpage recycled" 0 sp.Sp.cells_total;
  (* reassignable to a different class *)
  let _, sp2 =
    alloc_sp t ~bytes:2048 ~kind:Sp.Array ~grow:(fun () -> false)
      ~resident:anywhere
  in
  check Alcotest.int "reused without growth" sp.Sp.index sp2.Sp.index

(* Carving writes no cell list: once the space's own tables exist, the
   first allocation of a class on a fresh superpage costs the same host
   words for the 8-byte class (2045 cells) as for the largest (2 cells).
   Holds in the dev and the release build alike. *)
let test_carve_host_words () =
  let carve bytes =
    let _, t = fixture () in
    ignore
      (Sp.alloc t ~bytes:64 ~kind:Sp.Array ~grow:(fun () -> true)
         ~resident:anywhere);
    Mini.host_words (fun () ->
        ignore
          (Sp.alloc t ~bytes ~kind:Sp.Scalar ~grow:(fun () -> true)
             ~resident:anywhere))
  in
  let small = carve 8 and large = carve SC.max_cell in
  check (Alcotest.float 0.)
    (Printf.sprintf "carving host words: 8-byte class %.0f, largest %.0f"
       small large)
    large small

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
  Sp.recycle_empty t ~resident:(fun _ -> true) ~pointed_into:(fun _ -> false);
  check (Alcotest.list Alcotest.int) "occupied superpages kept" assigned
    (cells ());
  List.iter
    (fun (id, addr, sp) ->
      Heapsim.Heap.displace heap id;
      Sp.free_cell t sp ~addr)
    placed;
  Sp.recycle_empty t ~resident:(fun _ -> true) ~pointed_into:(fun _ -> false);
  check (Alcotest.list Alcotest.int) "vacated superpages recycled" [ 0; 0 ]
    (cells ())

(* The eager carve, kept as the reference for the cell order: carving
   lists every cell in address order before the first allocation,
   allocation pops the list (parking cells on non-resident pages),
   eviction moves the listed cells overlapping the page to [blocked] in
   list order, and a reload moves the blocked cells that became usable
   back, in order. Superpages come from an address space of its own that
   starts where the machine's does, so the reference reserves the same
   pages. *)
module Eager_sp = struct
  module Vec = Repro_util.Vec

  type sp = {
    first_page : int;
    mutable cls : int;
    mutable kind : Sp.kind;
    mutable cells : int;
    free : int Vec.t;
    blocked : int Vec.t;
    mutable on_partial : bool;
    mutable evicted : int;
  }

  type t = {
    space : Heapsim.Address_space.t;
    sps : sp Vec.t;
    partial : sp Vec.t array;
    empty_pool : sp Vec.t;
    mutable free_cell_bytes : int;
  }

  let create () =
    {
      space = Heapsim.Address_space.create ();
      sps = Vec.create ();
      partial = Array.init (SC.count * 2) (fun _ -> Vec.create ());
      empty_pool = Vec.create ();
      free_cell_bytes = 0;
    }

  let idx cls kind = (cls * 2) + match kind with Sp.Scalar -> 0 | Sp.Array -> 1

  let cell sp = SC.cell_size sp.cls

  let base sp = Vmsim.Page.addr_of sp.first_page + Sp.header_bytes

  let sp_of_page t page =
    let q = page / Vmsim.Page.pages_per_superpage in
    let found = ref None in
    Vec.iter
      (fun sp ->
        if sp.first_page / Vmsim.Page.pages_per_superpage = q then
          found := Some sp)
      t.sps;
    !found

  let carve t sp cls kind =
    let c = SC.cell_size cls in
    sp.cls <- cls;
    sp.kind <- kind;
    sp.cells <- Sp.usable_bytes / c;
    Vec.clear sp.free;
    Vec.clear sp.blocked;
    for i = 0 to sp.cells - 1 do
      Vec.push sp.free (base sp + (i * c))
    done;
    t.free_cell_bytes <- t.free_cell_bytes + (sp.cells * c)

  let acquire t cls kind ~grow =
    if not (Vec.is_empty t.empty_pool) then begin
      let sp = Vec.pop t.empty_pool in
      carve t sp cls kind;
      Some sp
    end
    else if grow () then begin
      let first_page =
        Heapsim.Address_space.reserve_aligned t.space
          ~npages:Vmsim.Page.pages_per_superpage
          ~align:Vmsim.Page.pages_per_superpage
      in
      let sp =
        {
          first_page;
          cls;
          kind;
          cells = 0;
          free = Vec.create ();
          blocked = Vec.create ();
          on_partial = false;
          evicted = 0;
        }
      in
      Vec.push t.sps sp;
      carve t sp cls kind;
      Some sp
    end
    else None

  let rec has_partial t i cls =
    let v = t.partial.(i) in
    (not (Vec.is_empty v))
    &&
    let sp = Vec.top v in
    if sp.cls <> cls || idx sp.cls sp.kind <> i || Vec.is_empty sp.free then begin
      ignore (Vec.pop v);
      sp.on_partial <- false;
      has_partial t i cls
    end
    else true

  let usable ~resident sp addr =
    let ok = ref true in
    for page = Vmsim.Page.of_addr addr to Vmsim.Page.of_addr (addr + cell sp - 1) do
      if not (resident page) then ok := false
    done;
    !ok

  let rec pop_usable t sp ~resident =
    if Vec.is_empty sp.free then -1
    else begin
      let addr = Vec.pop sp.free in
      t.free_cell_bytes <- t.free_cell_bytes - cell sp;
      if usable ~resident sp addr then addr
      else begin
        Vec.push sp.blocked addr;
        pop_usable t sp ~resident
      end
    end

  let rec alloc_in t i cls kind ~grow ~resident =
    if has_partial t i cls then begin
      let sp = Vec.top t.partial.(i) in
      let addr = pop_usable t sp ~resident in
      if addr >= 0 then addr
      else begin
        ignore (Vec.pop t.partial.(i));
        sp.on_partial <- false;
        alloc_in t i cls kind ~grow ~resident
      end
    end
    else
      match acquire t cls kind ~grow with
      | None -> -1
      | Some sp ->
          sp.on_partial <- true;
          Vec.push t.partial.(i) sp;
          alloc_in t i cls kind ~grow ~resident

  let alloc t ~bytes ~kind ~grow ~resident =
    let cls = SC.class_of_size bytes in
    alloc_in t (idx cls kind) cls kind ~grow ~resident

  let free_cell t sp ~addr =
    Vec.push sp.free addr;
    t.free_cell_bytes <- t.free_cell_bytes + cell sp;
    if (not sp.on_partial) && sp.cells > 0 then begin
      sp.on_partial <- true;
      Vec.push t.partial.(idx sp.cls sp.kind) sp
    end

  let overlaps sp page addr =
    let lo = Vmsim.Page.addr_of page in
    addr <= lo + Vmsim.Page.size - 1 && addr + cell sp - 1 >= lo

  let note_page_evicted t page =
    match sp_of_page t page with
    | None -> ()
    | Some sp ->
        sp.evicted <- sp.evicted + 1;
        Vec.filter_in_place
          (fun a ->
            let park = overlaps sp page a in
            if park then begin
              Vec.push sp.blocked a;
              t.free_cell_bytes <- t.free_cell_bytes - cell sp
            end;
            not park)
          sp.free

  let note_page_resident t page ~resident =
    match sp_of_page t page with
    | None -> ()
    | Some sp ->
        if sp.evicted > 0 then sp.evicted <- sp.evicted - 1;
        let parked = Vec.to_list sp.blocked in
        Vec.clear sp.blocked;
        List.iter
          (fun a ->
            if usable ~resident sp a then free_cell t sp ~addr:a
            else Vec.push sp.blocked a)
          parked

  let recycle_empty t ~resident ~vacant =
    Vec.iter
      (fun sp ->
        let data_resident = ref true in
        for page = sp.first_page + 1 to sp.first_page + 3 do
          if not (resident page) then data_resident := false
        done;
        if sp.cells > 0 && sp.evicted = 0 && vacant sp.first_page && !data_resident
        then begin
          t.free_cell_bytes <- t.free_cell_bytes - (Vec.length sp.free * cell sp);
          Vec.clear sp.free;
          Vec.clear sp.blocked;
          sp.cells <- 0;
          sp.on_partial <- false;
          Vec.push t.empty_pool sp
        end)
      t.sps

  let free_bytes t = t.free_cell_bytes + (Vec.length t.empty_pool * Sp.usable_bytes)
end

type sp_op =
  | Alloc of int * Sp.kind
  | Alloc_on of int
  | Free of int
  | Evict of int
  | Reload of int
  | Recycle

let sp_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun bytes kind -> Alloc (bytes, kind))
            (oneofl [ 8; 16; 64; 200; 1000; 3000; SC.max_cell ])
            (oneofl [ Sp.Scalar; Sp.Array ]) );
        (1, map (fun i -> Alloc_on i) nat);
        (3, map (fun i -> Free i) nat);
        (2, map (fun i -> Evict i) nat);
        (2, map (fun i -> Reload i) nat);
        (1, return Recycle);
      ])

let sp_op_print = function
  | Alloc (bytes, kind) ->
      Printf.sprintf "alloc %d %s" bytes
        (match kind with Sp.Scalar -> "scalar" | Sp.Array -> "array")
  | Alloc_on i -> Printf.sprintf "alloc_on %d" i
  | Free i -> Printf.sprintf "free %d" i
  | Evict i -> Printf.sprintf "evict %d" i
  | Reload i -> Printf.sprintf "reload %d" i
  | Recycle -> "recycle"

(* Random allocations (general and on a given superpage), frees,
   evictions and reloads of data pages, and recycling, under a budget of
   superpages: the space hands out the reference's address for every
   allocation and keeps its free and blocked counts per superpage and
   its free bytes. Every granted cell holds a placed object until it is
   freed, so recycling sees the same occupancy on both sides. *)
let prop_matches_eager_carve =
  QCheck.Test.make ~name:"superpages hand out the eager carve's cells"
    ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list sp_op_print)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 300) sp_op_gen))
    (fun ops ->
      let m, t = fixture () in
      let heap = m.Mini.heap in
      let objects = Heapsim.Heap.objects heap in
      let model = Eager_sp.create () in
      let budget = 5 in
      let evicted = Hashtbl.create 16 in
      let resident page = not (Hashtbl.mem evicted page) in
      let live = ref [] in
      let same what a b =
        if a <> b then QCheck.Test.fail_reportf "%s: %d, reference %d" what a b
      in
      let place addr bytes =
        let id = Heapsim.Object_table.alloc objects ~size:bytes ~nrefs:0 ~kind:`Scalar in
        Heapsim.Heap.place heap id ~addr;
        live := (id, addr) :: !live
      in
      let nth_sp i =
        let n = Sp.sp_count t in
        if n = 0 then None
        else begin
          let sp = ref None in
          Sp.iter_sps t (fun s -> if s.Sp.index = i mod n then sp := Some s);
          !sp
        end
      in
      let model_sp (sp : Sp.sp) =
        Repro_util.Vec.get model.Eager_sp.sps sp.Sp.index
      in
      List.iter
        (fun op ->
          (match op with
          | Alloc (bytes, kind) ->
              let addr =
                Sp.alloc t ~bytes ~kind ~resident
                  ~grow:(fun () -> Sp.sp_count t < budget)
              in
              let expected =
                Eager_sp.alloc model ~bytes ~kind ~resident ~grow:(fun () ->
                    Repro_util.Vec.length model.Eager_sp.sps < budget)
              in
              same (sp_op_print op) addr expected;
              if addr >= 0 then place addr bytes
          | Alloc_on i -> (
              match nth_sp i with
              | None -> ()
              | Some sp ->
                  let addr = Sp.alloc_on t sp ~resident in
                  let msp = model_sp sp in
                  let expected = Eager_sp.pop_usable model msp ~resident in
                  same (sp_op_print op) addr expected;
                  if addr >= 0 then place addr (SC.cell_size sp.Sp.cls))
          | Free i -> (
              match !live with
              | [] -> ()
              | l ->
                  let id, addr = List.nth l (i mod List.length l) in
                  live := List.filter (fun (x, _) -> x <> id) l;
                  Heapsim.Heap.free_object heap id;
                  let sp = Option.get (Sp.sp_of_addr t addr) in
                  Sp.free_cell t sp ~addr;
                  Eager_sp.free_cell model (model_sp sp) ~addr)
          | Evict i -> (
              match nth_sp i with
              | None -> ()
              | Some sp ->
                  let page = sp.Sp.first_page + 1 + (i mod 3) in
                  if resident page then begin
                    Hashtbl.replace evicted page ();
                    Sp.note_page_evicted t page;
                    Eager_sp.note_page_evicted model page
                  end)
          | Reload i -> (
              let pages = Hashtbl.fold (fun p () acc -> p :: acc) evicted [] in
              match List.sort compare pages with
              | [] -> ()
              | l ->
                  let page = List.nth l (i mod List.length l) in
                  Hashtbl.remove evicted page;
                  Sp.note_page_resident t page ~resident;
                  Eager_sp.note_page_resident model page ~resident)
          | Recycle ->
              let vacant first_page =
                List.for_all
                  (fun (_, addr) ->
                    Vmsim.Page.of_addr addr / Vmsim.Page.pages_per_superpage
                    <> first_page / Vmsim.Page.pages_per_superpage)
                  !live
              in
              Sp.recycle_empty t ~resident ~pointed_into:(fun _ -> false);
              Eager_sp.recycle_empty model ~resident ~vacant);
          same "superpages" (Sp.sp_count t)
            (Repro_util.Vec.length model.Eager_sp.sps);
          same "free bytes" (Sp.free_bytes t) (Eager_sp.free_bytes model);
          Sp.iter_sps t (fun sp ->
              let msp = model_sp sp in
              same "cells" sp.Sp.cells_total msp.Eager_sp.cells;
              same "free cells" (Sp.free_count sp)
                (Repro_util.Vec.length msp.Eager_sp.free);
              same "blocked cells"
                (Repro_util.Vec.length sp.Sp.blocked)
                (Repro_util.Vec.length msp.Eager_sp.blocked)))
        ops;
      true)

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
          Alcotest.test_case "carve host words" `Quick test_carve_host_words;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_matches_eager_carve ]);
    ]
