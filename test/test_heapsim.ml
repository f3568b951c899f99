module OT = Heapsim.Object_table
module PM = Heapsim.Page_map
module AS = Heapsim.Address_space
module Heap = Heapsim.Heap

let check = Alcotest.check

let max31 = (1 lsl 31) - 1

(* [f ()] raises [Invalid_argument]. *)
let raises what f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" what
  | exception Invalid_argument _ -> ()

(* ----------------------------------------------------------------- *)
(* Object_table                                                       *)

let test_alloc_free_recycle () =
  let t = OT.create () in
  let a = OT.alloc t ~size:16 ~nrefs:2 ~kind:`Scalar in
  let b = OT.alloc t ~size:32 ~nrefs:0 ~kind:`Array in
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.int "live count" 2 (OT.live_count t);
  check Alcotest.int "live bytes" 48 (OT.live_bytes t);
  check Alcotest.int "size" 16 (OT.size t a);
  check Alcotest.bool "kind scalar" true (OT.kind t a = `Scalar);
  check Alcotest.bool "kind array" true (OT.kind t b = `Array);
  OT.free t a;
  check Alcotest.int "live after free" 1 (OT.live_count t);
  check Alcotest.bool "freed not live" false (OT.is_live t a);
  let c = OT.alloc t ~size:8 ~nrefs:1 ~kind:`Scalar in
  check Alcotest.int "id recycled" a c;
  check Alcotest.bool "recycled live" true (OT.is_live t c);
  (* recycled object state is fresh *)
  check Alcotest.int "fresh addr" (-1) (OT.addr t c);
  check Alcotest.int "fresh scratch" (-1) (OT.scratch t c);
  check Alcotest.bool "fresh unbookmarked" false (OT.bookmarked t c);
  check Alcotest.bool "fresh ref null" true
    (Heapsim.Obj_id.is_null (OT.get_ref t c 0))

let test_dead_access_rejected () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:4 ~kind:`Scalar in
  OT.free t a;
  let dead = Invalid_argument (Printf.sprintf "Object_table: dead or invalid object #%d" a) in
  Alcotest.check_raises "dead access" dead (fun () -> ignore (OT.size t a));
  Alcotest.check_raises "get_ref" dead (fun () -> ignore (OT.get_ref t a 0));
  Alcotest.check_raises "set_ref" dead (fun () -> OT.set_ref t a 0 a);
  Alcotest.check_raises "nrefs" dead (fun () -> ignore (OT.nrefs t a));
  Alcotest.check_raises "iter_refs" dead (fun () -> OT.iter_refs t a (fun _ _ -> ()));
  Alcotest.check_raises "free twice" dead (fun () -> OT.free t a);
  Alcotest.check_raises "never allocated"
    (Invalid_argument "Object_table: dead or invalid object #99")
    (fun () -> ignore (OT.get_ref t 99 0));
  (* around a row-chunk boundary: two freed ids on either side of it, and
     [next_id], the first id never handed out, whose chunk does not exist *)
  let t = OT.create () in
  for _ = 1 to 2 * OT.rows_per_chunk do
    ignore (OT.alloc t ~size:8 ~nrefs:1 ~kind:`Scalar : int)
  done;
  OT.free t (OT.rows_per_chunk - 1);
  OT.free t OT.rows_per_chunk;
  check Alcotest.int "next id" (2 * OT.rows_per_chunk) (OT.capacity t);
  List.iter
    (fun id ->
      let dead =
        Invalid_argument (Printf.sprintf "Object_table: dead or invalid object #%d" id)
      in
      Alcotest.check_raises "dead size" dead (fun () -> ignore (OT.size t id));
      Alcotest.check_raises "dead get_ref" dead (fun () -> ignore (OT.get_ref t id 0));
      Alcotest.check_raises "dead set_addr" dead (fun () -> OT.set_addr t id 0);
      Alcotest.check_raises "dead free" dead (fun () -> OT.free t id);
      check Alcotest.bool "not live" false (OT.is_live t id))
    [ OT.rows_per_chunk - 1; OT.rows_per_chunk; OT.capacity t ]

let test_refs () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar in
  let b = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.set_ref t a 1 b;
  check Alcotest.int "get_ref" b (OT.get_ref t a 1);
  let seen = ref [] in
  OT.iter_refs t a (fun field target -> seen := (field, target) :: !seen);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "iter skips nulls" [ (1, b) ] !seen;
  check Alcotest.int "nrefs" 3 (OT.nrefs t a)

let test_flags () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  OT.set_bookmarked t a true;
  check Alcotest.bool "bookmarked" true (OT.bookmarked t a);
  OT.set_bookmarked t a false;
  check Alcotest.bool "unbookmarked" false (OT.bookmarked t a);
  OT.set_space t a 3;
  OT.set_scratch t a 42;
  check Alcotest.int "space" 3 (OT.space t a);
  check Alcotest.int "scratch" 42 (OT.scratch t a)

let test_field_out_of_range () =
  let t = OT.create () in
  let a = OT.alloc t ~size:8 ~nrefs:3 ~kind:`Scalar in
  let next = OT.alloc t ~size:8 ~nrefs:2 ~kind:`Scalar in
  let empty = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  raises "get past the end" (fun () -> ignore (OT.get_ref t a 3));
  raises "set past the end" (fun () -> OT.set_ref t a 3 empty);
  raises "negative field" (fun () -> ignore (OT.get_ref t a (-1)));
  raises "no fields" (fun () -> ignore (OT.get_ref t empty 0));
  (* a rejected store must not land in the run allocated after [a]'s *)
  check Alcotest.bool "next object's fields still null" true
    (List.for_all (fun f -> Heapsim.Obj_id.is_null (OT.get_ref t next f)) [ 0; 1 ])

(* A freed run is recycled for the next object of the same width, which
   must not see its previous owner's pointers. *)
let test_recycled_run_nulled () =
  let t = OT.create () in
  let target = OT.alloc t ~size:8 ~nrefs:0 ~kind:`Scalar in
  List.iter
    (fun n ->
      let a = OT.alloc t ~size:8 ~nrefs:n ~kind:`Array in
      for f = 0 to n - 1 do
        OT.set_ref t a f target
      done;
      OT.free t a;
      let b = OT.alloc t ~size:8 ~nrefs:n ~kind:`Array in
      check Alcotest.int "id recycled" a b;
      for f = 0 to n - 1 do
        check Alcotest.bool (Printf.sprintf "width %d field %d null" n f) true
          (Heapsim.Obj_id.is_null (OT.get_ref t b f))
      done;
      OT.iter_refs t b (fun f _ ->
          Alcotest.failf "width %d: iter_refs saw field %d" n f);
      OT.free t b)
    [ 1; 2; 7; 64; OT.chunk_slots + 3 ]

let test_growth () =
  let t = OT.create () in
  let ids = List.init 5000 (fun i -> OT.alloc t ~size:8 ~nrefs:0
    ~kind:(if i mod 2 = 0 then `Scalar else `Array)) in
  check Alcotest.int "live" 5000 (OT.live_count t);
  List.iteri (fun i id -> assert (OT.kind t id = if i mod 2 = 0 then `Scalar else `Array)) ids

(* Every row field at the edges of its width: a 64-bit address at and
   above 2^32, up to page 2^30 of a sparse space; scratch and page-slot
   words at -1 and 2^31 - 1; a 16-bit space tag; a size of 2^31 - 1.
   One past an edge raises and stores nothing. *)
let test_row_field_widths () =
  let t = OT.create () in
  let a = OT.alloc t ~size:max31 ~nrefs:1 ~kind:`Array in
  check Alcotest.int "size 2^31 - 1" max31 (OT.size t a);
  check Alcotest.int "live bytes" max31 (OT.live_bytes t);
  raises "size 2^31" (fun () -> OT.alloc t ~size:(max31 + 1) ~nrefs:0 ~kind:`Scalar);
  raises "nrefs 2^31" (fun () -> OT.alloc t ~size:8 ~nrefs:(max31 + 1) ~kind:`Scalar);
  check Alcotest.int "rejected allocs leave no row" 1 (OT.capacity t);
  check Alcotest.int "rejected allocs leave no bytes" max31 (OT.live_bytes t);
  let high_page = Vmsim.Page.addr_of (1 lsl 30) in
  List.iter
    (fun v ->
      OT.set_addr t a v;
      check Alcotest.int (Printf.sprintf "addr %d" v) v (OT.addr t a))
    [ 1 lsl 32; (1 lsl 32) + 4095; high_page; high_page + Vmsim.Page.size - 1; -1 ];
  List.iter
    (fun v ->
      OT.set_scratch t a v;
      OT.set_page_slot t a v;
      check Alcotest.int (Printf.sprintf "scratch %d" v) v (OT.scratch t a);
      check Alcotest.int (Printf.sprintf "page slot %d" v) v (OT.page_slot t a))
    [ -1; max31; 0 ];
  OT.set_space t a 0xffff;
  OT.set_bookmarked t a true;
  raises "scratch 2^31" (fun () -> OT.set_scratch t a (max31 + 1));
  raises "page slot below -2^31" (fun () -> OT.set_page_slot t a (-max31 - 2));
  raises "space 2^16" (fun () -> OT.set_space t a 0x10000);
  raises "space -1" (fun () -> OT.set_space t a (-1));
  raises "ref target 2^31" (fun () -> OT.set_ref t a 0 (max31 + 1));
  check Alcotest.int "scratch kept" 0 (OT.scratch t a);
  check Alcotest.int "page slot kept" 0 (OT.page_slot t a);
  check Alcotest.int "space kept" 0xffff (OT.space t a);
  check Alcotest.bool "ref kept" true (Heapsim.Obj_id.is_null (OT.get_ref t a 0));
  (* the flags and the space tag share a word *)
  check Alcotest.bool "bookmarked beside space" true (OT.bookmarked t a);
  check Alcotest.bool "kind beside space" true (OT.kind t a = `Array);
  check Alcotest.int "size beside the rest" max31 (OT.size t a);
  (* fresh runs come off the slab top, so after a run of [chunk_slots - 2]
     slots the next five straddle the first chunk boundary *)
  let t = OT.create () in
  let wide = OT.alloc t ~size:8 ~nrefs:(OT.chunk_slots - 2) ~kind:`Array in
  let b = OT.alloc t ~size:8 ~nrefs:5 ~kind:`Array in
  for f = 0 to 4 do
    check Alcotest.bool (Printf.sprintf "straddling field %d null" f) true
      (Heapsim.Obj_id.is_null (OT.get_ref t b f))
  done;
  OT.set_ref t b 1 wide;
  OT.set_ref t b 4 max31;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "straddling run" [ (4, max31); (1, wide) ]
    (let seen = ref [] in
     OT.iter_refs t b (fun f x -> seen := (f, x) :: !seen);
     !seen)

let host_words = Test_support.Mini.host_words

(* A row is 32 bytes and a reference slot 4, so a two-field object costs
   5 host words of chunk, plus a little for the chunks' headers and root
   arrays. A freed id is threaded through its dead row and a freed run
   through its first slot, so freeing costs nothing, nor does reusing
   them. Holds in the dev build (cross-module calls not inlined) and in
   the release build alike. *)
let test_alloc_free_host_words () =
  let n = 8 * OT.rows_per_chunk in
  let t = OT.create () in
  let ids = Array.make n Heapsim.Obj_id.null in
  let alloc_all () =
    for i = 0 to n - 1 do
      ids.(i) <- OT.alloc t ~size:16 ~nrefs:2 ~kind:`Scalar
    done
  in
  let free_all () =
    for i = 0 to n - 1 do
      OT.free t ids.(i)
    done
  in
  let per_object words = words /. float_of_int n in
  let fresh = host_words alloc_all in
  check Alcotest.bool
    (Printf.sprintf "%.0f host words for %d allocations (%.2f each, at most 5.5)"
       fresh n (per_object fresh))
    true
    (per_object fresh <= 5.5);
  List.iter
    (fun (what, f) ->
      let words = host_words f in
      check Alcotest.bool
        (Printf.sprintf "%.0f host words for %d %s" words n what)
        true (words = 0.))
    [ ("frees", free_all); ("reallocations", alloc_all); ("second frees", free_all) ]

(* ----------------------------------------------------------------- *)
(* Id_list                                                            *)

module IL = Heapsim.Id_list

let id_list_contents l =
  let seen = ref [] in
  IL.iter (fun id -> seen := id :: !seen) l;
  List.rev !seen

let test_id_list () =
  let l = IL.create () in
  (* two full chunks and part of a third, then the signed 32-bit
     extremes, which are kept exactly; values outside them change
     nothing *)
  let ids = List.init ((2 * IL.chunk_ids) + 5) (fun i -> 3 * i) in
  let extremes = [ max31; Heapsim.Obj_id.null; -(1 lsl 31) ] in
  List.iter (IL.push l) (ids @ extremes);
  raises "push 2^31" (fun () -> IL.push l (max31 + 1));
  raises "push below -2^31" (fun () -> IL.push l (-(1 lsl 31) - 1));
  check (Alcotest.list Alcotest.int) "push order" (ids @ extremes)
    (id_list_contents l);
  IL.filter_in_place (fun id -> id >= 0 && id mod 2 = 0) l;
  check (Alcotest.list Alcotest.int) "filter keeps order"
    (List.filter (fun id -> id mod 2 = 0) ids)
    (id_list_contents l);
  IL.clear l;
  check (Alcotest.list Alcotest.int) "cleared" [] (id_list_contents l);
  IL.push l 7;
  check (Alcotest.list Alcotest.int) "refilled" [ 7 ] (id_list_contents l)

(* The young list's chunks are never copied and outlive [clear]: pushing
   past the first chunk allocates one fresh chunk and nothing else, and
   refilling a cleared list allocates nothing. Holds in the dev and the
   release build alike. *)
let test_id_list_host_words () =
  let l = IL.create () in
  let fill n =
    for i = 0 to n - 1 do
      IL.push l i
    done
  in
  fill IL.chunk_ids;
  let chunk =
    host_words (fun () ->
        ignore (Sys.opaque_identity (Bytes.create (4 * IL.chunk_ids))))
  in
  let past = host_words (fun () -> IL.push l IL.chunk_ids) in
  check (Alcotest.float 0.)
    (Printf.sprintf "push past the first chunk: %.0f words, a chunk %.0f" past
       chunk)
    chunk past;
  IL.clear l;
  check (Alcotest.float 0.) "refill after clear" 0.
    (host_words (fun () -> fill (IL.chunk_ids + 1)))

(* ----------------------------------------------------------------- *)
(* Address_space and Page_map                                         *)

let test_address_space () =
  let a = AS.create ~first_page:10 () in
  let r1 = AS.reserve a ~npages:3 in
  let r2 = AS.reserve a ~npages:2 in
  check Alcotest.int "first" 10 r1;
  check Alcotest.int "monotone" 13 r2;
  let r3 = AS.reserve_aligned a ~npages:4 ~align:4 in
  check Alcotest.int "aligned" 0 (r3 mod 4);
  check Alcotest.bool "no overlap" true (r3 >= 15)

(* Page_map tests take their ids from a real table and give each object
   an address on its first page: a removal reads it to tell whether a
   relocated entry's back-index lives in that bucket. *)
let on_pages objs m ~first ~last =
  let id = OT.alloc objs ~size:16 ~nrefs:0 ~kind:`Scalar in
  OT.set_addr objs id (Vmsim.Page.addr_of first);
  PM.add m objs ~first ~last id;
  id

(* The buffer form of [PM.objects_on], read back as a list. *)
let objects_on ?(buf = Repro_util.Vec.create ()) m page =
  PM.objects_on m page buf;
  Repro_util.Vec.to_list buf

let test_page_map () =
  let objs = OT.create () in
  let m = PM.create () in
  let a = on_pages objs m ~first:5 ~last:6 in
  let b = on_pages objs m ~first:5 ~last:5 in
  let c = on_pages objs m ~first:6 ~last:6 in
  check Alcotest.int "count" 2 (PM.count_on m 5);
  check Alcotest.int "spanning object on both pages" 2 (PM.count_on m 6);
  PM.remove m objs ~first:5 ~last:6 a;
  check Alcotest.int "after remove" 1 (PM.count_on m 5);
  check (Alcotest.list Alcotest.int) "snapshot" [ b ] (objects_on m 5);
  check (Alcotest.list Alcotest.int) "other page kept" [ c ] (objects_on m 6);
  check Alcotest.int "empty page" 0 (PM.count_on m 99);
  while OT.capacity objs <= 9 do
    ignore (on_pages objs m ~first:7 ~last:7 : int)
  done;
  Alcotest.check_raises "remove missing"
    (Invalid_argument "Page_map.remove: object #9 not on page 5") (fun () ->
      PM.remove m objs ~first:5 ~last:5 9)

let test_page_map_slots () =
  let objs = OT.create () in
  let m = PM.create () in
  (* one buffer for every read: each fill replaces what the last left *)
  let buf = Repro_util.Vec.create () in
  let objects_on = objects_on ~buf in
  let a = on_pages objs m ~first:3 ~last:3 in
  let b = on_pages objs m ~first:3 ~last:3 in
  let c = on_pages objs m ~first:3 ~last:3 in
  check (Alcotest.list Alcotest.int) "bucket order" [ a; b; c ]
    (objects_on m 3);
  check Alcotest.int "first slot" 0 (OT.page_slot objs a);
  check Alcotest.int "second slot" 1 (OT.page_slot objs b);
  check Alcotest.int "third slot" 2 (OT.page_slot objs c);
  (* O(1) removal at the stored slot swap-fills from the tail and fixes
     the relocated entry's back-index *)
  PM.remove m objs ~first:3 ~last:3 a;
  check (Alcotest.list Alcotest.int) "tail swap-filled the hole" [ c; b ]
    (objects_on m 3);
  check Alcotest.int "relocated back-index" 0 (OT.page_slot objs c);
  check Alcotest.int "removed back-index reset" (-1) (OT.page_slot objs a);
  (* a stale slot falls back to the scan and still removes the right id;
     removing the bucket's last element relocates nothing *)
  OT.set_page_slot objs b 7;
  PM.remove m objs ~first:3 ~last:3 b;
  check (Alcotest.list Alcotest.int) "survivor" [ c ] (objects_on m 3);
  check Alcotest.int "survivor's back-index kept" 0 (OT.page_slot objs c);
  (* an entry relocated on a page that is not its object's first page
     keeps the back-index into its first page's bucket *)
  let d = on_pages objs m ~first:4 ~last:4 in
  let e = on_pages objs m ~first:4 ~last:4 in
  let span = on_pages objs m ~first:3 ~last:4 in
  PM.remove m objs ~first:4 ~last:4 d;
  check (Alcotest.list Alcotest.int) "spanning entry relocated" [ span; e ]
    (objects_on m 4);
  check Alcotest.int "first-page back-index kept" 1 (OT.page_slot objs span);
  check Alcotest.int "unmoved back-index kept" 1 (OT.page_slot objs e);
  (* a shorter bucket, an empty page and a negative page leave nothing of
     the previous fill behind *)
  check (Alcotest.list Alcotest.int) "refill" [ c; span ] (objects_on m 3);
  check (Alcotest.list Alcotest.int) "empty page" [] (objects_on m 99);
  ignore (objects_on m 4 : int list);
  check (Alcotest.list Alcotest.int) "negative page" [] (objects_on m (-1))

(* [iter_on]'s contract: the callback may remove the entry it visits (BC's
   compaction moves each visited object off the page). Removing every
   second visited entry, the visits are still the bucket at entry, once
   each and in order, and exactly the other entries stay. *)
let test_page_map_iter_removes () =
  let objs = OT.create () in
  let m = PM.create () in
  let ids = List.init 7 (fun _ -> on_pages objs m ~first:3 ~last:3) in
  let span = on_pages objs m ~first:2 ~last:3 in
  let at_entry = objects_on m 3 in
  check (Alcotest.list Alcotest.int) "bucket at entry" (ids @ [ span ])
    at_entry;
  let visited = ref [] and kept = ref [] in
  PM.iter_on m 3 (fun id ->
      visited := id :: !visited;
      if List.length !visited mod 2 = 1 then
        PM.remove m objs ~first:(if id = span then 2 else 3) ~last:3 id
      else kept := id :: !kept);
  check (Alcotest.list Alcotest.int) "visits the bucket at entry" at_entry
    (List.rev !visited);
  check (Alcotest.list Alcotest.int) "the unremoved entries stay"
    (List.sort compare !kept)
    (List.sort compare (objects_on m 3));
  List.iteri
    (fun slot id ->
      if id <> span then
        check Alcotest.int
          (Printf.sprintf "back-index of #%d" id)
          slot (OT.page_slot objs id))
    (objects_on m 3)

(* An unindexed range keeps no buckets: readers raise there, and
   elsewhere nothing changes. *)
let test_page_map_unindexed () =
  let m = PM.create () in
  check Alcotest.bool "indexed before any range" true (PM.indexed m 5);
  PM.unindex_range m ~first:10 ~npages:4;
  PM.unindex_range m ~first:20 ~npages:1;
  List.iter
    (fun (page, want) ->
      check Alcotest.bool (Printf.sprintf "page %d indexed" page) want
        (PM.indexed m page))
    [ (9, true); (10, false); (13, false); (14, true); (20, false); (21, true) ];
  check
    Alcotest.(option (pair int int))
    "range of 12" (Some (10, 13)) (PM.unindexed_range m 12);
  check Alcotest.(option (pair int int)) "range of 20" (Some (20, 20))
    (PM.unindexed_range m 20);
  check Alcotest.(option (pair int int)) "indexed page" None
    (PM.unindexed_range m 14);
  Alcotest.check_raises "count_on"
    (Invalid_argument "Page_map.count_on: page 11 is unindexed") (fun () ->
      ignore (PM.count_on m 11 : int));
  Alcotest.check_raises "objects_on"
    (Invalid_argument "Page_map.objects_on: page 20 is unindexed") (fun () ->
      PM.objects_on m 20 (Repro_util.Vec.create ()));
  Alcotest.check_raises "iter_on"
    (Invalid_argument "Page_map.iter_on: page 13 is unindexed") (fun () ->
      PM.iter_on m 13 ignore);
  check Alcotest.int "negative page" 0 (PM.count_on m (-1));
  check Alcotest.int "indexed neighbour" 0 (PM.count_on m 14);
  raises "empty range" (fun () -> PM.unindex_range m ~first:30 ~npages:0)

(* ----------------------------------------------------------------- *)
(* Heap                                                               *)

let fixture () =
  let m = Test_support.Mini.machine () in
  m

let test_place_displace () =
  let m = fixture () in
  let objects = Heap.objects m.Test_support.Mini.heap in
  let heap = m.Test_support.Mini.heap in
  let id = OT.alloc objects ~size:100 ~nrefs:0 ~kind:`Scalar in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  Heap.place heap id ~addr:(Vmsim.Page.addr_of first);
  check Alcotest.int "on page" 1
    (PM.count_on (Heap.page_map heap) first);
  check Alcotest.int "first page" first (Heap.first_page heap id);
  Heap.displace heap id;
  check Alcotest.int "displaced" 0 (PM.count_on (Heap.page_map heap) first);
  check Alcotest.int "addr reset" (-1) (OT.addr objects id)

(* On an unindexed page, place and displace set and clear the address
   only; an indexed page beside it is registered as before. *)
let test_place_unindexed () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:2 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:2;
  PM.unindex_range (Heap.page_map heap) ~first ~npages:1;
  let quiet = OT.alloc objects ~size:100 ~nrefs:0 ~kind:`Scalar in
  let listed = OT.alloc objects ~size:100 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap quiet ~addr:(Vmsim.Page.addr_of first);
  Heap.place heap listed ~addr:(Vmsim.Page.addr_of (first + 1));
  check Alcotest.int "address set" (Vmsim.Page.addr_of first)
    (OT.addr objects quiet);
  check Alcotest.int "no back-index" (-1) (OT.page_slot objects quiet);
  check Alcotest.int "indexed neighbour listed" 1
    (PM.count_on (Heap.page_map heap) (first + 1));
  raises "unindexed page read" (fun () ->
      PM.count_on (Heap.page_map heap) first);
  Heap.displace heap quiet;
  check Alcotest.int "address cleared" (-1) (OT.addr objects quiet);
  (* a move between the two kinds of page keeps the map exact *)
  Heap.displace heap listed;
  Heap.place heap listed ~addr:(Vmsim.Page.addr_of first + 200);
  check Alcotest.int "moved off the indexed page" 0
    (PM.count_on (Heap.page_map heap) (first + 1));
  Heap.displace heap listed;
  Heap.place heap listed ~addr:(Vmsim.Page.addr_of (first + 1) + 64);
  check (Alcotest.list Alcotest.int) "moved back" [ listed ]
    (objects_on (Heap.page_map heap) (first + 1));
  check Alcotest.int "back-index restored" 0 (OT.page_slot objects listed)

let test_spanning_object () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:2 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:2;
  (* place so the object straddles the page boundary *)
  let id = OT.alloc objects ~size:200 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap id ~addr:(Vmsim.Page.addr_of first + Vmsim.Page.size - 100);
  check Alcotest.int "registered on both pages" 2
    (PM.count_on (Heap.page_map heap) first
    + PM.count_on (Heap.page_map heap) (first + 1));
  let pages = ref [] in
  Heap.iter_pages heap id (fun p -> pages := p :: !pages);
  check (Alcotest.list Alcotest.int) "iter_pages" [ first + 1; first ] !pages;
  let vmm = m.Test_support.Mini.vmm in
  Heap.touch_object heap id;
  check Alcotest.bool "both pages resident" true
    (Vmsim.Vmm.is_resident vmm first && Vmsim.Vmm.is_resident vmm (first + 1));
  let minor () =
    (Vmsim.Process.stats m.Test_support.Mini.proc).Vmsim.Vm_stats.minor_faults
  in
  let before = minor () in
  Heap.touch_object heap ~write:true id;
  check Alcotest.bool "both pages dirty" true
    (Vmsim.Vmm.is_dirty vmm first && Vmsim.Vmm.is_dirty vmm (first + 1));
  check Alcotest.int "write touch adds no minor fault" before (minor ())

(* Invariant behind O(1) Page_map removal: every placed object's stored
   [page_slot] names its position in its first page's bucket. *)
let page_slot_invariant heap page =
  let objects = Heap.objects heap in
  List.iteri
    (fun slot id ->
      if Heap.first_page heap id = page then
        check Alcotest.int
          (Printf.sprintf "back-index of #%d" id)
          slot (OT.page_slot objects id))
    (objects_on (Heap.page_map heap) page)

let test_page_slot_fixup () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  let base = Vmsim.Page.addr_of first in
  let ids =
    List.init 8 (fun i ->
        let id = OT.alloc objects ~size:64 ~nrefs:0 ~kind:`Scalar in
        Heap.place heap id ~addr:(base + (i * 64));
        id)
  in
  page_slot_invariant heap first;
  (* middle, head and tail removals: each swap-fills from the bucket's
     tail and must fix the relocated object's stored slot *)
  List.iter
    (fun idx ->
      let id = List.nth ids idx in
      Heap.displace heap id;
      check Alcotest.int "displaced slot reset" (-1) (OT.page_slot objects id);
      page_slot_invariant heap first)
    [ 3; 0; 7 ];
  check Alcotest.int "survivors" 5 (PM.count_on (Heap.page_map heap) first);
  (* replacing objects keeps the invariant through slot reuse *)
  let id = OT.alloc objects ~size:64 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap id ~addr:(base + (3 * 64));
  page_slot_invariant heap first

let test_page_slot_spanning () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:2 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:2;
  let base = Vmsim.Page.addr_of first in
  (* a spanning object is slot-tracked only on its first page; its tail
     page and neighbours there still resolve by scan *)
  let small = OT.alloc objects ~size:32 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap small ~addr:(base + Vmsim.Page.size);
  let span = OT.alloc objects ~size:200 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap span ~addr:(base + Vmsim.Page.size - 100);
  page_slot_invariant heap first;
  page_slot_invariant heap (first + 1);
  Heap.displace heap span;
  check Alcotest.int "span gone from head page" 0
    (PM.count_on (Heap.page_map heap) first);
  check (Alcotest.list Alcotest.int) "tail page keeps neighbour" [ small ]
    (objects_on (Heap.page_map heap) (first + 1));
  page_slot_invariant heap (first + 1)

let test_write_barrier_hook () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  let objects = Heap.objects heap in
  let first = AS.reserve (Heap.address_space heap) ~npages:1 in
  Vmsim.Vmm.map_range m.Test_support.Mini.vmm m.Test_support.Mini.proc
    ~first_page:first ~npages:1;
  let a = OT.alloc objects ~size:16 ~nrefs:1 ~kind:`Scalar in
  let b = OT.alloc objects ~size:16 ~nrefs:0 ~kind:`Scalar in
  Heap.place heap a ~addr:(Vmsim.Page.addr_of first);
  Heap.place heap b ~addr:(Vmsim.Page.addr_of first + 16);
  let events = ref [] in
  Heap.set_write_barrier heap (fun ~src ~field ~old_target ~target ->
      events := (src, field, old_target, target) :: !events);
  Heap.write_ref heap a 0 b;
  check Alcotest.int "barrier fired once" 1 (List.length !events);
  (match !events with
  | [ (src, field, old_target, target) ] ->
      check Alcotest.int "src" a src;
      check Alcotest.int "field" 0 field;
      check Alcotest.bool "old null" true (Heapsim.Obj_id.is_null old_target);
      check Alcotest.int "target" b target
  | _ -> Alcotest.fail "expected one event");
  check Alcotest.int "stored" b (Heap.read_ref heap a 0)

let test_roots () =
  let m = fixture () in
  let heap = m.Test_support.Mini.heap in
  Heap.set_roots heap (fun f -> f 3; f 7);
  let seen = ref [] in
  Heap.iter_roots heap (fun id -> seen := id :: !seen);
  check (Alcotest.list Alcotest.int) "roots" [ 7; 3 ] !seen

let prop_object_table_alloc_free =
  QCheck.Test.make ~name:"object table alloc/free conserves live stats"
    ~count:100
    QCheck.(small_list (int_range 8 512))
    (fun sizes ->
      let t = OT.create () in
      let ids = List.map (fun size -> (OT.alloc t ~size ~nrefs:1 ~kind:`Scalar, size)) sizes in
      let expect_bytes = List.fold_left (fun acc (_, s) -> acc + s) 0 ids in
      let ok1 = OT.live_bytes t = expect_bytes && OT.live_count t = List.length ids in
      List.iter (fun (id, _) -> OT.free t id) ids;
      ok1 && OT.live_count t = 0 && OT.live_bytes t = 0)

(* Random alloc/free/set/get/iter/row sequences against a model: a table
   from live id to its row and fields, and the stack of freed ids, whose
   top every allocation must reuse before a fresh id. Widths run to 70
   and one object is wider than a slab chunk, so runs straddle chunks and
   recycled runs of every width are reused; the table starts more than
   two row chunks full. Sizes and row values reach both ends of their
   widths. *)
type ot_op =
  | Alloc of int * int
  | Free of int
  | Set of int * int * int
  | Get of int * int
  | Iter of int
  | Row of int * int

let show_ot_op = function
  | Alloc (n, s) -> Printf.sprintf "alloc %d (%d)" n s
  | Free i -> Printf.sprintf "free %d" i
  | Set (i, f, x) -> Printf.sprintf "set %d.%d <- %d" i f x
  | Get (i, f) -> Printf.sprintf "get %d.%d" i f
  | Iter i -> Printf.sprintf "iter %d" i
  | Row (i, x) -> Printf.sprintf "row %d (%d)" i x

let arb_ot_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map2 (fun n s -> Alloc (n, s)) (int_range 0 70) nat);
        (2, map (fun i -> Free i) nat);
        (4, map3 (fun i f x -> Set (i, f, x)) nat nat nat);
        (2, map2 (fun i f -> Get (i, f)) nat nat);
        (1, map (fun i -> Iter i) nat);
        (2, map2 (fun i x -> Row (i, x)) nat nat);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_ot_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 300) op)

type ot_row = {
  fields : int array;
  size : int;
  kind : [ `Scalar | `Array ];
  mutable addr : int;
  mutable space : int;
  mutable scratch : int;
  mutable page_slot : int;
  mutable bookmarked : bool;
}

(* A value in [lo, hi] chosen by [seed]: one end, the other, or one in
   between. *)
let in_range seed lo hi =
  match seed mod 4 with
  | 0 -> lo
  | 1 -> hi
  | _ -> lo + (seed * 7919 mod (hi - lo + 1))

let prop_object_table_model =
  QCheck.Test.make ~name:"object table refs agree with a model" ~count:200
    arb_ot_ops (fun ops ->
      let t = OT.create () in
      let model : (int, ot_row) Hashtbl.t = Hashtbl.create 64 in
      let live = Repro_util.Vec.create () in
      let freed = ref [] and fresh = ref 0 in
      let alloc n s =
        let size = in_range s 1 max31 in
        let kind = if s mod 3 = 0 then `Array else `Scalar in
        let expect =
          match !freed with
          | id :: rest ->
              freed := rest;
              id
          | [] ->
              incr fresh;
              !fresh - 1
        in
        let id = OT.alloc t ~size ~nrefs:n ~kind in
        if id <> expect then Alcotest.failf "alloc handed out #%d, not #%d" id expect;
        Hashtbl.replace model id
          {
            fields = Array.make n Heapsim.Obj_id.null;
            size;
            kind;
            addr = -1;
            space = 0;
            scratch = -1;
            page_slot = -1;
            bookmarked = false;
          };
        Repro_util.Vec.push live id
      in
      let agrees id =
        let r = Hashtbl.find model id in
        let seen = ref [] in
        OT.iter_refs t id (fun f x -> seen := (f, x) :: !seen);
        let expect = ref [] in
        Array.iteri
          (fun f x -> if not (Heapsim.Obj_id.is_null x) then expect := (f, x) :: !expect)
          r.fields;
        OT.nrefs t id = Array.length r.fields
        && !seen = !expect
        && Array.for_all2 ( = ) r.fields
             (Array.init (Array.length r.fields) (OT.get_ref t id))
        && OT.size t id = r.size
        && OT.kind t id = r.kind
        && OT.addr t id = r.addr
        && OT.space t id = r.space
        && OT.scratch t id = r.scratch
        && OT.page_slot t id = r.page_slot
        && OT.bookmarked t id = r.bookmarked
      in
      alloc (OT.chunk_slots + 5) 0;
      (* past two row chunks, so ids and recycled ids cross chunk
         boundaries *)
      for i = 1 to (2 * OT.rows_per_chunk) + 1 do
        alloc (i mod 3) i
      done;
      let pick i = Repro_util.Vec.get live (i mod Repro_util.Vec.length live) in
      List.for_all
        (fun op ->
          let nlive = Repro_util.Vec.length live in
          match op with
          | Alloc (n, s) ->
              alloc n s;
              true
          | _ when nlive = 0 -> true
          | Free i ->
              let id = pick i in
              OT.free t id;
              Hashtbl.remove model id;
              freed := id :: !freed;
              ignore (Repro_util.Vec.swap_remove live (i mod nlive) : int);
              not (OT.is_live t id)
          | Set (i, f, x) ->
              let id = pick i in
              let fields = (Hashtbl.find model id).fields in
              (if Array.length fields > 0 then
                 let target = if x mod (nlive + 1) = nlive then Heapsim.Obj_id.null else pick x in
                 let f = f mod Array.length fields in
                 OT.set_ref t id f target;
                 fields.(f) <- target);
              true
          | Get (i, f) ->
              let id = pick i in
              let fields = (Hashtbl.find model id).fields in
              Array.length fields = 0
              || OT.get_ref t id (f mod Array.length fields)
                 = fields.(f mod Array.length fields)
          | Iter i -> agrees (pick i)
          | Row (i, x) ->
              let id = pick i in
              let r = Hashtbl.find model id in
              r.addr <- in_range x (-1) (Vmsim.Page.addr_of (1 lsl 30));
              r.space <- in_range (x + 1) 0 0xffff;
              r.scratch <- in_range (x + 2) (-1) max31;
              r.page_slot <- in_range (x + 3) (-1) max31;
              r.bookmarked <- x land 1 = 1;
              OT.set_addr t id r.addr;
              OT.set_space t id r.space;
              OT.set_scratch t id r.scratch;
              OT.set_page_slot t id r.page_slot;
              OT.set_bookmarked t id r.bookmarked;
              agrees id)
        ops
      && OT.live_count t = Hashtbl.length model
      && OT.live_bytes t = Hashtbl.fold (fun _ r acc -> acc + r.size) model 0
      && OT.capacity t = !fresh
      && Hashtbl.fold (fun id _ ok -> ok && agrees id) model true)

let () =
  Alcotest.run "heapsim"
    [
      ( "object_table",
        [
          Alcotest.test_case "alloc/free/recycle" `Quick test_alloc_free_recycle;
          Alcotest.test_case "dead access" `Quick test_dead_access_rejected;
          Alcotest.test_case "field out of range" `Quick test_field_out_of_range;
          Alcotest.test_case "recycled run nulled" `Quick test_recycled_run_nulled;
          Alcotest.test_case "refs" `Quick test_refs;
          Alcotest.test_case "flags" `Quick test_flags;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "row fields at their widths" `Quick test_row_field_widths;
          Alcotest.test_case "alloc and free host words" `Quick
            test_alloc_free_host_words;
        ] );
      ( "id list",
        [
          Alcotest.test_case "push/iter/filter/clear" `Quick test_id_list;
          Alcotest.test_case "host words" `Quick test_id_list_host_words;
        ] );
      ( "layout",
        [
          Alcotest.test_case "address space" `Quick test_address_space;
          Alcotest.test_case "page map" `Quick test_page_map;
          Alcotest.test_case "page map slots" `Quick test_page_map_slots;
          Alcotest.test_case "page map iter removes" `Quick
            test_page_map_iter_removes;
          Alcotest.test_case "page map unindexed" `Quick
            test_page_map_unindexed;
          Alcotest.test_case "place/displace" `Quick test_place_displace;
          Alcotest.test_case "place unindexed" `Quick test_place_unindexed;
          Alcotest.test_case "spanning object" `Quick test_spanning_object;
          Alcotest.test_case "page slot fixup" `Quick test_page_slot_fixup;
          Alcotest.test_case "page slot spanning" `Quick
            test_page_slot_spanning;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "write barrier" `Quick test_write_barrier_hook;
          Alcotest.test_case "roots" `Quick test_roots;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_object_table_alloc_free; prop_object_table_model ] );
    ]
