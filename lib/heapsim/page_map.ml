module Vec = Repro_util.Vec

(* page -> bucket of the objects on that page, stored as a two-level
   chunked table so sparse address spaces (first pages near 2^30) cost
   memory proportional to populated 4096-page chunks. Never-touched chunks
   alias one shared all-None sentinel, which is never written: [bucket]
   materialises a private chunk before inserting.

   [unindexed] holds the registered unindexed ranges as flat
   [first; last] page pairs; most heaps have none. *)

let chunk_shift = 12

let chunk_pages = 1 lsl chunk_shift

let chunk_mask = chunk_pages - 1

let sentinel : int Vec.t option array = Array.make chunk_pages None

type t = {
  mutable chunks : int Vec.t option array array;
  mutable unindexed : int array;
}

let create () = { chunks = Array.make 1 sentinel; unindexed = [||] }

let unindex_range t ~first ~npages =
  if first < 0 || npages < 1 then
    invalid_arg
      (Printf.sprintf "Page_map.unindex_range: first %d, npages %d" first
         npages);
  t.unindexed <- Array.append t.unindexed [| first; first + npages - 1 |]

(* Offset of the [first] of the unindexed pair holding [page], or -1.
   The annotation keeps the compares on ints: left polymorphic, each
   would be a C call. *)
let rec range_at (r : int array) (page : int) i =
  if i >= Array.length r then -1
  else if page >= r.(i) && page <= r.(i + 1) then i
  else range_at r page (i + 2)

let[@inline] indexed t page =
  Array.length t.unindexed = 0 || range_at t.unindexed page 0 < 0

let unindexed_range t page =
  let r = t.unindexed in
  let i = range_at r page 0 in
  if i < 0 then None else Some (r.(i), r.(i + 1))

(* The readers' guard: a bucket on an unindexed page is empty because
   nothing is registered there, not because the page holds no objects.
   The test is inlined into each reader and the raise kept out of line,
   so a heap with no unindexed range pays one length check per read. *)
let[@inline never] unindexed_read reader page =
  invalid_arg (Printf.sprintf "Page_map.%s: page %d is unindexed" reader page)

let[@inline] check_indexed t page reader =
  if not (indexed t page) then unindexed_read reader page

let ensure t page =
  let c = page lsr chunk_shift in
  if c >= Array.length t.chunks then begin
    let len' = max (c + 1) (2 * Array.length t.chunks) in
    let chunks' = Array.make len' sentinel in
    Array.blit t.chunks 0 chunks' 0 (Array.length t.chunks);
    t.chunks <- chunks'
  end;
  if t.chunks.(c) == sentinel then t.chunks.(c) <- Array.make chunk_pages None

let slot_of t page =
  let c = page lsr chunk_shift in
  if c < Array.length t.chunks then t.chunks.(c).(page land chunk_mask)
  else None

let bucket t page =
  ensure t page;
  let chunk = t.chunks.(page lsr chunk_shift) in
  match chunk.(page land chunk_mask) with
  | Some v -> v
  | None ->
      let v = Vec.create () in
      chunk.(page land chunk_mask) <- Some v;
      v

let add t objs ~first ~last id =
  let v = bucket t first in
  Object_table.set_page_slot objs id (Vec.length v);
  Vec.push v id;
  for page = first + 1 to last do
    Vec.push (bucket t page) id
  done

let missing page id =
  invalid_arg
    (Printf.sprintf "Page_map.remove: object #%d not on page %d" id page)

(* Swap-remove slot [i] of [page]'s bucket [v]. The former last element
   fills the hole; if [page] is that object's first page, its stored
   back-index follows it. *)
let remove_slot objs v page i =
  ignore (Vec.swap_remove v i : int);
  if i < Vec.length v then begin
    let moved = Vec.get v i in
    if Vmsim.Page.of_addr (Object_table.addr objs moved) = page then
      Object_table.set_page_slot objs moved i
  end

let rec scan objs v page id i =
  if i >= Vec.length v then missing page id
  else if Vec.get v i = id then remove_slot objs v page i
  else scan objs v page id (i + 1)

(* O(1) at a valid [hint]; otherwise (no hint, as on the non-first pages
   of a multi-page object, or a stale one) a scan of the bucket. *)
let remove_on t objs page ~hint id =
  let v = bucket t page in
  if hint >= 0 && hint < Vec.length v && Vec.get v hint = id then
    remove_slot objs v page hint
  else scan objs v page id 0

let remove t objs ~first ~last id =
  remove_on t objs first ~hint:(Object_table.page_slot objs id) id;
  for page = first + 1 to last do
    remove_on t objs page ~hint:(-1) id
  done;
  Object_table.set_page_slot objs id (-1)

let objects_on t page buf =
  Vec.clear buf;
  if page >= 0 then begin
    check_indexed t page "objects_on";
    match slot_of t page with
    | None -> ()
    | Some v ->
        for i = 0 to Vec.length v - 1 do
          Vec.push buf (Vec.get v i)
        done
  end

let count_on t page =
  if page < 0 then 0
  else begin
    check_indexed t page "count_on";
    match slot_of t page with None -> 0 | Some v -> Vec.length v
  end

(* Materialised chunks only: a never-touched chunk is the sentinel. *)
let iter_populated t f =
  Array.iteri
    (fun c chunk ->
      if chunk != sentinel then
        Array.iteri
          (fun i slot ->
            match slot with
            | Some v when not (Vec.is_empty v) -> f ((c lsl chunk_shift) + i)
            | _ -> ())
          chunk)
    t.chunks

(* [Vec.iter] fixes its bound at entry and a swap-remove writes only the
   vacated slot and the length, so removing the visited entry (or an
   earlier one) leaves every later entry where the loop will read it. *)
let iter_on t page f =
  if page >= 0 then begin
    check_indexed t page "iter_on";
    match slot_of t page with None -> () | Some v -> Vec.iter f v
  end
