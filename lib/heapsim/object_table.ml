(* Flag bits packed in a row's flags word. *)
let flag_live = 1

let flag_bookmarked = 4

let flag_array = 8

(* Object metadata and reference fields are stored in [Bytes] chunks
   hanging off root arrays, read and written as unboxed native-endian
   words. A chunk holds no pointers and is never copied once created, so
   the host GC neither barriers a store into it nor scans it; only a root
   array of chunk pointers doubles.

   Rows: each object owns one 64-byte row of eight words (the [w_*]
   byte offsets below), [rows_per_chunk] rows to a chunk. Row [id] starts
   at byte [(id land rows_mask) lsl row_shift] of [rows.(id lsr rows_shift)].

   Reference fields: one slab of int slots, [chunk_slots] to a chunk, so
   [alloc] and [set_ref] touch no host-heap pointers. An object owns the
   run of [nrefs] consecutive slots from its [refs_base]; slot [s] is
   word [s land chunk_mask] of [slab.(s lsr chunk_shift)], so a run may
   straddle chunks and an object may be wider than one chunk. Freed runs
   go on per-length free lists threaded through each run's first slot
   ([free_runs.(n)] heads the list for length [n]) and are nulled when
   reused; fresh chunks start null. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let row_shift = 6

let rows_shift = 10

let rows_per_chunk = 1 lsl rows_shift

let rows_mask = rows_per_chunk - 1

let w_flags = 0

let w_size = 8

let w_addr = 16

let w_refs_base = 24

let w_nrefs = 32

let w_space = 40

let w_scratch = 48

let w_page_slot = 56

let chunk_shift = 12

let chunk_slots = 1 lsl chunk_shift

let chunk_mask = chunk_slots - 1

(* A fresh slab chunk is filled with 0xff bytes: every slot reads -1. *)
let () = assert (Obj_id.null = -1)

let no_run = -1

type t = {
  mutable rows : Bytes.t array;
  mutable next_id : int;
  free_ids : int Repro_util.Vec.t;
  mutable live : int;
  mutable live_bytes : int;
  mutable slab : Bytes.t array;
  mutable slab_top : int;
  mutable slab_cap : int;
  mutable free_runs : int array;
}

let create () =
  {
    rows = [| Bytes.empty |];
    next_id = 0;
    free_ids = Repro_util.Vec.create ();
    live = 0;
    live_bytes = 0;
    slab = [| Bytes.empty |];
    slab_top = 0;
    slab_cap = 0;
    free_runs = Array.make 16 no_run;
  }

(* Store [chunk] as entry [n] of a root array, doubling the array when
   full; the chunks themselves are never copied. *)
let push_chunk root n chunk =
  let root =
    if n < Array.length root then root
    else begin
      let root' = Array.make (2 * n) Bytes.empty in
      Array.blit root 0 root' 0 n;
      root'
    end
  in
  root.(n) <- chunk;
  root

(* Unchecked row access. Every caller passes an id below [next_id], and
   [next_id] never exceeds the number of allocated rows ([alloc] adds a
   chunk before handing out its first id), so the chunk exists and the
   word lies inside it. *)
let[@inline] get t id w =
  Int64.to_int
    (get64u
       (Array.unsafe_get t.rows (id lsr rows_shift))
       (((id land rows_mask) lsl row_shift) + w))

let[@inline] set t id w v =
  set64u
    (Array.unsafe_get t.rows (id lsr rows_shift))
    (((id land rows_mask) lsl row_shift) + w)
    (Int64.of_int v)

let[@inline] is_live t id =
  id >= 0 && id < t.next_id && get t id w_flags land flag_live <> 0

let[@inline never] dead id =
  invalid_arg (Printf.sprintf "Object_table: dead or invalid object #%d" id)

let[@inline] check t id = if not (is_live t id) then dead id

(* Checked row access. The load sits on [is_live]'s success branch, so
   an optimised build reuses the chunk address the check computed. *)
let[@inline] get_checked t id w = if is_live t id then get t id w else dead id

let[@inline] set_checked t id w v = if is_live t id then set t id w v else dead id

let[@inline never] bad_field t id field =
  invalid_arg
    (Printf.sprintf "Object_table: field %d out of range for object #%d (%d refs)"
       field id (get t id w_nrefs))

(* The slab slot holding reference field [field] of [id], after checking
   that [id] is live and the field in range. *)
let[@inline] check_field t id field =
  if not (is_live t id) then dead id
  else if field < 0 || field >= get t id w_nrefs then bad_field t id field
  else get t id w_refs_base + field

(* A live object's fields [0, nrefs) are slots of its run, all below
   [slab_top <= slab_cap], so slab accesses after [check_field] are in
   bounds. *)
let[@inline] slot t s =
  Int64.to_int
    (get64u (Array.unsafe_get t.slab (s lsr chunk_shift)) ((s land chunk_mask) lsl 3))

let[@inline] set_slot t s v =
  set64u
    (Array.unsafe_get t.slab (s lsr chunk_shift))
    ((s land chunk_mask) lsl 3)
    (Int64.of_int v)

let add_chunk t =
  t.slab <-
    push_chunk t.slab (t.slab_cap lsr chunk_shift) (Bytes.make (chunk_slots lsl 3) '\255');
  t.slab_cap <- t.slab_cap + chunk_slots

(* First slot of a null run of [n > 0] slots: a recycled run of that
   length, else fresh slots from the top of the slab. *)
let take_run t n =
  let base = if n < Array.length t.free_runs then t.free_runs.(n) else no_run in
  if base <> no_run then begin
    t.free_runs.(n) <- slot t base;
    for s = base to base + n - 1 do
      set_slot t s Obj_id.null
    done;
    base
  end
  else begin
    let base = t.slab_top in
    t.slab_top <- base + n;
    while t.slab_top > t.slab_cap do
      add_chunk t
    done;
    base
  end

let release_run t base n =
  if n >= Array.length t.free_runs then begin
    let runs' = Array.make (Int.max (n + 1) (2 * Array.length t.free_runs)) no_run in
    Array.blit t.free_runs 0 runs' 0 (Array.length t.free_runs);
    t.free_runs <- runs'
  end;
  set_slot t base t.free_runs.(n);
  t.free_runs.(n) <- base

let alloc t ~size ~nrefs ~kind =
  if size <= 0 then invalid_arg "Object_table.alloc: size must be positive";
  if nrefs < 0 then invalid_arg "Object_table.alloc: negative nrefs";
  let id =
    if Repro_util.Vec.is_empty t.free_ids then begin
      let id = t.next_id in
      if id land rows_mask = 0 then
        t.rows <-
          push_chunk t.rows (id lsr rows_shift)
            (Bytes.make (rows_per_chunk lsl row_shift) '\000');
      t.next_id <- id + 1;
      id
    end
    else Repro_util.Vec.pop t.free_ids
  in
  set t id w_flags (flag_live lor match kind with `Array -> flag_array | `Scalar -> 0);
  set t id w_size size;
  set t id w_addr (-1);
  set t id w_refs_base (if nrefs = 0 then 0 else take_run t nrefs);
  set t id w_nrefs nrefs;
  set t id w_space 0;
  set t id w_scratch (-1);
  set t id w_page_slot (-1);
  t.live <- t.live + 1;
  t.live_bytes <- t.live_bytes + size;
  id

let free t id =
  check t id;
  t.live <- t.live - 1;
  t.live_bytes <- t.live_bytes - get t id w_size;
  let n = get t id w_nrefs in
  if n > 0 then release_run t (get t id w_refs_base) n;
  set t id w_flags 0;
  Repro_util.Vec.push t.free_ids id

let[@inline] size t id = get_checked t id w_size

let[@inline] kind t id =
  if get_checked t id w_flags land flag_array <> 0 then `Array else `Scalar

let[@inline] addr t id = get_checked t id w_addr

let[@inline] set_addr t id a = set_checked t id w_addr a

let[@inline] nrefs t id = get_checked t id w_nrefs

let[@inline] get_ref t id field = slot t (check_field t id field)

let[@inline] set_ref t id field target =
  set_slot t (check_field t id field) target

let iter_refs t id f =
  check t id;
  let base = get t id w_refs_base in
  for field = 0 to get t id w_nrefs - 1 do
    let target = slot t (base + field) in
    if not (Obj_id.is_null target) then f field target
  done

let[@inline] get_bit t id bit = get_checked t id w_flags land bit <> 0

let[@inline] set_bit t id bit v =
  let f = get_checked t id w_flags in
  set t id w_flags (if v then f lor bit else f land lnot bit)

let[@inline] bookmarked t id = get_bit t id flag_bookmarked

let[@inline] set_bookmarked t id v = set_bit t id flag_bookmarked v

let[@inline] space t id = get_checked t id w_space

let[@inline] set_space t id v = set_checked t id w_space v

let[@inline] scratch t id = get_checked t id w_scratch

let[@inline] set_scratch t id v = set_checked t id w_scratch v

let[@inline] page_slot t id = get_checked t id w_page_slot

let[@inline] set_page_slot t id v = set_checked t id w_page_slot v

let live_count t = t.live

let live_bytes t = t.live_bytes

let iter_live t f =
  for id = 0 to t.next_id - 1 do
    if get t id w_flags land flag_live <> 0 then f id
  done

let capacity t = t.next_id
