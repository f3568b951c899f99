(* Flag bits packed in a row's 16-bit flags field. *)
let flag_live = 1

let flag_bookmarked = 4

let flag_array = 8

(* Object metadata and reference fields are stored in [Bytes] chunks
   hanging off root arrays, read and written as unboxed native-endian
   integers. A chunk holds no pointers and is never copied once created,
   so the host GC neither barriers a store into it nor scans it; only a
   root array of chunk pointers doubles.

   Rows: each object owns one 32-byte row (the [w_*] byte offsets
   below), [rows_per_chunk] rows to a chunk. Row [id] starts at byte
   [(id land rows_mask) lsl row_shift] of [rows.(id lsr rows_shift)].
   [addr] is a 64-bit word, because sparse address spaces reach 2^42;
   size, nrefs, refs_base, page_slot and scratch are signed 32-bit words;
   flags and space are 16-bit halves of the last word. Nothing is
   truncated on the way in: [alloc] keeps sizes, widths, ids and slab
   slots below 2^31, and the setters range-check their values.

   Free ids: a freed row's refs_base word holds the next free id, so the
   free ids form a LIFO list threaded through the dead rows from
   [free_head], and [free] allocates nothing.

   Reference fields: one slab of 32-bit slots, [chunk_slots] to a chunk,
   so [alloc] and [set_ref] touch no host-heap pointers. An object owns
   the run of [nrefs] consecutive slots from its [refs_base]; slot [s] is
   slot [s land chunk_mask] of [slab.(s lsr chunk_shift)], so a run may
   straddle chunks and an object may be wider than one chunk. Freed runs
   go on per-length free lists threaded through each run's first slot
   ([free_runs.(n)] heads the list for length [n]) and are nulled when
   reused; fresh chunks start null. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let row_shift = 5

let rows_shift = 10

let rows_per_chunk = 1 lsl rows_shift

let rows_mask = rows_per_chunk - 1

let w_addr = 0

let w_size = 8

let w_nrefs = 12

let w_refs_base = 16

let w_page_slot = 20

let w_scratch = 24

let w_flags = 28

let w_space = 30

(* A dead row's link to the next free id. *)
let w_next_free = w_refs_base

let chunk_shift = 12

let chunk_slots = 1 lsl chunk_shift

let chunk_mask = chunk_slots - 1

(* Sizes, widths, ids and slab slots stay at or below this. *)
let max31 = (1 lsl 31) - 1

let max_space = 0xffff

(* A fresh slab chunk is filled with 0xff bytes: every slot reads -1. *)
let () = assert (Obj_id.null = -1)

let no_run = -1

let no_id = -1

type t = {
  mutable rows : Bytes.t array;
  mutable next_id : int;
  mutable free_head : int;
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
    free_head = no_id;
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
   field lies inside it. *)
let[@inline] chunk t id = Array.unsafe_get t.rows (id lsr rows_shift)

let[@inline] at id w = ((id land rows_mask) lsl row_shift) + w

let[@inline] get t id w = Int32.to_int (get32u (chunk t id) (at id w))

let[@inline] set t id w v = set32u (chunk t id) (at id w) (Int32.of_int v)

let[@inline] addr_raw t id = Int64.to_int (get64u (chunk t id) (at id w_addr))

let[@inline] set_addr_raw t id v = set64u (chunk t id) (at id w_addr) (Int64.of_int v)

let[@inline] get16 t id w = get16u (chunk t id) (at id w)

let[@inline] set16 t id w v = set16u (chunk t id) (at id w) v

let[@inline] is_live t id =
  id >= 0 && id < t.next_id && get16 t id w_flags land flag_live <> 0

let[@inline never] dead id =
  invalid_arg (Printf.sprintf "Object_table: dead or invalid object #%d" id)

let[@inline never] out_of_range what id v =
  invalid_arg
    (Printf.sprintf "Object_table.%s: %d out of range for object #%d" what v id)

let[@inline] check t id = if not (is_live t id) then dead id

(* True when [v] is a signed 32-bit value, so a 32-bit store keeps it. *)
let[@inline] fits32 v = (v lsl 31) asr 31 = v

(* Checked row access. The load sits on [is_live]'s success branch, so
   an optimised build reuses the chunk address the check computed. *)
let[@inline] get_checked t id w = if is_live t id then get t id w else dead id

let[@inline] set_checked t id w v what =
  if not (is_live t id) then dead id
  else if not (fits32 v) then out_of_range what id v
  else set t id w v

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
  Int32.to_int
    (get32u (Array.unsafe_get t.slab (s lsr chunk_shift)) ((s land chunk_mask) lsl 2))

let[@inline] set_slot t s v =
  set32u
    (Array.unsafe_get t.slab (s lsr chunk_shift))
    ((s land chunk_mask) lsl 2)
    (Int32.of_int v)

let add_chunk t =
  t.slab <-
    push_chunk t.slab (t.slab_cap lsr chunk_shift) (Bytes.make (chunk_slots lsl 2) '\255');
  t.slab_cap <- t.slab_cap + chunk_slots

(* First slot of a null run of [n > 0] slots: a recycled run of that
   length, else fresh slots from the top of the slab. Raises, changing
   nothing, when a fresh run would end past slot [max31]. *)
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
    if n > max31 + 1 - base then
      invalid_arg (Printf.sprintf "Object_table.alloc: no slab room for %d refs" n);
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

(* The most recently freed id, else a fresh one. *)
let take_id t =
  let id = t.free_head in
  if id <> no_id then begin
    t.free_head <- get t id w_next_free;
    id
  end
  else begin
    let id = t.next_id in
    if id land rows_mask = 0 then
      t.rows <-
        push_chunk t.rows (id lsr rows_shift)
          (Bytes.make (rows_per_chunk lsl row_shift) '\000');
    t.next_id <- id + 1;
    id
  end

let alloc t ~size ~nrefs ~kind =
  if size <= 0 || size > max31 then
    invalid_arg (Printf.sprintf "Object_table.alloc: size %d outside [1, 2^31)" size);
  if nrefs < 0 || nrefs > max31 then
    invalid_arg (Printf.sprintf "Object_table.alloc: nrefs %d outside [0, 2^31)" nrefs);
  if t.free_head = no_id && t.next_id > max31 then
    invalid_arg "Object_table.alloc: no ids left below 2^31";
  let refs_base = if nrefs = 0 then 0 else take_run t nrefs in
  let id = take_id t in
  set_addr_raw t id (-1);
  set t id w_size size;
  set t id w_nrefs nrefs;
  set t id w_refs_base refs_base;
  set t id w_page_slot (-1);
  set t id w_scratch (-1);
  set16 t id w_flags
    (flag_live lor match kind with `Array -> flag_array | `Scalar -> 0);
  set16 t id w_space 0;
  t.live <- t.live + 1;
  t.live_bytes <- t.live_bytes + size;
  id

let free t id =
  check t id;
  t.live <- t.live - 1;
  t.live_bytes <- t.live_bytes - get t id w_size;
  let n = get t id w_nrefs in
  if n > 0 then release_run t (get t id w_refs_base) n;
  set16 t id w_flags 0;
  set t id w_next_free t.free_head;
  t.free_head <- id

let[@inline] size t id = get_checked t id w_size

let[@inline] addr t id = if is_live t id then addr_raw t id else dead id

let[@inline] set_addr t id a = if is_live t id then set_addr_raw t id a else dead id

let[@inline] nrefs t id = get_checked t id w_nrefs

(* A span packs an object's first page above its page count, which
   takes [span_bits]: an object under 2^31 bytes spans at most 2^19 + 1
   pages. The packed first page then fits while the address is below
   2^54. *)
let page_shift = 12

let () = assert (Vmsim.Page.size = 1 lsl page_shift)

let span_bits = 20

let span_mask = (1 lsl span_bits) - 1

let[@inline never] no_span t id =
  let addr = addr_raw t id in
  if addr < 0 then
    invalid_arg (Printf.sprintf "Object_table.span: object #%d is unplaced" id)
  else
    invalid_arg
      (Printf.sprintf "Object_table.span: object #%d at address %d, past 2^54"
         id addr)

(* One liveness check, one chunk load, and the address and size read
   from the same row. [addr lsr 54 <> 0] catches an unplaced object
   (address -1) and one too high to pack alike. *)
let[@inline] span t id =
  if is_live t id then begin
    let c = chunk t id and row = at id 0 in
    let addr = Int64.to_int (get64u c (row + w_addr)) in
    if addr lsr 54 <> 0 then no_span t id
    else
      let first = addr lsr page_shift in
      let last =
        (addr + Int32.to_int (get32u c (row + w_size)) - 1) lsr page_shift
      in
      (first lsl span_bits) lor (last - first + 1)
  end
  else dead id

let[@inline] span_first s = s lsr span_bits

let[@inline] span_last s = (s lsr span_bits) + (s land span_mask) - 1

let[@inline] get_ref t id field = slot t (check_field t id field)

let[@inline] set_ref t id field target =
  let s = check_field t id field in
  if fits32 target then set_slot t s target else out_of_range "set_ref" id target

let iter_refs t id f =
  check t id;
  let base = get t id w_refs_base in
  for field = 0 to get t id w_nrefs - 1 do
    let target = slot t (base + field) in
    if not (Obj_id.is_null target) then f field target
  done

let non_null_refs t id =
  check t id;
  let base = get t id w_refs_base in
  let n = ref 0 in
  for field = 0 to get t id w_nrefs - 1 do
    if not (Obj_id.is_null (slot t (base + field))) then incr n
  done;
  !n

let[@inline] get_bit t id bit =
  if is_live t id then get16 t id w_flags land bit <> 0 else dead id

let[@inline] set_bit t id bit v =
  if is_live t id then
    let f = get16 t id w_flags in
    set16 t id w_flags (if v then f lor bit else f land lnot bit)
  else dead id

let[@inline] kind t id = if get_bit t id flag_array then `Array else `Scalar

let[@inline] bookmarked t id = get_bit t id flag_bookmarked

let[@inline] set_bookmarked t id v = set_bit t id flag_bookmarked v

let[@inline] space t id = if is_live t id then get16 t id w_space else dead id

let[@inline] set_space t id v =
  if not (is_live t id) then dead id
  else if v < 0 || v > max_space then out_of_range "set_space" id v
  else set16 t id w_space v

let[@inline] scratch t id = get_checked t id w_scratch

let[@inline] set_scratch t id v = set_checked t id w_scratch v "set_scratch"

let[@inline] page_slot t id = get_checked t id w_page_slot

let[@inline] set_page_slot t id v = set_checked t id w_page_slot v "set_page_slot"

let live_count t = t.live

let live_bytes t = t.live_bytes

let iter_live t f =
  for id = 0 to t.next_id - 1 do
    if get16 t id w_flags land flag_live <> 0 then f id
  done

let capacity t = t.next_id
