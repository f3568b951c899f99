(* Flag bits packed in a per-object status byte. *)
let flag_live = 1

let flag_marked = 2

let flag_bookmarked = 4

let flag_array = 8

(* Reference fields live in one slab of int slots rather than in a block
   per object, so [alloc] and [set_ref] touch no host-heap pointers: no
   block to allocate, promote and mark, and no write barrier on a store.
   An object owns the run of [nrefs] consecutive slots from its
   [refs_base]. The slab is a root array of [chunk_slots]-slot chunks
   that are never copied once created (the [Page_map] and
   [Vmm.Page_table] idiom); slot [s] is
   [chunks.(s lsr chunk_shift).(s land chunk_mask)], so a run may
   straddle chunks and an object may be wider than one chunk. Freed runs
   go on per-length free lists threaded through each run's first slot
   ([free_runs.(n)] heads the list for length [n]) and are nulled when
   reused; fresh chunks start null. *)
let chunk_shift = 12

let chunk_slots = 1 lsl chunk_shift

let chunk_mask = chunk_slots - 1

let no_run = -1

type t = {
  mutable size : int array;
  mutable addr : int array;
  mutable refs_base : int array;
  mutable nrefs : int array;
  mutable flags : Bytes.t;
  mutable space : int array;
  mutable scratch : int array;
  mutable page_slot : int array;
  mutable next_id : int;
  free_ids : int Repro_util.Vec.t;
  mutable live : int;
  mutable live_bytes : int;
  mutable chunks : int array array;
  mutable slab_top : int;
  mutable slab_cap : int;
  mutable free_runs : int array;
}

let create () =
  {
    size = Array.make 1024 0;
    addr = Array.make 1024 (-1);
    refs_base = Array.make 1024 0;
    nrefs = Array.make 1024 0;
    flags = Bytes.make 1024 '\000';
    space = Array.make 1024 0;
    scratch = Array.make 1024 (-1);
    page_slot = Array.make 1024 (-1);
    next_id = 0;
    free_ids = Repro_util.Vec.create ();
    live = 0;
    live_bytes = 0;
    chunks = Array.make 1 [||];
    slab_top = 0;
    slab_cap = 0;
    free_runs = Array.make 16 no_run;
  }

let grow t =
  let cap = Array.length t.size in
  let cap' = cap * 2 in
  let grow_arr a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.size <- grow_arr t.size 0;
  t.addr <- grow_arr t.addr (-1);
  t.refs_base <- grow_arr t.refs_base 0;
  t.nrefs <- grow_arr t.nrefs 0;
  t.space <- grow_arr t.space 0;
  t.scratch <- grow_arr t.scratch (-1);
  t.page_slot <- grow_arr t.page_slot (-1);
  let flags' = Bytes.make cap' '\000' in
  Bytes.blit t.flags 0 flags' 0 cap;
  t.flags <- flags'

let get_flags t id = Char.code (Bytes.get t.flags id)

let set_flags t id v = Bytes.set t.flags id (Char.chr v)

(* [id < next_id <= Bytes.length flags], so the flag read is in bounds. *)
let[@inline] is_live t id =
  id >= 0 && id < t.next_id
  && Char.code (Bytes.unsafe_get t.flags id) land flag_live <> 0

let[@inline never] dead id =
  invalid_arg (Printf.sprintf "Object_table: dead or invalid object #%d" id)

let[@inline] check t id = if not (is_live t id) then dead id

let[@inline never] bad_field t id field =
  invalid_arg
    (Printf.sprintf "Object_table: field %d out of range for object #%d (%d refs)"
       field id t.nrefs.(id))

(* A live object's fields [0, nrefs) are slots of its run, all below
   [slab_top <= slab_cap], so both slab reads are in bounds. *)
let[@inline] check_field t id field =
  check t id;
  if field < 0 || field >= Array.unsafe_get t.nrefs id then bad_field t id field

let[@inline] slot t s =
  Array.unsafe_get (Array.unsafe_get t.chunks (s lsr chunk_shift)) (s land chunk_mask)

let[@inline] set_slot t s v =
  Array.unsafe_set (Array.unsafe_get t.chunks (s lsr chunk_shift)) (s land chunk_mask) v

let add_chunk t =
  let n = t.slab_cap lsr chunk_shift in
  if n = Array.length t.chunks then begin
    let chunks' = Array.make (2 * n) [||] in
    Array.blit t.chunks 0 chunks' 0 n;
    t.chunks <- chunks'
  end;
  t.chunks.(n) <- Array.make chunk_slots Obj_id.null;
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
      if t.next_id >= Array.length t.size then grow t;
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      id
    end
    else Repro_util.Vec.pop t.free_ids
  in
  t.size.(id) <- size;
  t.addr.(id) <- -1;
  t.refs_base.(id) <- (if nrefs = 0 then 0 else take_run t nrefs);
  t.nrefs.(id) <- nrefs;
  t.space.(id) <- 0;
  t.scratch.(id) <- -1;
  t.page_slot.(id) <- -1;
  set_flags t id (flag_live lor match kind with `Array -> flag_array | `Scalar -> 0);
  t.live <- t.live + 1;
  t.live_bytes <- t.live_bytes + size;
  id

let free t id =
  check t id;
  t.live <- t.live - 1;
  t.live_bytes <- t.live_bytes - t.size.(id);
  let n = t.nrefs.(id) in
  if n > 0 then release_run t t.refs_base.(id) n;
  set_flags t id 0;
  Repro_util.Vec.push t.free_ids id

let size t id =
  check t id;
  t.size.(id)

let kind t id =
  check t id;
  if get_flags t id land flag_array <> 0 then `Array else `Scalar

let addr t id =
  check t id;
  t.addr.(id)

let set_addr t id a =
  check t id;
  t.addr.(id) <- a

let nrefs t id =
  check t id;
  t.nrefs.(id)

let get_ref t id field =
  check_field t id field;
  slot t (t.refs_base.(id) + field)

let set_ref t id field target =
  check_field t id field;
  set_slot t (t.refs_base.(id) + field) target

let iter_refs t id f =
  check t id;
  let base = t.refs_base.(id) in
  for field = 0 to t.nrefs.(id) - 1 do
    let target = slot t (base + field) in
    if not (Obj_id.is_null target) then f field target
  done

let get_bit t id bit =
  check t id;
  get_flags t id land bit <> 0

let set_bit t id bit v =
  check t id;
  let f = get_flags t id in
  set_flags t id (if v then f lor bit else f land lnot bit)

let marked t id = get_bit t id flag_marked

let set_marked t id v = set_bit t id flag_marked v

let bookmarked t id = get_bit t id flag_bookmarked

let set_bookmarked t id v = set_bit t id flag_bookmarked v

let space t id =
  check t id;
  t.space.(id)

let set_space t id v =
  check t id;
  t.space.(id) <- v

let scratch t id =
  check t id;
  t.scratch.(id)

let set_scratch t id v =
  check t id;
  t.scratch.(id) <- v

let page_slot t id =
  check t id;
  t.page_slot.(id)

let set_page_slot t id v =
  check t id;
  t.page_slot.(id) <- v

let live_count t = t.live

let live_bytes t = t.live_bytes

let iter_live t f =
  for id = 0 to t.next_id - 1 do
    if get_flags t id land flag_live <> 0 then f id
  done

let capacity t = t.next_id
