external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* Slot [i] is the 32-bit word at byte [(i land chunk_mask) lsl 2] of
   [chunks.(i lsr chunk_shift)]. [cap] counts the slots of the chunks
   allocated so far; [len <= cap] always, so a read below [len] is in
   bounds. The root array starts with room for a few chunks and doubles
   when full. *)
let chunk_shift = 10

let chunk_ids = 1 lsl chunk_shift

let chunk_mask = chunk_ids - 1

type t = { mutable chunks : Bytes.t array; mutable len : int; mutable cap : int }

let create () = { chunks = Array.make 4 Bytes.empty; len = 0; cap = 0 }

let[@inline] slot t i =
  Int32.to_int
    (get32u (Array.unsafe_get t.chunks (i lsr chunk_shift)) ((i land chunk_mask) lsl 2))

let[@inline] set_slot t i v =
  set32u
    (Array.unsafe_get t.chunks (i lsr chunk_shift))
    ((i land chunk_mask) lsl 2)
    (Int32.of_int v)

let add_chunk t =
  let n = t.cap lsr chunk_shift in
  if n = Array.length t.chunks then begin
    let chunks' = Array.make (2 * n) Bytes.empty in
    Array.blit t.chunks 0 chunks' 0 n;
    t.chunks <- chunks'
  end;
  t.chunks.(n) <- Bytes.create (chunk_ids lsl 2);
  t.cap <- t.cap + chunk_ids

let[@inline never] out_of_range v =
  invalid_arg
    (Printf.sprintf "Id_list.push: %d outside the signed 32-bit range" v)

let push t id =
  if (id lsl 31) asr 31 <> id then out_of_range id;
  if t.len = t.cap then add_chunk t;
  set_slot t t.len id;
  t.len <- t.len + 1

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f (slot t i)
  done

let filter_in_place p t =
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let id = slot t i in
    if p id then begin
      set_slot t !kept id;
      incr kept
    end
  done;
  t.len <- !kept
