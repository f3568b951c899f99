(* Slot [c] of the root covers keys [c lsl shift] to [((c + 1) lsl shift)
   - 1]. A slot nothing has written holds the sentinel, which
   [materialize] replaces before any write: the sentinel is never
   written, so a read anywhere, negative keys and keys past the root
   included, is one compare and one array load. *)

type 'c t = {
  shift : int;
  sentinel : 'c;
  mutable chunks : 'c array;
  mutable materialized : int;
}

let create ~shift ~sentinel =
  if shift < 0 || shift >= Sys.int_size then
    invalid_arg (Printf.sprintf "Sparse.create: shift %d" shift);
  { shift; sentinel; chunks = [| sentinel |]; materialized = 0 }

(* A negative key shifts to an index past any root, so it reads the
   sentinel without a sign test. *)
let[@inline] chunk t key =
  let c = key lsr t.shift in
  if c < Array.length t.chunks then Array.unsafe_get t.chunks c
  else t.sentinel

let[@inline] is_materialized t key = chunk t key != t.sentinel

(* [key]'s slot holds the sentinel or lies past the root: grow the root
   to reach it and install a fresh chunk. *)
let[@inline never] install t key fresh =
  if key < 0 then
    invalid_arg (Printf.sprintf "Sparse.materialize: negative key %d" key);
  let c = key lsr t.shift in
  let n = Array.length t.chunks in
  if c >= n then begin
    let chunks = Array.make (max (c + 1) (2 * n)) t.sentinel in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks
  end;
  let chunk = fresh () in
  t.chunks.(c) <- chunk;
  t.materialized <- t.materialized + 1;
  chunk

let[@inline] materialize t key fresh =
  let chunk = chunk t key in
  if chunk != t.sentinel then chunk else install t key fresh

let materialized t = t.materialized

let iter t f =
  Array.iteri (fun c chunk -> if chunk != t.sentinel then f c chunk) t.chunks

let rec next_from t c =
  if c >= Array.length t.chunks then -1
  else if t.chunks.(c) != t.sentinel then c
  else next_from t (c + 1)

let next_materialized t key =
  next_from t (if key < 0 then 0 else key lsr t.shift)

let reset t =
  Array.fill t.chunks 0 (Array.length t.chunks) t.sentinel;
  t.materialized <- 0
