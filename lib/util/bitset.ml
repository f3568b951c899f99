(* A two-level sparse bit set: 63-bit words in 512-word chunks of a
   [Sparse] table keyed by word index, so a giant index costs one ~4 KB
   chunk, not the zeros below it. Never-written chunks read as the shared
   all-zero [zero_chunk]; [set] materialises a chunk first, and [clear]
   writes only a word with the bit set, which [zero_chunk] never has. *)

let bits_per_word = 63
(* OCaml ints: use 63 usable bits per word on 64-bit platforms. *)

let chunk_shift = 9

let chunk_words = 1 lsl chunk_shift
(* 512 words x 63 bits = 32256 bits (~4 KB) per materialised chunk. *)

let chunk_mask = chunk_words - 1

let zero_chunk : int array = Array.make chunk_words 0

type t = int array Sparse.t

let create () = Sparse.create ~shift:chunk_shift ~sentinel:zero_chunk

let fresh () = Array.make chunk_words 0

(* The word holding bit [i >= 0], read from its chunk. *)
let[@inline] word t w = (Sparse.chunk t w).(w land chunk_mask)

let set t i =
  if i < 0 then invalid_arg "Bitset.set: negative index";
  let w = i / bits_per_word in
  let chunk = Sparse.materialize t w fresh in
  let cw = w land chunk_mask in
  chunk.(cw) <- chunk.(cw) lor (1 lsl (i mod bits_per_word))

let clear t i =
  if i >= 0 then begin
    let w = i / bits_per_word in
    let chunk = Sparse.chunk t w in
    let cw = w land chunk_mask in
    let bit = 1 lsl (i mod bits_per_word) in
    if chunk.(cw) land bit <> 0 then chunk.(cw) <- chunk.(cw) land lnot bit
  end

let[@inline] mem t i =
  i >= 0 && word t (i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x lsr 1) (acc + (x land 1)) in
  loop x 0

let cardinal t =
  let acc = ref 0 in
  Sparse.iter t (fun _ chunk ->
      Array.iter (fun w -> acc := !acc + popcount w) chunk);
  !acc

let reset = Sparse.reset

let iter f t =
  Sparse.iter t (fun c chunk ->
      let base = c lsl chunk_shift in
      Array.iteri
        (fun cw word ->
          if word <> 0 then
            for b = 0 to bits_per_word - 1 do
              if word land (1 lsl b) <> 0 then
                f (((base + cw) * bits_per_word) + b)
            done)
        chunk)

(* The first set bit at or past bit [b] of word [w], skipping every
   never-written chunk in one step. *)
let rec scan t w b =
  let c = Sparse.next_materialized t w in
  if c < 0 then None
  else if c lsl chunk_shift > w then scan t (c lsl chunk_shift) 0
  else if b >= bits_per_word || word t w = 0 then scan t (w + 1) 0
  else if word t w land (1 lsl b) <> 0 then Some ((w * bits_per_word) + b)
  else scan t w (b + 1)

let first_set_from t i =
  let i = max i 0 in
  scan t (i / bits_per_word) (i mod bits_per_word)

let word_members t i buf =
  if i >= 0 then begin
    let w = i / bits_per_word in
    let word = word t w in
    for b = 0 to bits_per_word - 1 do
      if word land (1 lsl b) <> 0 then Vec.push buf ((w * bits_per_word) + b)
    done
  end
