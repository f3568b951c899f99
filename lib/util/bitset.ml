(* Two-level sparse bit set.

   The flat word array became a liability once address spaces moved to
   page numbers near 2^30: a single [set] at a giant index would allocate
   gigabytes of zeros. Words are now grouped into fixed-size chunks hanging
   off a root array; a chunk is materialised the first time a bit inside it
   is set. Never-touched chunks all alias one shared all-zero sentinel, so
   reads below capacity stay branch-free array indexing and cost nothing in
   memory. The sentinel is never written: every mutation goes through
   [materialize] first ([clear] and [reset] on a sentinel chunk are no-ops
   by construction — there is nothing to clear). *)

let bits_per_word = 63
(* OCaml ints: use 63 usable bits per word on 64-bit platforms. *)

let chunk_words = 512
(* 512 words x 63 bits = 32256 bits (~4 KB) per materialised chunk. *)

let chunk_bits = chunk_words * bits_per_word

let zero_chunk : int array = Array.make chunk_words 0
(* Shared sentinel for never-touched chunks. MUST never be mutated. *)

type t = { mutable chunks : int array array }

let create ?(capacity = 0) () =
  { chunks = Array.make (max 1 ((capacity / chunk_bits) + 1)) zero_chunk }

(* Grow the root so chunk index [c] is addressable (still sentinel). *)
let ensure_root t c =
  if c >= Array.length t.chunks then begin
    let len' = max (c + 1) (2 * Array.length t.chunks) in
    let chunks' = Array.make len' zero_chunk in
    Array.blit t.chunks 0 chunks' 0 (Array.length t.chunks);
    t.chunks <- chunks'
  end

let materialize t c =
  ensure_root t c;
  let chunk = t.chunks.(c) in
  if chunk == zero_chunk then begin
    let fresh = Array.make chunk_words 0 in
    t.chunks.(c) <- fresh;
    fresh
  end
  else chunk

let set t i =
  if i < 0 then invalid_arg "Bitset.set: negative index";
  let w = i / bits_per_word in
  let chunk = materialize t (w / chunk_words) in
  let cw = w mod chunk_words in
  chunk.(cw) <- chunk.(cw) lor (1 lsl (i mod bits_per_word))

let clear t i =
  if i >= 0 then begin
    let w = i / bits_per_word in
    let c = w / chunk_words in
    if c < Array.length t.chunks then begin
      let chunk = t.chunks.(c) in
      if chunk != zero_chunk then begin
        let cw = w mod chunk_words in
        chunk.(cw) <- chunk.(cw) land lnot (1 lsl (i mod bits_per_word))
      end
    end
  end

let mem t i =
  i >= 0
  &&
  let w = i / bits_per_word in
  let c = w / chunk_words in
  c < Array.length t.chunks
  && t.chunks.(c).(w mod chunk_words) land (1 lsl (i mod bits_per_word)) <> 0

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x lsr 1) (acc + (x land 1)) in
  loop x 0

let cardinal t =
  let acc = ref 0 in
  Array.iter
    (fun chunk ->
      if chunk != zero_chunk then
        Array.iter (fun w -> acc := !acc + popcount w) chunk)
    t.chunks;
  !acc

let reset t =
  (* Drop materialised chunks back to the sentinel, keeping root capacity. *)
  Array.fill t.chunks 0 (Array.length t.chunks) zero_chunk

let iter f t =
  Array.iteri
    (fun c chunk ->
      if chunk != zero_chunk then
        let base = c * chunk_words in
        Array.iteri
          (fun cw word ->
            if word <> 0 then
              for b = 0 to bits_per_word - 1 do
                if word land (1 lsl b) <> 0 then
                  f (((base + cw) * bits_per_word) + b)
              done)
          chunk)
    t.chunks

let first_set_from t i =
  let i = max i 0 in
  let nchunks = Array.length t.chunks in
  let word_at w = t.chunks.(w / chunk_words).(w mod chunk_words) in
  let rec scan_word w b =
    let c = w / chunk_words in
    if c >= nchunks then None
    else if t.chunks.(c) == zero_chunk then
      (* whole chunk empty: jump to the next chunk boundary *)
      scan_word ((c + 1) * chunk_words) 0
    else if b >= bits_per_word || word_at w = 0 then scan_word (w + 1) 0
    else if word_at w land (1 lsl b) <> 0 then Some ((w * bits_per_word) + b)
    else scan_word w (b + 1)
  in
  scan_word (i / bits_per_word) (i mod bits_per_word)

let word_peers t i =
  let w = i / bits_per_word in
  let c = w / chunk_words in
  if c >= Array.length t.chunks then []
  else begin
    let word = t.chunks.(c).(w mod chunk_words) in
    let acc = ref [] in
    for b = bits_per_word - 1 downto 0 do
      if word land (1 lsl b) <> 0 then acc := ((w * bits_per_word) + b) :: !acc
    done;
    !acc
  end
