(* Nested spans with self-time accounting.

   A span is opened with [enter] and closed with [leave k], where the
   kind [k] may be decided only at close (an allocation is classed by
   which collection it ran). A span's self time is its duration minus
   the durations of the spans nested directly inside it; the same holds
   for the host words it allocated. Self times of all kinds therefore sum
   to the durations of the outermost spans, and none is negative as long
   as the clock is monotonic. The stack is preallocated and grows only on
   overflow, so a span costs two clock reads and no allocation. *)

type t = {
  now : unit -> int;  (* ns *)
  words : unit -> float;  (* host words allocated so far *)
  self_ns : int array;  (* per kind *)
  self_words : float array;
  calls : int array;
  mutable depth : int;
  mutable start : int array;
  mutable child : int array;
  mutable words0 : float array;
  mutable child_words : float array;
}

let create ~kinds ~now ~words =
  {
    now;
    words;
    self_ns = Array.make kinds 0;
    self_words = Array.make kinds 0.0;
    calls = Array.make kinds 0;
    depth = 0;
    start = Array.make 8 0;
    child = Array.make 8 0;
    words0 = Array.make 8 0.0;
    child_words = Array.make 8 0.0;
  }

let grow t =
  let n = 2 * Array.length t.start in
  let ext a z = Array.init n (fun i -> if i < Array.length a then a.(i) else z) in
  t.start <- ext t.start 0;
  t.child <- ext t.child 0;
  t.words0 <- ext t.words0 0.0;
  t.child_words <- ext t.child_words 0.0

let enter t =
  let d = t.depth in
  if d = Array.length t.start then grow t;
  t.child.(d) <- 0;
  t.child_words.(d) <- 0.0;
  t.words0.(d) <- t.words ();
  t.start.(d) <- t.now ();
  t.depth <- d + 1

let leave t k =
  let stop = t.now () in
  let w = t.words () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- d;
  let dur = stop - t.start.(d) in
  let dw = w -. t.words0.(d) in
  t.self_ns.(k) <- t.self_ns.(k) + (dur - t.child.(d));
  t.self_words.(k) <- t.self_words.(k) +. (dw -. t.child_words.(d));
  t.calls.(k) <- t.calls.(k) + 1;
  if d > 0 then begin
    t.child.(d - 1) <- t.child.(d - 1) + dur;
    t.child_words.(d - 1) <- t.child_words.(d - 1) +. dw
  end

(* [span t k f]: [f ()] inside a span of kind [k], closed on exceptions
   too. *)
let span t k f =
  enter t;
  match f () with
  | v ->
      leave t k;
      v
  | exception e ->
      leave t k;
      raise e

let depth t = t.depth

let self_ns t k = t.self_ns.(k)

let self_words t k = t.self_words.(k)

let calls t k = t.calls.(k)

(* Accumulate [src]'s totals into [dst] (same kinds). *)
let add_into ~dst src =
  Array.iteri (fun k v -> dst.self_ns.(k) <- dst.self_ns.(k) + v) src.self_ns;
  Array.iteri
    (fun k v -> dst.self_words.(k) <- dst.self_words.(k) +. v)
    src.self_words;
  Array.iteri (fun k v -> dst.calls.(k) <- dst.calls.(k) + v) src.calls
