type t = { mutable now_ns : int }

let create () = { now_ns = 0 }

let now t = t.now_ns

let advance t ns =
  assert (ns >= 0);
  t.now_ns <- t.now_ns + ns

let ns_to_ms ns = float_of_int ns /. 1e6

let ns_to_s ns = float_of_int ns /. 1e9
