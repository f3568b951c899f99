type t = { mutable now_ns : int }

let create () = { now_ns = 0 }

let now t = t.now_ns

let advance t ns =
  assert (ns >= 0);
  t.now_ns <- t.now_ns + ns

(* Event skipping: [skip t ~events:n ~cost_ns] is exactly [n] calls to
   [advance t cost_ns] folded into one addition, so a batch of uniform
   events can fast-forward virtual time in O(1). *)
let skip t ~events ~cost_ns =
  assert (events >= 0 && cost_ns >= 0);
  t.now_ns <- t.now_ns + (events * cost_ns)

let ns_to_ms ns = float_of_int ns /. 1e6

let ns_to_s ns = float_of_int ns /. 1e9
