(* The SplitMix64 state lives in an 8-byte buffer, read and written
   unboxed: an [int64] record field boxes every value stored in it. With
   [next] and [mix] inlined into the draws (and [float] into its callers,
   whose float result would otherwise be boxed) a draw allocates nothing
   in an optimised build. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  x mod bound

let[@inline] float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (x /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else begin
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-300 else u in
    int_of_float (Float.log u /. Float.log (1.0 -. p))
  end

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. Float.log u
