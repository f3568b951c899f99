module Vec = Repro_util.Vec
module Bitset = Repro_util.Bitset
module Sparse = Repro_util.Sparse
module Rng = Repro_util.Rng
module Summary = Repro_util.Summary

let check = Alcotest.check

(* ----------------------------------------------------------------- *)
(* Vec                                                                *)

let test_vec_basic () =
  let v = Vec.create () in
  check Alcotest.bool "fresh empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check Alcotest.int "length" 3 (Vec.length v);
  check Alcotest.int "get 0" 1 (Vec.get v 0);
  check Alcotest.int "get 2" 3 (Vec.get v 2);
  Vec.set v 1 42;
  check Alcotest.int "set/get" 42 (Vec.get v 1);
  check Alcotest.int "top" 3 (Vec.top v);
  check Alcotest.int "pop" 3 (Vec.pop v);
  check Alcotest.int "length after pop" 2 (Vec.length v)

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  check Alcotest.int "grown length" 1000 (Vec.length v);
  for i = 0 to 999 do
    assert (Vec.get v i = i)
  done

type cell = { key : int; value : int }

(* Doubling past 256 slots must not run a minor collection. OCaml's
   [Array.make] runs one before it fills an array of more than 256 words
   with a young block, so growing by filling with the element being
   pushed forced one at each doubling of a vector of fresh records. *)
let test_vec_growth_no_minor_gc () =
  let v = Vec.create () in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for i = 0 to 999 do
    Vec.push v { key = i; value = -i }
  done;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  check Alcotest.int "minor collections while pushing" 0 (after - before);
  check Alcotest.int "last pushed" (-999) (Vec.get v 999).value;
  check Alcotest.int "first kept" 0 (Vec.get v 0).key

let test_vec_swap_remove () =
  let v = Vec.of_list [ 10; 20; 30; 40 ] in
  let removed = Vec.swap_remove v 1 in
  check Alcotest.int "removed" 20 removed;
  check Alcotest.int "length" 3 (Vec.length v);
  check Alcotest.int "last moved in" 40 (Vec.get v 1)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 1 out of bounds (len 1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty")
    (fun () ->
      ignore (Vec.pop v);
      ignore (Vec.pop v))

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  let sum = Vec.fold_left ( + ) 0 v in
  check Alcotest.int "fold" 6 sum;
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check Alcotest.int "iteri count" 3 (List.length !acc);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 2) v);
  check Alcotest.bool "not exists" false (Vec.exists (fun x -> x = 9) v);
  check (Alcotest.list Alcotest.int) "to_list" [ 1; 2; 3 ] (Vec.to_list v)

let test_vec_sort () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  Vec.sort compare v;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let test_vec_clear () =
  let v = Vec.of_list [ 1; 2 ] in
  Vec.clear v;
  check Alcotest.bool "cleared" true (Vec.is_empty v);
  Vec.push v 9;
  check Alcotest.int "reusable" 9 (Vec.get v 0)

(* ----------------------------------------------------------------- *)
(* Bitset                                                             *)

let test_bitset_basic () =
  let b = Bitset.create () in
  check Alcotest.bool "fresh" false (Bitset.mem b 5);
  Bitset.set b 5;
  check Alcotest.bool "set" true (Bitset.mem b 5);
  check Alcotest.int "cardinal" 1 (Bitset.cardinal b);
  Bitset.clear b 5;
  check Alcotest.bool "cleared" false (Bitset.mem b 5);
  check Alcotest.int "cardinal 0" 0 (Bitset.cardinal b)

let test_bitset_growth () =
  let b = Bitset.create () in
  Bitset.set b 100_000;
  check Alcotest.bool "big index" true (Bitset.mem b 100_000);
  check Alcotest.bool "mem beyond capacity" false (Bitset.mem b 10_000_000)

let test_bitset_iter () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 3; 77; 500 ];
  let collected = ref [] in
  Bitset.iter (fun i -> collected := i :: !collected) b;
  check (Alcotest.list Alcotest.int) "iter asc" [ 3; 77; 500 ]
    (List.rev !collected)

let test_bitset_first_set_from () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 10; 64; 100 ];
  check (Alcotest.option Alcotest.int) "from 0" (Some 10)
    (Bitset.first_set_from b 0);
  check (Alcotest.option Alcotest.int) "from 11" (Some 64)
    (Bitset.first_set_from b 11);
  check (Alcotest.option Alcotest.int) "from 101" None
    (Bitset.first_set_from b 101)

let test_bitset_word_peers () =
  let b = Bitset.create () in
  (* 0..62 share a 63-bit word *)
  List.iter (Bitset.set b) [ 1; 5; 62; 63 ];
  let peers = Bitset.word_peers b 1 in
  check (Alcotest.list Alcotest.int) "peers of word 0" [ 1; 5; 62 ] peers;
  check (Alcotest.list Alcotest.int) "peers of word 1" [ 63 ]
    (Bitset.word_peers b 63)

let test_bitset_reset () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 1; 2; 3 ];
  Bitset.reset b;
  check Alcotest.int "reset" 0 (Bitset.cardinal b)

(* The set is chunked: giant indices must cost memory proportional to
   the chunks actually written, and clears on never-written regions must
   stay no-ops rather than materialising anything. *)
let test_bitset_giant_sparse () =
  let b = Bitset.create () in
  let giant = 1 lsl 30 in
  Bitset.set b giant;
  Bitset.set b (giant + 1);
  Bitset.set b 2;
  check Alcotest.bool "giant member" true (Bitset.mem b giant);
  check Alcotest.int "cardinal across the gap" 3 (Bitset.cardinal b);
  (* clear in the untouched middle: must not allocate a chunk or raise *)
  Bitset.clear b (giant / 2);
  check Alcotest.int "no-op clear" 3 (Bitset.cardinal b);
  let collected = ref [] in
  Bitset.iter (fun i -> collected := i :: !collected) b;
  check (Alcotest.list Alcotest.int) "iter ascending across the gap"
    [ 2; giant; giant + 1 ]
    (List.rev !collected);
  check (Alcotest.option Alcotest.int) "first_set_from jumps the gap"
    (Some giant)
    (Bitset.first_set_from b 3);
  Bitset.clear b giant;
  check (Alcotest.option Alcotest.int) "next after clear" (Some (giant + 1))
    (Bitset.first_set_from b 3)

(* ----------------------------------------------------------------- *)
(* Rng                                                                *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    assert (x >= 0 && x < 17);
    let f = Rng.float r 2.5 in
    assert (f >= 0.0 && f < 2.5)
  done

let test_rng_split () =
  let r = Rng.create 9 in
  let s = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int r 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int s 1_000_000) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

(* Known answers, drawn in this order from a fresh generator per seed.
   Comparing two same-seed streams with each other cannot catch a change
   to the stream itself; these pin it. *)
type rng_kat = {
  seed : int;
  ints : int list;  (** [Rng.int r max_int]: every drawn bit *)
  small : int list;  (** [Rng.int r 1000] *)
  floats : int64 list;  (** [Int64.bits_of_float (Rng.float r 1.0)] *)
  bools : bool list;
  split : int list;  (** [Rng.int s max_int] for [s = Rng.split r] *)
  after : int;  (** [Rng.int r max_int] once more, after the split *)
}

let rng_kats =
  [
    {
      seed = 0;
      ints =
        [ 4073552104164651883; 1990071630548588925; 121904254867886419;
          4477402844195135611 ];
      small = [ 686; 522; 728; 735 ];
      floats = [ 0x3fcf72bc4820e4c4L; 0x3fee77091186d196L; 0x3fd95fbb374f2c4eL ];
      bools = [ false; true; true; true; true; true ];
      split = [ 198626676048612474; 4546944236476200763; 3856862447703744085 ];
      after = 943990553302029273;
    };
    {
      seed = 7;
      ints =
        [ 1797772400223093621; 77422343148738951; 4154025436703902336;
          2688291482075368050 ];
      small = [ 918; 76; 949; 295 ];
      floats = [ 0x3fc12f603d4ca830L; 0x3fda70e89da21e54L; 0x3fba82e79b05b5f8L ];
      bools = [ false; false; false; false; false; true ];
      split = [ 2387887439994971109; 2067882943164469713; 81580953367903902 ];
      after = 2855189820129879949;
    };
    {
      seed = 109;
      ints =
        [ 3227888863561052983; 4007776195768911147; 2832931844677906573;
          2735710451711733828 ];
      small = [ 794; 690; 149; 723 ];
      floats = [ 0x3fe83b90e4c79c89L; 0x3fb99485b48a8b48L; 0x3fe85a0e7ec0fcd1L ];
      bools = [ true; false; true; false; true; true ];
      split = [ 1347595563841563003; 1256647647818350321; 2270874895998979190 ];
      after = 694031968417136068;
    };
  ]

let test_rng_known_answers () =
  List.iter
    (fun k ->
      let r = Rng.create k.seed in
      let draw n f = List.init n (fun _ -> f ()) in
      let name what = Printf.sprintf "seed %d %s" k.seed what in
      let ints = Alcotest.(list int) in
      check ints (name "int max_int") k.ints
        (draw (List.length k.ints) (fun () -> Rng.int r max_int));
      check ints (name "int 1000") k.small
        (draw (List.length k.small) (fun () -> Rng.int r 1000));
      check Alcotest.(list int64) (name "float bits") k.floats
        (draw (List.length k.floats) (fun () ->
             Int64.bits_of_float (Rng.float r 1.0)));
      check Alcotest.(list bool) (name "bool") k.bools
        (draw (List.length k.bools) (fun () -> Rng.bool r));
      let s = Rng.split r in
      check ints (name "split stream") k.split
        (draw (List.length k.split) (fun () -> Rng.int s max_int));
      check Alcotest.int (name "after split") k.after (Rng.int r max_int))
    rng_kats

let test_rng_geometric () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric r 0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* mean of geometric(0.5) failures = 1.0 *)
  check Alcotest.bool "geometric mean near 1" true (mean > 0.8 && mean < 1.2)

(* ----------------------------------------------------------------- *)
(* Summary                                                            *)

let test_summary () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Summary.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Summary.mean []);
  check (Alcotest.float 1e-6) "geomean" 2.0 (Summary.geomean [ 1.0; 2.0; 4.0 ]);
  check (Alcotest.float 1e-9) "max" 4.0 (Summary.max [ 1.0; 4.0; 2.0 ]);
  check (Alcotest.float 1e-9) "sum" 7.0 (Summary.sum [ 3.0; 4.0 ]);
  check (Alcotest.float 1e-9) "p50" 2.0
    (Summary.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "p100" 3.0
    (Summary.percentile 1.0 [ 3.0; 1.0; 2.0 ]);
  (* index round(p(n-1)), not nearest-rank: with n = 4 the two differ *)
  check (Alcotest.float 1e-9) "p50 of four" 3.0
    (Summary.percentile 0.5 [ 4.0; 1.0; 3.0; 2.0 ])

(* ----------------------------------------------------------------- *)
(* Properties                                                         *)

let prop_vec_model =
  QCheck.Test.make ~name:"vec behaves like a list"
    ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && Array.to_list (Vec.to_array v) = xs)

let prop_vec_push_pop =
  QCheck.Test.make ~name:"vec push then pop returns pushed"
    ~count:200
    QCheck.(pair (small_list small_int) small_int)
    (fun (xs, x) ->
      let v = Vec.of_list xs in
      Vec.push v x;
      Vec.pop v = x && Vec.to_list v = xs)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a reference set"
    ~count:200
    QCheck.(small_list (pair bool (int_bound 500)))
    (fun ops ->
      let b = Bitset.create () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.set b i;
            Hashtbl.replace reference i ()
          end
          else begin
            Bitset.clear b i;
            Hashtbl.remove reference i
          end)
        ops;
      Hashtbl.length reference = Bitset.cardinal b
      && List.for_all
           (fun (_, i) -> Bitset.mem b i = Hashtbl.mem reference i)
           ops)

(* Sparse against a hash table: random materialisations, writes and reads
   over small, giant (2^30 and up) and negative keys. *)
type sparse_op = Materialize of int | Write of int * int | Read of int

let sparse_shift = 12

let sparse_op =
  let open QCheck.Gen in
  let key =
    oneof
      [
        int_range 0 20_000;
        map (( + ) (1 lsl 30)) (int_range 0 20_000);
        int_range (-20_000) (-1);
      ]
  in
  QCheck.make
    ~print:(function
      | Materialize k -> Printf.sprintf "materialize %d" k
      | Write (k, v) -> Printf.sprintf "write %d %d" k v
      | Read k -> Printf.sprintf "read %d" k)
    (oneof
       [
         map (fun k -> Materialize k) key;
         map2 (fun k v -> Write (k, v)) key (int_range 1 1000);
         map (fun k -> Read k) key;
       ])

let prop_sparse_model =
  QCheck.Test.make ~name:"sparse agrees with a hash table" ~count:200
    QCheck.(small_list sparse_op)
    (fun ops ->
      let size = 1 lsl sparse_shift in
      let sentinel = Array.make size 0 in
      let fresh () = Array.make size 0 in
      let t = Sparse.create ~shift:sparse_shift ~sentinel in
      let values = Hashtbl.create 16 and chunks = Hashtbl.create 16 in
      let expected k = Option.value (Hashtbl.find_opt values k) ~default:0 in
      let read k = (Sparse.chunk t k).(k land (size - 1)) in
      let step = function
        | Materialize k | Write (k, _) when k < 0 -> (
            match Sparse.materialize t k fresh with
            | _ -> false
            | exception Invalid_argument _ -> true)
        | Materialize k ->
            ignore (Sparse.materialize t k fresh : int array);
            Hashtbl.replace chunks (k lsr sparse_shift) ();
            true
        | Write (k, v) ->
            (Sparse.materialize t k fresh).(k land (size - 1)) <- v;
            Hashtbl.replace values k v;
            Hashtbl.replace chunks (k lsr sparse_shift) ();
            true
        | Read k -> read k = expected k
      in
      let key_of = function Materialize k | Write (k, _) | Read k -> k in
      let consistent k =
        read k = expected k
        && Sparse.is_materialized t k
           = (k >= 0 && Hashtbl.mem chunks (k lsr sparse_shift))
      in
      let steps_ok =
        List.for_all
          (fun op ->
            step op
            && Array.for_all (fun x -> x = 0) sentinel
            && consistent (key_of op))
          ops
      in
      let materialized =
        List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) chunks [])
      in
      let walked = ref [] in
      Sparse.iter t (fun c _ -> walked := c :: !walked);
      let next_from k =
        let c = if k < 0 then 0 else k lsr sparse_shift in
        match List.find_opt (fun m -> m >= c) materialized with
        | Some m -> m
        | None -> -1
      in
      steps_ok
      && List.rev !walked = materialized
      && Sparse.materialized t = List.length materialized
      && Hashtbl.fold (fun k v ok -> ok && read k = v) values true
      && List.for_all
           (fun op ->
             let k = key_of op in
             Sparse.next_materialized t k = next_from k)
           ops)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng ints within bounds" ~count:200
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "growth" `Quick test_vec_growth;
          Alcotest.test_case "growth runs no minor gc" `Quick
            test_vec_growth_no_minor_gc;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          Alcotest.test_case "sort" `Quick test_vec_sort;
          Alcotest.test_case "clear" `Quick test_vec_clear;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "growth" `Quick test_bitset_growth;
          Alcotest.test_case "iter" `Quick test_bitset_iter;
          Alcotest.test_case "first_set_from" `Quick test_bitset_first_set_from;
          Alcotest.test_case "word_peers" `Quick test_bitset_word_peers;
          Alcotest.test_case "reset" `Quick test_bitset_reset;
          Alcotest.test_case "giant sparse" `Quick test_bitset_giant_sparse;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
        ] );
      ("summary", [ Alcotest.test_case "stats" `Quick test_summary ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_vec_model;
            prop_vec_push_pop;
            prop_bitset_model;
            prop_sparse_model;
            prop_rng_int_bounds;
          ] );
    ]
