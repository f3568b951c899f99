(* Tests of the benchmark's own machinery: the traced path must not
   change what it measures, span arithmetic must add up, and cell lists
   must follow the seed. *)

open Perfbench_core

let json_of o =
  Telemetry.Json.to_string (Harness.Metrics.outcome_to_json o)

let same_json (c : Cells.cell) =
  let untraced = Harness.Run.exec (Cells.plan c) in
  let traced = (Traced.exec (Traced.create_spans ()) c).Traced.outcome in
  Alcotest.(check bool) (c.Cells.label ^ " completes") true
    (Traced.completed untraced);
  Alcotest.(check string) c.Cells.label (json_of untraced) (json_of traced)

let first_where f w = List.find f (Cells.single_process_cells w)

let test_wrappers_identical () =
  same_json (first_where (fun _ -> true) Cells.Ample_heap);
  same_json (first_where (fun _ -> true) Cells.Tight_heap);
  (* BC under Figure 3 pressure: eviction notices and compactions run
     inside the wrapped alloc *)
  same_json (first_where (fun c -> c.Cells.collector = "BC") Cells.Paging);
  match Harness.Campaign.of_file "sweep_domains.json" with
  | Ok camp -> same_json (List.hd (Cells.of_campaign camp))
  | Error e -> Alcotest.fail e

(* A fake clock and word counter advanced by hand. *)
let fake () =
  let clock = ref 0 and words = ref 0.0 in
  let sp = Spans.create ~kinds:3 ~now:(fun () -> !clock) ~words:(fun () -> !words) in
  (sp, clock, words)

let test_self_time_arithmetic () =
  let sp, clock, words = fake () in
  (* kind 0 [0,100) holding kind 1 [10,40) which holds kind 2 [20,25),
     and kind 2 [60,90) directly under kind 0 *)
  Spans.enter sp;
  clock := 10;
  Spans.enter sp;
  clock := 20;
  words := 4.0;
  Spans.enter sp;
  clock := 25;
  words := 6.0;
  Spans.leave sp 2;
  clock := 40;
  Spans.leave sp 1;
  clock := 60;
  Spans.enter sp;
  clock := 90;
  words := 10.0;
  Spans.leave sp 2;
  clock := 100;
  Spans.leave sp 0;
  Alcotest.(check int) "outer self" (100 - 30 - 30) (Spans.self_ns sp 0);
  Alcotest.(check int) "middle self" (30 - 5) (Spans.self_ns sp 1);
  Alcotest.(check int) "inner self, both spans" (5 + 30) (Spans.self_ns sp 2);
  Alcotest.(check int) "inner calls" 2 (Spans.calls sp 2);
  Alcotest.(check (float 0.0)) "middle words" 4.0 (Spans.self_words sp 1);
  Alcotest.(check (float 0.0)) "inner words" 6.0 (Spans.self_words sp 2);
  Alcotest.(check (float 0.0)) "outer words" 0.0 (Spans.self_words sp 0);
  Alcotest.(check int) "closed" 0 (Spans.depth sp)

(* Random well-nested span trees on a monotonic clock: no self time is
   negative and self times sum to the outermost spans. *)
let test_no_negative_self_time () =
  let st = Random.State.make [| 17 |] in
  for _ = 1 to 200 do
    let sp, clock, _ = fake () in
    let tick () = clock := !clock + Random.State.int st 5 in
    let outer = ref 0 in
    let rec tree depth =
      let t0 = !clock in
      Spans.enter sp;
      tick ();
      if depth < 6 then
        for _ = 1 to Random.State.int st 4 do
          tree (depth + 1);
          tick ()
        done;
      Spans.leave sp (Random.State.int st 3);
      if depth = 0 then outer := !outer + (!clock - t0)
    in
    for _ = 1 to 3 do
      tree 0;
      tick ()
    done;
    let sum = ref 0 in
    for k = 0 to 2 do
      Alcotest.(check bool) "non-negative" true (Spans.self_ns sp k >= 0);
      sum := !sum + Spans.self_ns sp k
    done;
    Alcotest.(check int) "sums to outermost" !outer !sum
  done;
  (* and on a real traced paging cell *)
  let sp = Traced.create_spans () in
  let c = first_where (fun c -> c.Cells.collector = "BC") Cells.Paging in
  let r = Traced.exec sp c in
  let sum = ref 0 in
  for k = 0 to Traced.kinds - 1 do
    Alcotest.(check bool) "traced kind non-negative" true (Spans.self_ns sp k >= 0);
    sum := !sum + Spans.self_ns sp k
  done;
  Alcotest.(check bool) "spans within the timed phases" true
    (!sum <= r.Traced.setup_ns + r.Traced.run_ns);
  Alcotest.(check bool) "notices spanned" true (Spans.calls sp Traced.k_notice > 0)

(* A seed orders a workload's fixed cells: the same seed gives the same
   list, a new seed a different order of the same cells. *)
let seeded w seed =
  let cells = Array.of_list (Cells.single_process_cells w) in
  Array.to_list
    (Array.map
       (fun i -> Harness.Run.Plan.digest (Cells.plan cells.(i)))
       (Cells.order ~seed (Array.length cells)))

let test_seeded_cells () =
  List.iter
    (fun w ->
      let name = Cells.workload_name w in
      Alcotest.(check (list string)) (name ^ " same seed") (seeded w 7) (seeded w 7);
      Alcotest.(check bool) (name ^ " new seed") false (seeded w 7 = seeded w 8);
      Alcotest.(check (list string)) (name ^ " same cells")
        (List.sort compare (seeded w 7))
        (List.sort compare (seeded w 8)))
    [ Cells.Ample_heap; Cells.Tight_heap; Cells.Paging ]

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "exclusive quartiles" [ 2.75; 5.5; 8.25 ]
    [ q1; q2; q3 ];
  (* statistics.quantiles(range(1, 11), n=10)[8] == 9.9 *)
  Alcotest.(check (float 1e-12)) "exclusive p90" 9.9
    (Stats.quantile 0.9 (List.init 10 (fun i -> float_of_int (i + 1))))

(* A time taken while reference passes ran at twice their nominal time
   reads as half of it; the passes before and after count equally. *)
let test_reference_scale () =
  let nominal = int_of_float Reference.nominal_ns in
  Alcotest.(check (float 1e-6)) "twice as slow" 5e6
    (Reference.scale ~before:(2 * nominal) ~after:(2 * nominal) 10_000_000);
  Alcotest.(check (float 1e-6)) "mean of both passes" 5e6
    (Reference.scale ~before:nominal ~after:(3 * nominal) 10_000_000);
  Alcotest.(check int) "a pass does fixed work" Reference.steps (Reference.pass ())

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "wrappers leave Metrics JSON byte-identical" `Quick
            test_wrappers_identical;
          Alcotest.test_case "self-time arithmetic on nested spans" `Quick
            test_self_time_arithmetic;
          Alcotest.test_case "no self time is negative" `Quick
            test_no_negative_self_time;
          Alcotest.test_case "seed determines the cell list" `Quick
            test_seeded_cells;
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
          Alcotest.test_case "reference scaling" `Quick test_reference_scale;
        ] );
    ]
