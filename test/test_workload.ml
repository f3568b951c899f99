module Mini = Test_support.Mini
module Spec = Workload.Spec

let check = Alcotest.check

let test_spec_catalog () =
  check Alcotest.int "nine benchmarks" 9
    (List.length Workload.Catalog.batch_specs);
  check Alcotest.int "scale" 8 Workload.Catalog.scale;
  List.iter
    (fun spec ->
      check Alcotest.bool (spec.Spec.name ^ " volumes positive") true
        (spec.Spec.total_alloc_bytes > 0
        && spec.Spec.immortal_bytes > 0
        && spec.Spec.window_bytes > 0
        && spec.Spec.paper_min_heap_bytes > 0);
      check Alcotest.bool (spec.Spec.name ^ " live below min heap") true
        (Spec.live_estimate_bytes spec < spec.Spec.paper_min_heap_bytes))
    Workload.Catalog.batch_specs

let test_registry () =
  let all = Workload.Catalog.all in
  check Alcotest.int "both families registered" 15 (List.length all);
  check Alcotest.int "six serving workloads" 6
    (List.length Workload.Catalog.serving_specs);
  (* names are unique and find_opt agrees with the list *)
  let names = Workload.Catalog.names () in
  check Alcotest.int "names cover the registry" (List.length all)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (i : Workload.Catalog.info) ->
      match Workload.Catalog.find_opt i.Workload.Catalog.name with
      | Some found ->
          check Alcotest.string
            (i.Workload.Catalog.name ^ " found")
            i.Workload.Catalog.name found.Workload.Catalog.name;
          check Alcotest.bool
            (i.Workload.Catalog.name ^ " family consistent")
            true
            (found.Workload.Catalog.family
            = Workload.Catalog.family_of_params found.Workload.Catalog.params)
      | None -> Alcotest.failf "%s not found" i.Workload.Catalog.name)
    all

let test_find () =
  (match Workload.Catalog.find_opt "pseudoJBB" with
  | Some i ->
      check Alcotest.string "find" "pseudoJBB" i.Workload.Catalog.name;
      check Alcotest.bool "batch family" true
        (i.Workload.Catalog.family = Workload.Catalog.Batch)
  | None -> Alcotest.fail "pseudoJBB not found");
  (match Workload.Catalog.find_opt "srv_flash" with
  | Some i ->
      check Alcotest.bool "serving family" true
        (i.Workload.Catalog.family = Workload.Catalog.Serving)
  | None -> Alcotest.fail "srv_flash not found");
  check Alcotest.bool "missing is None" true
    (Workload.Catalog.find_opt "nope" = None)

(* The Benchmarks shim is gone; the catalog is now the only enumeration
   and lookup path, so pin the nine Table 1 specs to it: exact names in
   Table 1 order, and each catalog entry physically equal to the named
   Benchmarks value old call sites migrated from. *)
let table1 =
  [
    ("_201_compress", Workload.Benchmarks.compress);
    ("_202_jess", Workload.Benchmarks.jess);
    ("_205_raytrace", Workload.Benchmarks.raytrace);
    ("_209_db", Workload.Benchmarks.db);
    ("_213_javac", Workload.Benchmarks.javac);
    ("_228_jack", Workload.Benchmarks.jack);
    ("ipsixql", Workload.Benchmarks.ipsixql);
    ("jython", Workload.Benchmarks.jython);
    ("pseudoJBB", Workload.Benchmarks.pseudojbb);
  ]

let test_catalog_pins_table1 () =
  check
    Alcotest.(list string)
    "batch specs are the nine, in Table 1 order"
    (List.map fst table1)
    (List.map (fun (s : Spec.t) -> s.Spec.name) Workload.Catalog.batch_specs);
  List.iter
    (fun (name, spec) ->
      check Alcotest.bool (name ^ " batch_specs holds the named value") true
        (List.memq spec Workload.Catalog.batch_specs);
      match Workload.Catalog.find_opt name with
      | Some info -> (
          match info.Workload.Catalog.params with
          | Workload.Catalog.Batch_spec s ->
              check Alcotest.bool (name ^ " find_opt agrees") true (s == spec)
          | Workload.Catalog.Serving_spec _ ->
              Alcotest.fail (name ^ " registered as serving"))
      | None -> Alcotest.fail (name ^ " missing from catalog"))
    table1

let test_scale_volume () =
  let s = Workload.Benchmarks.jess in
  let half = Spec.scale_volume s 0.5 in
  check Alcotest.int "half volume" (s.Spec.total_alloc_bytes / 2)
    half.Spec.total_alloc_bytes;
  check Alcotest.int "live set untouched" s.Spec.immortal_bytes
    half.Spec.immortal_bytes;
  (* volume never shrinks below the start-up allocation *)
  let tiny = Spec.scale_volume s 0.0000001 in
  check Alcotest.bool "floor at immortal" true
    (tiny.Spec.total_alloc_bytes >= s.Spec.immortal_bytes)

let test_mutator_runs_to_volume () =
  let _, c = Mini.collector ~heap_bytes:(1024 * 1024) "GenMS" in
  let spec = Mini.spec () in
  let mutator = Workload.Mutator.create spec c in
  check Alcotest.bool "not finished at start" false
    (Workload.Mutator.finished mutator);
  Mini.drive mutator;
  check Alcotest.bool "finished" true (Workload.Mutator.finished mutator);
  check Alcotest.bool "allocated at least the volume" true
    (Workload.Mutator.allocated_bytes mutator >= spec.Spec.total_alloc_bytes);
  check Alcotest.bool "ops counted" true (Workload.Mutator.ops_done mutator > 0)

let test_mutator_deterministic () =
  let run () =
    let m, c = Mini.collector ~heap_bytes:(1024 * 1024) "BC" in
    let mutator = Workload.Mutator.create (Mini.spec ~seed:7 ()) c in
    Mini.drive mutator;
    (Workload.Mutator.ops_done mutator, Vmsim.Clock.now m.Mini.clock)
  in
  check Alcotest.bool "deterministic" true (run () = run ())

let test_mutator_seed_sensitivity () =
  let run seed =
    let _, c = Mini.collector ~heap_bytes:(1024 * 1024) "GenMS" in
    let mutator = Workload.Mutator.create (Mini.spec ~seed ()) c in
    Mini.drive mutator;
    Workload.Mutator.ops_done mutator
  in
  check Alcotest.bool "different seeds differ" true (run 1 <> run 2)

let test_mutator_survives_tiny_heap_startup () =
  (* regression: collections during Mutator.create must not lose the
     window segments (roots are installed before allocating) *)
  let _, c = Mini.collector ~heap_bytes:(480 * 1024) "GenMS" in
  let spec = { (Mini.spec ~volume:400_000 ()) with Workload.Spec.immortal_bytes = 150_000 } in
  let mutator = Workload.Mutator.create spec c in
  Mini.drive mutator;
  check Alcotest.bool "completed" true (Workload.Mutator.finished mutator)

let test_step_slices () =
  let _, c = Mini.collector "GenMS" in
  let mutator = Workload.Mutator.create (Mini.spec ()) c in
  let before = Workload.Mutator.ops_done mutator in
  ignore (Workload.Mutator.step mutator ~ops:10);
  check Alcotest.int "exactly a slice" (before + 10)
    (Workload.Mutator.ops_done mutator)

let test_pressure_schedules () =
  let module P = Workload.Pressure in
  check Alcotest.int "none" 0
    (P.due_pages P.None_ ~now_ns:0 ~start_ns:0 ~progress:1.0);
  let steady = P.Steady { after_progress = 0.5; pin_pages = 100 } in
  check Alcotest.int "steady before" 0
    (P.due_pages steady ~now_ns:0 ~start_ns:0 ~progress:0.4);
  check Alcotest.int "steady after" 100
    (P.due_pages steady ~now_ns:0 ~start_ns:0 ~progress:0.6);
  let ramp =
    P.Ramp
      {
        after_progress = 0.0;
        initial_pages = 10;
        pages_per_step = 5;
        step_ns = 1000;
        max_pages = 30;
      }
  in
  check Alcotest.int "ramp initial" 10
    (P.due_pages ramp ~now_ns:0 ~start_ns:0 ~progress:0.5);
  check Alcotest.int "ramp mid" 20
    (P.due_pages ramp ~now_ns:2000 ~start_ns:0 ~progress:0.5);
  check Alcotest.int "ramp capped" 30
    (P.due_pages ramp ~now_ns:100_000 ~start_ns:0 ~progress:0.5)

let test_signalmem_pins () =
  let m = Mini.machine ~frames:256 () in
  let sm =
    Workload.Signalmem.create m.Mini.vmm
      (Heapsim.Heap.address_space m.Mini.heap)
  in
  Workload.Signalmem.pin_pages sm 50;
  check Alcotest.int "pinned" 50 (Workload.Signalmem.pinned_pages sm);
  check Alcotest.int "vmm agrees" 50 (Vmsim.Vmm.pinned_count m.Mini.vmm);
  Workload.Signalmem.unpin_all sm;
  check Alcotest.int "unpinned" 0 (Vmsim.Vmm.pinned_count m.Mini.vmm)

let test_spec_file_roundtrip () =
  let spec = { (Mini.spec ()) with Workload.Spec.name = "roundtrip" } in
  let path = Filename.temp_file "bcgc" ".spec" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Spec.to_file spec path;
      let loaded = Workload.Spec.of_file path in
      check Alcotest.string "name" spec.Workload.Spec.name
        loaded.Workload.Spec.name;
      check Alcotest.int "alloc" spec.Workload.Spec.total_alloc_bytes
        loaded.Workload.Spec.total_alloc_bytes;
      check Alcotest.int "immortal" spec.Workload.Spec.immortal_bytes
        loaded.Workload.Spec.immortal_bytes;
      check (Alcotest.float 1e-6) "long_frac" spec.Workload.Spec.long_frac
        loaded.Workload.Spec.long_frac)

let test_spec_file_defaults_and_comments () =
  let path = Filename.temp_file "bcgc" ".spec" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# a comment\nname = partial\nmean_size = 72\n";
      close_out oc;
      let spec = Workload.Spec.of_file path in
      check Alcotest.string "name" "partial" spec.Workload.Spec.name;
      check Alcotest.int "mean size" 72 spec.Workload.Spec.mean_size;
      check Alcotest.bool "defaults filled" true
        (spec.Workload.Spec.total_alloc_bytes > 0))

let test_spec_file_rejects_unknown_key () =
  let rejects contents =
    let path = Filename.temp_file "bcgc" ".spec" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        match Workload.Spec.of_file path with
        | (_ : Workload.Spec.t) -> None
        | exception Failure msg -> Some msg)
  in
  check Alcotest.bool "unknown key rejected" true
    (rejects "bogus_key = 1\n" <> None);
  (* caught here, not as an Invalid_argument deep inside the run *)
  check
    Alcotest.(option string)
    "non-positive max_size rejected"
    (Some "Spec.of_file: max_size wants a positive integer")
    (rejects "max_size = 0\n")

(* ----------------------------------------------------------------- *)
(* Traces                                                             *)

let record_trace ?(volume = 150_000) () =
  let _, c = Mini.collector ~heap_bytes:(2 * 1024 * 1024) "MarkSweep" in
  let trace = Workload.Trace.create () in
  let mutator = Workload.Mutator.create ~trace (Mini.spec ~volume ()) c in
  Mini.drive mutator;
  (trace, Workload.Mutator.allocated_bytes mutator)

let test_trace_roundtrip () =
  let trace, _ = record_trace () in
  let path = Filename.temp_file "bcgc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace.save trace path;
      let loaded = Workload.Trace.load path in
      check Alcotest.int "length preserved" (Workload.Trace.length trace)
        (Workload.Trace.length loaded);
      for i = 0 to Workload.Trace.length trace - 1 do
        assert (Workload.Trace.nth trace i = Workload.Trace.nth loaded i)
      done)

let test_trace_replay_equivalent () =
  let trace, recorded_bytes = record_trace () in
  (* replay against a different collector: same allocation volume, same
     surviving object count, and a sound heap *)
  let m, c = Mini.collector ~heap_bytes:(1024 * 1024) "BC" in
  Workload.Trace.replay trace c;
  check Alcotest.bool "allocation volume preserved" true
    (Gc_common.Gc_stats.allocated_bytes c.Gc_common.Collector.stats
    >= recorded_bytes);
  Test_support.Oracle.check m.Mini.heap;
  c.Gc_common.Collector.check_invariants ()

let test_trace_replay_all_collectors_agree () =
  let trace, _ = record_trace ~volume:80_000 () in
  let live name =
    let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
    Workload.Trace.replay trace c;
    (* after one forced full collection, the live set is exactly the
       reachable set, identical for every collector *)
    c.Gc_common.Collector.collect ();
    c.Gc_common.Collector.collect ();
    Test_support.Oracle.reachable_count m.Mini.heap
  in
  let reference = live "MarkSweep" in
  List.iter
    (fun name ->
      check Alcotest.int (name ^ " same reachable set") reference (live name))
    [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ]

let test_trace_load_rejects_garbage () =
  let path = Filename.temp_file "bcgc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "A 12 0 1\nnot an event\n";
      close_out oc;
      check Alcotest.bool "malformed rejected" true
        (match Workload.Trace.load path with
        | (_ : Workload.Trace.t) -> false
        | exception Failure _ -> true))

(* random *valid* traces (writes/accesses only reference born objects,
   roots tracked) replay soundly on any collector *)
let prop_random_trace_replays =
  QCheck.Test.make ~name:"random valid traces replay soundly" ~count:25
    QCheck.(pair (int_range 0 5) (small_list (pair (int_bound 4) (pair small_nat small_nat))))
    (fun (collector_idx, ops) ->
      let trace = Workload.Trace.create () in
      let born = ref 0 in
      let pick x = if !born = 0 then None else Some (x mod !born) in
      (* always start with one rooted object *)
      Workload.Trace.record trace (Workload.Trace.Alloc { size = 16; nrefs = 2; array = false });
      incr born;
      Workload.Trace.record trace (Workload.Trace.Root 0);
      List.iter
        (fun (op, (a, b)) ->
          match op with
          | 0 ->
              Workload.Trace.record trace
                (Workload.Trace.Alloc
                   { size = 8 + (a mod 512); nrefs = b mod 4; array = a mod 2 = 0 });
              incr born
          | 1 -> (
              match (pick a, pick b) with
              | Some src, Some target ->
                  Workload.Trace.record trace
                    (Workload.Trace.Write { src; field = 0; target })
              | _ -> ())
          | 2 -> (
              match pick a with
              | Some obj -> Workload.Trace.record trace (Workload.Trace.Access obj)
              | None -> ())
          | 3 -> (
              match pick a with
              | Some obj -> Workload.Trace.record trace (Workload.Trace.Root obj)
              | None -> ())
          | _ -> (
              match pick a with
              | Some obj when obj > 0 ->
                  (* never unroot object 0: keep one anchor *)
                  Workload.Trace.record trace (Workload.Trace.Unroot obj)
              | _ -> ()))
        ops;
      let name =
        List.nth [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "MarkSweep"; "SemiSpace" ]
          collector_idx
      in
      let m, c = Mini.collector ~heap_bytes:(1024 * 1024) name in
      (* writes may hit arbitrary fields; cap at field 0 which every
         nrefs>=1 object has -- use nrefs>=1 objects only for writes *)
      (try Workload.Trace.replay trace c
       with Invalid_argument _ -> () (* field out of range: acceptable reject *));
      Test_support.Oracle.check m.Mini.heap;
      true)

let prop_mutator_any_seed_sound =
  QCheck.Test.make ~name:"mutator sound for any seed" ~count:15
    QCheck.(int_bound 100_000)
    (fun seed ->
      let m, c = Mini.collector ~heap_bytes:(1024 * 1024) "GenCopy" in
      let mutator = Workload.Mutator.create (Mini.spec ~volume:200_000 ~seed ()) c in
      Mini.drive mutator;
      Test_support.Oracle.check m.Mini.heap;
      true)

let () =
  Alcotest.run "workload"
    [
      ( "specs",
        [
          Alcotest.test_case "catalog" `Quick test_spec_catalog;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "catalog pins Table 1" `Quick
            test_catalog_pins_table1;
          Alcotest.test_case "scale_volume" `Quick test_scale_volume;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "runs to volume" `Quick test_mutator_runs_to_volume;
          Alcotest.test_case "deterministic" `Quick test_mutator_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_mutator_seed_sensitivity;
          Alcotest.test_case "tiny heap startup" `Quick
            test_mutator_survives_tiny_heap_startup;
          Alcotest.test_case "step slices" `Quick test_step_slices;
        ] );
      ( "pressure",
        [
          Alcotest.test_case "schedules" `Quick test_pressure_schedules;
          Alcotest.test_case "signalmem" `Quick test_signalmem_pins;
        ] );
      ( "spec files",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_file_roundtrip;
          Alcotest.test_case "defaults+comments" `Quick
            test_spec_file_defaults_and_comments;
          Alcotest.test_case "unknown key" `Quick
            test_spec_file_rejects_unknown_key;
        ] );
      ( "traces",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "replay equivalent" `Quick
            test_trace_replay_equivalent;
          Alcotest.test_case "collectors agree" `Quick
            test_trace_replay_all_collectors_agree;
          Alcotest.test_case "malformed rejected" `Quick
            test_trace_load_rejects_garbage;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_mutator_any_seed_sound;
          QCheck_alcotest.to_alcotest prop_random_trace_replays;
        ] );
    ]
