(* Wall-clock performance microbenchmarks for the simulator itself.

   Everything else in the harness measures *virtual* time — the simulated
   clock the paper's results are stated in. This module measures *real*
   time: how many simulated page touches, allocations and field accesses
   per wall-clock second the implementation sustains, and how long a full
   collection or a reclaim storm takes to simulate. Those numbers bound
   how large a heap, how many frames and how many co-scheduled processes
   we can afford to simulate, so they are recorded (as BENCH_perf.json at
   the repo root) to track the repo's performance trajectory PR over PR.

   Wall-clock numbers are machine-dependent by nature; the committed
   baseline is a snapshot for trend comparison, not a golden. Virtual-time
   results must never depend on anything here. *)

module Json = Telemetry.Json

let schema_version = "bcgc-perf/1"

let default_repetitions = 5

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                    *)

type dist = {
  median : float;
  iqr_lo : float;  (* 25th percentile *)
  iqr_hi : float;  (* 75th percentile *)
  samples : float list;  (* in run order *)
}

(* Linear-interpolated percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Perf.percentile: no samples"
  else if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let dist_of_samples samples =
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  {
    median = percentile sorted 0.5;
    iqr_lo = percentile sorted 0.25;
    iqr_hi = percentile sorted 0.75;
    samples;
  }

(* Run [f] [warmups] times unrecorded, then [reps] measured times. [f]
   returns the wall-seconds its hot loop took (setup excluded); [per]
   scales each sample (ops per rep for a rate, 1.0 for a duration).
   Two warm-up passes by default: the first still pays one-time costs
   outside the benchmark's own setup (code paths compiling their inline
   caches warm, the major heap growing to the working set), which is
   exactly the profile of the historical write_ref outlier — a first
   measured sample ~30% under the rest of its set. *)
let default_warmups = 2

let measure ?(warmups = default_warmups) ~reps ~per f =
  for _ = 1 to warmups do
    ignore (f () : float)
  done;
  let samples =
    List.init reps (fun _ ->
        let s = f () in
        if s <= 0.0 then per /. 1e-9 else per /. s)
  in
  dist_of_samples samples

let dist_json d =
  [
    ("median", Json.Num d.median);
    ("iqr_lo", Json.Num d.iqr_lo);
    ("iqr_hi", Json.Num d.iqr_hi);
    ("samples", Json.List (List.map (fun s -> Json.Num s) d.samples));
  ]

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the touch chain                                     *)

(* Resident touches: every page is in a frame, so each touch is the pure
   fast path — no fault, no reclaim, no swap. This is the dominant cost
   of every simulation and the headline number of the suite. *)
let bench_touch_resident () =
  let pages = 2048 in
  let iters = 2_000_000 in
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames:(pages + 64) () in
  let proc = Vmsim.Vmm.create_process vmm ~name:"perf" in
  Vmsim.Vmm.map_range vmm proc ~first_page:0 ~npages:pages;
  for p = 0 to pages - 1 do
    Vmsim.Vmm.touch vmm p
  done;
  let p = ref 0 in
  let t0 = now () in
  for _ = 1 to iters do
    Vmsim.Vmm.touch vmm !p;
    incr p;
    if !p >= pages then p := 0
  done;
  (float_of_int iters, now () -. t0)

(* Sparse giant address spaces: map, fault in and unmap ranges with page
   numbers beyond 2^30, a fresh chunk per round. Bounds the cost of
   materialising page-table/LRU/bitset chunks on demand — the dense
   tables this replaced would have tried to allocate gigabytes here.
   One op = one page mapped + touched + unmapped. *)
let bench_sparse_map_giant () =
  let npages = 512 in
  let rounds = 400 in
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames:(npages + 64) () in
  let proc = Vmsim.Vmm.create_process vmm ~name:"perf" in
  let t0 = now () in
  for r = 0 to rounds - 1 do
    (* one 8192-page stride per round: every round lands in new chunks *)
    let first_page = (1 lsl 30) + (r * 8192) in
    Vmsim.Vmm.map_range vmm proc ~first_page ~npages;
    for p = first_page to first_page + npages - 1 do
      Vmsim.Vmm.touch vmm p
    done;
    Vmsim.Vmm.unmap_range vmm ~first_page ~npages
  done;
  (float_of_int (rounds * npages), now () -. t0)

(* Faulting touches: four times more pages than frames, swept
   sequentially, so the LRU streams — most touches reload from swap and
   push an eviction. Exercises reclaim, the swap device and notices. *)
let bench_touch_faulting () =
  let pages = 1024 in
  let frames = 256 in
  let iters = 60_000 in
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames () in
  let proc = Vmsim.Vmm.create_process vmm ~name:"perf" in
  Vmsim.Vmm.map_range vmm proc ~first_page:0 ~npages:pages;
  let p = ref 0 in
  let t0 = now () in
  for _ = 1 to iters do
    Vmsim.Vmm.touch vmm ~write:true !p;
    incr p;
    if !p >= pages then p := 0
  done;
  (float_of_int iters, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the heap substrate                                  *)

let perf_heap ~npages =
  let clock = Vmsim.Clock.create () in
  let vmm = Vmsim.Vmm.create ~clock ~frames:(npages + 64) () in
  let proc = Vmsim.Vmm.create_process vmm ~name:"perf" in
  Vmsim.Vmm.map_range vmm proc ~first_page:0 ~npages;
  Heapsim.Heap.create vmm proc

(* Alloc/free churn in the evacuation pattern: fill pages densely with
   small objects, then displace and free them in address order — exactly
   what a copying pass does, and the worst case for a linear-scan page
   map. One op = one alloc or one free. *)
let bench_alloc_free () =
  let heap = perf_heap ~npages:64 in
  let objects = Heapsim.Heap.objects heap in
  let obj_size = 64 in
  let per_batch = 2048 in
  let batches = 60 in
  let ids = Array.make per_batch (-1) in
  let t0 = now () in
  for _ = 1 to batches do
    for i = 0 to per_batch - 1 do
      let id = Heapsim.Object_table.alloc objects ~size:obj_size ~nrefs:0 ~kind:`Scalar in
      Heapsim.Heap.place heap id ~addr:(i * obj_size);
      ids.(i) <- id
    done;
    for i = 0 to per_batch - 1 do
      Heapsim.Heap.free_object heap ids.(i)
    done
  done;
  (float_of_int (2 * per_batch * batches), now () -. t0)

let ref_bench ~write () =
  let nobjs = 1024 in
  let obj_size = 128 in
  let heap = perf_heap ~npages:(1 + (nobjs * obj_size / Vmsim.Page.size)) in
  let objects = Heapsim.Heap.objects heap in
  let ids =
    Array.init nobjs (fun i ->
        let id =
          Heapsim.Object_table.alloc objects ~size:obj_size ~nrefs:4
            ~kind:`Scalar
        in
        Heapsim.Heap.place heap id ~addr:(i * obj_size);
        Heapsim.Heap.touch_object heap id;
        id)
  in
  let iters = 1_000_000 in
  let i = ref 0 in
  let t0 = now () in
  for _ = 1 to iters do
    let id = ids.(!i) in
    if write then
      Heapsim.Heap.write_ref heap id (!i land 3) ids.((!i + 7) land (nobjs - 1))
    else ignore (Heapsim.Heap.read_ref heap id (!i land 3));
    incr i;
    if !i >= nobjs then i := 0
  done;
  (float_of_int iters, now () -. t0)

let bench_read_ref () = ref_bench ~write:false ()

let bench_write_ref () = ref_bench ~write:true ()

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the experiment drivers                              *)

(* 64 deliberately short cells: small heaps, 1% volume. Short cells are
   where driver overhead dominates — the fork backend pays a worker
   spawn amortised over the sweep plus Marshal + pipe + select per
   cell, the domain pool only a cursor claim per cell — so this pair
   is the scaling story of the two engines. One op = one cell. *)
let driver_cells = 64

let driver_spec =
  {
    (Workload.Spec.scale_volume Workload.Benchmarks.compress 0.01)
    with
    Workload.Spec.immortal_bytes = 60_000;
    window_bytes = 30_000;
  }

let driver_plans () =
  Array.init driver_cells (fun i ->
      let collector = if i land 1 = 0 then "BC" else "GenMS" in
      let heap_bytes = (512 * 1024) + ((i land 3) * 16_384) in
      Run.Plan.make ~collector ~spec:driver_spec ~heap_bytes)

let driver_jobs () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* An explicit [`Fork] forks even at one core, so the fork number is
   honest: the fork backend's defining costs (spawn, Marshal, pipes,
   select) are paid regardless of fan-out. NOTE the suite must run the
   fork sweep — warm-ups included — before the domains sweep ever
   creates a pool: the runtime forbids Unix.fork once any domain was
   spawned. The [micro_benches] list order below is that ordering. *)
let bench_driver_sweep ~backend () =
  let plans = driver_plans () in
  let jobs = driver_jobs () in
  let t0 = now () in
  let cells, _ = Supervisor.run ~jobs ~backend Run.exec plans in
  ignore (cells : Metrics.outcome Supervisor.cell array);
  (float_of_int driver_cells, now () -. t0)

let bench_driver_fork_sweep () = bench_driver_sweep ~backend:`Fork ()

let bench_driver_domains_sweep () = bench_driver_sweep ~backend:`Domains ()

(* ------------------------------------------------------------------ *)
(* Per-collector wall times                                             *)

let perf_spec =
  {
    (Workload.Spec.scale_volume Workload.Benchmarks.compress 0.05)
    with
    Workload.Spec.immortal_bytes = 300_000;
    window_bytes = 120_000;
  }

let heap_bytes = 1024 * 1024

(* Wall time of one forced full collection on a populated heap
   (averaged over a small inner loop; a single collection can be
   too short to time reliably). *)
let bench_full_collection ~collector () =
  let clock = Vmsim.Clock.create () in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let vmm =
    Vmsim.Vmm.create ~clock ~frames:((4 * heap_pages) + 2048) ()
  in
  let proc = Vmsim.Vmm.create_process vmm ~name:"perf" in
  let heap = Heapsim.Heap.create vmm proc in
  let c = Registry.create ~name:collector ~heap_bytes heap in
  let mutator = Workload.Mutator.create perf_spec c in
  while not (Workload.Mutator.step mutator ~ops:1024) do () done;
  let inner = 8 in
  let t0 = now () in
  for _ = 1 to inner do
    c.Gc_common.Collector.collect ()
  done;
  ((now () -. t0) *. 1e3 /. float_of_int inner, ())

(* Wall time to simulate a whole run under steady memory pressure —
   the reclaim storm keeps the VMM's eviction and fault paths hot. *)
let bench_reclaim_storm ~collector () =
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let plan =
    Run.Plan.make ~collector ~spec:perf_spec ~heap_bytes
    |> Run.Plan.with_frames (heap_pages + 128)
    |> Run.Plan.with_pressure
         (Workload.Pressure.Steady
            { after_progress = 0.1; pin_pages = heap_pages * 4 / 10 })
  in
  let t0 = now () in
  let outcome = Run.exec plan in
  ((now () -. t0) *. 1e3, Metrics.outcome_label outcome)

(* Duration benchmarks report milliseconds (lower is better); reuse
   [measure] by sampling the duration directly. *)
let measure_ms ?(warmups = default_warmups) ~reps f =
  let last = ref None in
  let sample () =
    let ms, extra = f () in
    last := Some extra;
    ms
  in
  for _ = 1 to warmups do
    ignore (sample () : float)
  done;
  let samples = List.init reps (fun _ -> sample ()) in
  (dist_of_samples samples, !last)

(* ------------------------------------------------------------------ *)
(* The suite                                                            *)

type t = {
  repetitions : int;
  micro : (string * dist) list;  (* name -> ops per wall second *)
  collectors : (string * dist * dist * string) list;
      (* name, full-collection ms, reclaim-storm ms, storm outcome *)
}

(* Order matters at the end: driver_fork_sweep must precede
   driver_domains_sweep — fork is impossible once a domain exists. *)
let micro_benches =
  [
    ("touch_resident", bench_touch_resident);
    ("touch_faulting", bench_touch_faulting);
    ("sparse_map_giant", bench_sparse_map_giant);
    ("alloc_free", bench_alloc_free);
    ("read_ref", bench_read_ref);
    ("write_ref", bench_write_ref);
    ("driver_fork_sweep", bench_driver_fork_sweep);
    ("driver_domains_sweep", bench_driver_domains_sweep);
  ]

let run ?(repetitions = default_repetitions) ?(progress = fun _ -> ()) () =
  if repetitions < 1 then invalid_arg "Perf.run: repetitions";
  let micro =
    List.map
      (fun (name, bench) ->
        progress (Printf.sprintf "micro: %s" name);
        let ops = ref 0.0 in
        let d =
          measure ~reps:repetitions ~per:1.0 (fun () ->
              let o, s = bench () in
              ops := o;
              s /. o)
        in
        (* [measure] computed 1/seconds-per-op = ops/sec *)
        (name, d))
      micro_benches
  in
  (* the driver sweeps leave idle pooled domains behind; join them so
     the collector wall-times below run in a single-domain process *)
  Domain_pool.shutdown_global ();
  let collectors =
    List.map
      (fun name ->
        progress (Printf.sprintf "collector: %s" name);
        let full, _ = measure_ms ~reps:repetitions (bench_full_collection ~collector:name) in
        let storm, outcome =
          measure_ms ~reps:repetitions (bench_reclaim_storm ~collector:name)
        in
        (name, full, storm, Option.value outcome ~default:"unknown"))
      Registry.names
  in
  { repetitions; micro; collectors }

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("repetitions", Json.int r.repetitions);
      ("page_size", Json.int Vmsim.Page.size);
      ( "micro",
        Json.List
          (List.map
             (fun (name, d) ->
               Json.Obj
                 (("name", Json.Str name)
                 :: ("unit", Json.Str "ops_per_sec")
                 :: dist_json d))
             r.micro) );
      ( "collectors",
        Json.List
          (List.map
             (fun (name, full, storm, outcome) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("full_collection_ms", Json.Obj (dist_json full));
                   ("reclaim_storm_ms", Json.Obj (dist_json storm));
                   ("outcome", Json.Str outcome);
                 ])
             r.collectors) );
    ]

let pp ppf r =
  Format.fprintf ppf "perf suite (%d repetitions, page size %d):@." r.repetitions
    Vmsim.Page.size;
  List.iter
    (fun (name, d) ->
      Format.fprintf ppf "  %-16s %12.0f ops/s  [iqr %.0f..%.0f]@." name
        d.median d.iqr_lo d.iqr_hi)
    r.micro;
  List.iter
    (fun (name, full, storm, outcome) ->
      Format.fprintf ppf
        "  %-16s full %8.3f ms  storm %8.3f ms  (%s)@." name full.median
        storm.median outcome)
    r.collectors

let default_output = "BENCH_perf.json"

let write_file ?(path = default_output) r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json r));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Validation: the perf-smoke CI step parses the file back and checks
   the keys later PRs will compare. *)

let required_micro = List.map fst micro_benches

let validate json =
  let ( let* ) r f = Result.bind r f in
  let* () =
    match Option.bind (Json.member "schema" json) Json.str_opt with
    | Some s when s = schema_version -> Ok ()
    | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
    | None -> Error "missing \"schema\""
  in
  let* () =
    match Option.bind (Json.member "repetitions" json) Json.num_opt with
    | Some n when n >= 1.0 -> Ok ()
    | Some _ -> Error "\"repetitions\" must be >= 1"
    | None -> Error "missing \"repetitions\""
  in
  let median_of entry =
    Option.bind (Json.member "median" entry) Json.num_opt
  in
  let* micro =
    match Option.bind (Json.member "micro" json) Json.to_list_opt with
    | Some l -> Ok l
    | None -> Error "missing \"micro\" list"
  in
  let name_of e = Option.bind (Json.member "name" e) Json.str_opt in
  let* () =
    List.fold_left
      (fun acc want ->
        let* () = acc in
        match
          List.find_opt (fun e -> name_of e = Some want) micro
        with
        | None -> Error (Printf.sprintf "missing micro benchmark %S" want)
        | Some e -> (
            match median_of e with
            | Some m when m > 0.0 -> Ok ()
            | Some _ | None ->
                Error (Printf.sprintf "micro %S has no positive median" want)))
      (Ok ()) required_micro
  in
  let* collectors =
    match Option.bind (Json.member "collectors" json) Json.to_list_opt with
    | Some [] -> Error "\"collectors\" is empty"
    | Some l -> Ok l
    | None -> Error "missing \"collectors\" list"
  in
  List.fold_left
    (fun acc e ->
      let* () = acc in
      let name = Option.value (name_of e) ~default:"?" in
      let sub key =
        match Option.bind (Json.member key e) median_of with
        | Some m when m >= 0.0 -> Ok ()
        | Some _ | None ->
            Error (Printf.sprintf "collector %S: missing %s.median" name key)
      in
      let* () = sub "full_collection_ms" in
      sub "reclaim_storm_ms")
    (Ok ()) collectors

let read_json_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | content -> (
      match Json.of_string_opt content with
      | None -> Error (Printf.sprintf "%s is not valid JSON" path)
      | Some json -> Ok json)

let validate_file path =
  Result.bind (read_json_file path) validate

(* ------------------------------------------------------------------ *)
(* Regression guard: a fresh run against the committed baseline. Rates
   (micro, ops/s) may not drop more than [tolerance] below the baseline
   median; collector wall times (ms) may not rise more than [tolerance]
   above it. The fresh side uses its {e best} sample (fastest rate,
   shortest duration): a genuine code regression slows every sample,
   while a transient load burst on a shared CI box slows only some — so
   best-vs-median keeps the guard meaningful without making it flaky.
   Entries present on only one side are skipped — a freshly added micro
   has no baseline to regress against, and a retired one no fresh
   number — so the guard stays usable across suite changes. *)

let default_guard_tolerance = 0.20

let guard ?(tolerance = default_guard_tolerance) ~baseline fresh =
  if tolerance <= 0.0 then invalid_arg "Perf.guard: tolerance";
  let name_of e = Option.bind (Json.member "name" e) Json.str_opt in
  let median_of e = Option.bind (Json.member "median" e) Json.num_opt in
  let errs = ref [] in
  let tripped = ref [] in
  (* [who] is the offending benchmark's name, kept separately so the
     error report can lead with a one-line summary of which benchmarks
     tripped, not just a wall of per-line diagnostics *)
  let fail ~who fmt =
    Printf.ksprintf
      (fun s ->
        errs := s :: !errs;
        if not (List.mem who !tripped) then tripped := who :: !tripped)
      fmt
  in
  let base_micro =
    Option.value ~default:[]
      (Option.bind (Json.member "micro" baseline) Json.to_list_opt)
  in
  List.iter
    (fun (name, d) ->
      match
        Option.bind
          (List.find_opt (fun e -> name_of e = Some name) base_micro)
          median_of
      with
      | Some old when old > 0.0 ->
          let best = List.fold_left Float.max d.median d.samples in
          if best < (1.0 -. tolerance) *. old then
            fail ~who:name
              "micro %s: best %.3e ops/s is %.0f%% below baseline %.3e" name
              best
              (100.0 *. (1.0 -. (best /. old)))
              old
      | Some _ | None -> ())
    fresh.micro;
  let base_coll =
    Option.value ~default:[]
      (Option.bind (Json.member "collectors" baseline) Json.to_list_opt)
  in
  List.iter
    (fun (name, full, storm, _) ->
      match List.find_opt (fun e -> name_of e = Some name) base_coll with
      | None -> ()
      | Some e ->
          let check key (d : dist) =
            match Option.bind (Json.member key e) median_of with
            | Some old when old > 0.0 ->
                let best = List.fold_left Float.min d.median d.samples in
                if best > (1.0 +. tolerance) *. old then
                  fail
                    ~who:(Printf.sprintf "%s.%s" name key)
                    "collector %s: %s best %.3f ms is %.0f%% above baseline \
                     %.3f"
                    name key best
                    (100.0 *. ((best /. old) -. 1.0))
                    old
            | Some _ | None -> ()
          in
          check "full_collection_ms" full;
          check "reclaim_storm_ms" storm)
    fresh.collectors;
  match List.rev !errs with
  | [] -> Ok ()
  | l ->
      let who = List.rev !tripped in
      Error
        (Printf.sprintf "%d benchmark(s) tripped the guard: %s"
           (List.length who) (String.concat ", " who)
        :: l)

let guard_file ?tolerance ~baseline_path fresh =
  match read_json_file baseline_path with
  | Error msg -> Error [ msg ]
  | Ok baseline -> (
      match validate baseline with
      | Error msg -> Error [ Printf.sprintf "%s: %s" baseline_path msg ]
      | Ok () -> guard ?tolerance ~baseline fresh)
