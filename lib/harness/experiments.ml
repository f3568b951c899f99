module Spec = Workload.Spec
module Pressure = Workload.Pressure
module Plan = Run.Plan

type mode = Quick | Full

(* --------------------------------------------------------------- *)
(* Sweep parameters per mode                                        *)

type params = {
  label : string;
  suite_volume : float;  (* volume scale for the 9-benchmark sweeps *)
  pjbb_volume : float;  (* volume scale for the pseudoJBB experiments *)
  minheap_volume : float;
  f2_multipliers : float list;  (* of the paper's min heap *)
  f3_heap_mb : float list;  (* scaled MB (paper MB / 8) *)
  dyn_available : float list;  (* fraction of the heap kept available *)
  f6_available : (string * float) list;
  f7_available : float list;  (* fraction of the two heaps combined *)
  include_marksweep : bool;
}

let params = function
  | Quick ->
      {
        label = "quick";
        suite_volume = 0.12;
        pjbb_volume = 0.5;
        minheap_volume = 0.15;
        f2_multipliers = [ 1.25; 1.5; 2.0; 3.0 ];
        f3_heap_mb = [ 10.0; 12.5; 16.25 ];
        dyn_available = [ 1.0; 0.7; 0.5; 0.4; 0.33 ];
        f6_available = [ ("moderate", 0.75); ("severe", 0.45) ];
        f7_available = [ 0.8; 0.55 ];
        include_marksweep = false;
      }
  | Full ->
      {
        label = "full";
        suite_volume = 0.5;
        pjbb_volume = 1.0;
        minheap_volume = 0.3;
        f2_multipliers = [ 1.1; 1.25; 1.5; 1.75; 2.0; 2.5; 3.0 ];
        f3_heap_mb = [ 10.0; 11.25; 12.5; 13.75; 15.0; 16.25 ];
        dyn_available = [ 1.1; 0.9; 0.75; 0.6; 0.5; 0.4; 0.33 ];
        f6_available = [ ("moderate", 0.75); ("severe", 0.45) ];
        f7_available = [ 0.9; 0.75; 0.6; 0.5 ];
        include_marksweep = true;
      }

let mb x = int_of_float (x *. 1_048_576.)

let baseline_collectors _p =
  [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "MarkSweep"; "SemiSpace" ]

(* Collectors compared under pressure (the paper omits MarkSweep there:
   "runs with this collector can take hours"). *)
let pressure_collectors = [ "BC"; "BC-resize"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ]

(* --------------------------------------------------------------- *)
(* The bench session and its cell runners                           *)

(* Cells are independent machines in virtual time, so results are
   byte-identical whatever the fan-out; every sweep below computes its
   whole cell list first and prints afterwards, keeping the output
   stable too. *)
type t = {
  mode : mode;
  jobs : int;
  backend : Supervisor.backend option;
      (* None = pick per sweep: sequential at -j 1, forked wider *)
  csv_dir : string option;
  charts : bool;
  slo_out : string option;
  mutable min_heaps : int option list option;
      (* Table 1's bisection, once per session; Fig. 2's heap axis reuses
         it. Only the coordinating process fills it: table1 and figure2
         run there, never inside a cell. *)
}

let create ?(jobs = 1) ?backend ?csv_dir ?(charts = false) ?slo_out mode =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Experiments.create: jobs must be >= 1 (got %d)" jobs);
  { mode; jobs; backend; csv_dir; charts; slo_out; min_heaps = None }

let cells t f xs =
  fst (Supervisor.run ~jobs:t.jobs ?backend:t.backend f (Array.of_list xs))
  |> Array.to_list

(* The one plan runner: every process's outcome, per plan. A quarantined
   plan fails on each of its processes. *)
let outcomes t plans =
  List.map2
    (fun plan -> function
      | Supervisor.Done { value; _ } -> value
      | Supervisor.Quarantined { failures; _ } ->
          List.map
            (fun _ -> Supervisor.failed_outcome failures)
            (Plan.procs plan))
    plans
    (cells t Run.exec_all plans)

let run t plans = List.map List.hd (outcomes t plans)

(* Two-process cells (figure 7, mixed, multiprocess): one plan, both
   outcomes. *)
let pairs t plans =
  List.map
    (function
      | [ a; b ] -> (a, b)
      | _ -> invalid_arg "Experiments.pairs: plan must have exactly two processes")
    (outcomes t plans)

(* The cells that are not plans (Table 1's bisection, the recovery
   study): a quarantined cell yields [None]. *)
let map t f xs =
  List.map
    (function
      | Supervisor.Done { value; _ } -> value
      | Supervisor.Quarantined _ -> None)
    (cells t f xs)

let rec chunk n = function
  | [] -> []
  | xs ->
      let rec take k acc rest =
        if k = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> (List.rev acc, [])
          | x :: tl -> take (k - 1) (x :: acc) tl
      in
      let row, rest = take n [] xs in
      row :: chunk n rest

(* Every sweep: the [plan] of each (row, column) cell, run through [run]
   as one flat fan-out — rows outermost, columns innermost — and handed
   back row by row. *)
let grid run ~rows ~columns plan =
  List.combine rows
    (chunk (List.length columns)
       (run (List.concat_map (fun r -> List.map (plan r) columns) rows)))

let completed = function Metrics.Completed m -> Some m | _ -> None

let elapsed_opt o = Option.map Metrics.elapsed_s (completed o)

let pause_opt o = Option.map (fun m -> m.Metrics.avg_pause_ms) (completed o)

let ms ns = float_of_int ns /. 1e6

let series t = Table.print_series ~csv_dir:t.csv_dir ~charts:t.charts

(* A figure whose rows are [grid]'s: [label] prints each row's x value,
   [value] projects each cell. *)
let plot t ~title ~x_label ~columns label value results =
  series t ~title ~x_label ~columns
    ~rows:(List.map (fun (x, cells) -> (label x, List.map value cells)) results)

let pjbb p = Spec.scale_volume Workload.Benchmarks.pseudojbb p.pjbb_volume

(* --------------------------------------------------------------- *)
(* Table 1                                                          *)

let min_heaps t =
  match t.min_heaps with
  | Some m -> m
  | None ->
      let volume_scale = (params t.mode).minheap_volume in
      let m =
        map t
          (fun spec -> Minheap.find ~volume_scale ~collector:"BC" ~spec ())
          Workload.Catalog.batch_specs
      in
      t.min_heaps <- Some m;
      m

let table1 t =
  let p = params t.mode in
  Printf.printf "\n== Table 1: benchmark statistics (all bytes = paper/8, %s mode) ==\n"
    p.label;
  let rows =
    List.map2
      (fun spec min_heap ->
        [
          spec.Spec.name;
          Table.fmt_bytes spec.Spec.total_alloc_bytes;
          Table.fmt_bytes spec.Spec.paper_min_heap_bytes;
          (match min_heap with
          | Some b -> Table.fmt_bytes b
          | None -> "-");
          (match min_heap with
          | Some b ->
              Printf.sprintf "%.2f"
                (float_of_int b /. float_of_int spec.Spec.paper_min_heap_bytes)
          | None -> "-");
        ])
      Workload.Catalog.batch_specs (min_heaps t)
  in
  Table.print_table
    ~header:
      [ "Benchmark"; "Total Alloc"; "Paper Min Heap"; "Measured Min Heap"; "ratio" ]
    ~rows

(* --------------------------------------------------------------- *)
(* Figure 2                                                         *)

let figure2 t =
  let p = params t.mode in
  let collectors = baseline_collectors p in
  (* the heap-size axis is relative to each benchmark's measured minimum
     heap (Table 1's measured column), as in the paper *)
  let benches =
    List.map2
      (fun spec measured ->
        ( Spec.scale_volume spec p.suite_volume,
          Option.value measured ~default:spec.Spec.paper_min_heap_bytes ))
      Workload.Catalog.batch_specs (min_heaps t)
  in
  let results =
    grid (run t) ~rows:p.f2_multipliers
      ~columns:
        (List.concat_map
           (fun bench -> List.map (fun collector -> (bench, collector)) collectors)
           benches)
      (fun mult ((spec, min_heap), collector) ->
        Plan.make ~collector ~spec
          ~heap_bytes:(int_of_float (mult *. float_of_int min_heap)))
  in
  let rows =
    List.map
      (fun (mult, outcomes) ->
        (* per benchmark, elapsed per collector; then geomean of the
           ratios to BC over the benchmarks where both completed *)
        let per_bench =
          chunk (List.length collectors) (List.map elapsed_opt outcomes)
        in
        let cells =
          List.mapi
            (fun i _collector ->
              let ratios =
                List.filter_map
                  (fun bench_results ->
                    match (List.nth bench_results 0, List.nth bench_results i) with
                    | Some bc, Some c -> Some (c /. bc)
                    | _ -> None)
                  per_bench
              in
              if ratios = [] then None
              else Some (Repro_util.Summary.geomean ratios))
            collectors
        in
        (Printf.sprintf "%.2fx" mult, cells))
      results
  in
  series t
    ~title:
      "Figure 2: geomean execution time relative to BC (no memory pressure)"
    ~x_label:"heap" ~columns:collectors ~rows

(* --------------------------------------------------------------- *)
(* Figure 3                                                         *)

let steady_plan ~collector ~spec ~heap_bytes =
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 128 in
  let pressure =
    Pressure.Steady { after_progress = 0.1; pin_pages = heap_pages * 6 / 10 }
  in
  Plan.make ~collector ~spec ~heap_bytes
  |> Plan.with_frames frames
  |> Plan.with_pressure pressure

let figure3 t =
  let p = params t.mode in
  let spec = pjbb p in
  let plot =
    plot t ~x_label:"heap(MB/8)" ~columns:pressure_collectors
      (Printf.sprintf "%.2f")
  in
  let results =
    grid (run t) ~rows:p.f3_heap_mb ~columns:pressure_collectors
      (fun heap_mb collector ->
        steady_plan ~collector ~spec ~heap_bytes:(mb heap_mb))
  in
  plot
    ~title:
      "Figure 3(a): steady pressure (40% of heap available): execution time \
       (s), pseudoJBB"
    elapsed_opt results;
  plot ~title:"Figure 3(b): steady pressure: average GC pause (ms), pseudoJBB"
    pause_opt results

(* --------------------------------------------------------------- *)
(* Figures 4, 5, 6: dynamic pressure                                *)

let pjbb_heap_bytes = 77 * 1_048_576 / Workload.Benchmarks.scale

let dynamic_plan ?costs ?trace ~collector ~spec ~available_frac () =
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 256 in
  let available = int_of_float (available_frac *. float_of_int heap_pages) in
  let pin_target = max 0 (frames - available) in
  let initial_pages = min pin_target (mb 3.75 / Vmsim.Page.size) in
  (* The paper ramps 1 MB every 100 ms against minutes-long runs; our
     virtual runs are shorter, so the step interval is scaled for the ramp
     to complete within roughly the first 40% of an unpressured run. *)
  let expected_ns = spec.Spec.total_alloc_bytes * 5 in
  let steps = max 1 ((pin_target - initial_pages + 31) / 32) in
  let step_ns = max 1_000_000 (2 * expected_ns / (5 * steps)) in
  let pressure =
    Pressure.Ramp
      {
        after_progress = 0.1;
        initial_pages;
        pages_per_step = 32;  (* 1 MB/8 per step *)
        step_ns;
        max_pages = pin_target;
      }
  in
  Plan.make ~collector ~spec ~heap_bytes
  |> Plan.with_frames frames
  |> Plan.with_pressure pressure
  |> (match costs with None -> Fun.id | Some c -> Plan.with_costs c)
  |> match trace with None -> Fun.id | Some s -> Plan.with_trace s

let dynamic_outcomes t available collectors =
  let spec = pjbb (params t.mode) in
  grid (run t) ~rows:available ~columns:collectors
    (fun available_frac collector ->
      dynamic_plan ~collector ~spec ~available_frac ())

let figure45 t =
  let p = params t.mode in
  let plot = plot t ~x_label:"avail/heap" (Printf.sprintf "%.2f") in
  let results = dynamic_outcomes t p.dyn_available pressure_collectors in
  plot ~title:"Figure 4: dynamic pressure: average GC pause (ms), pseudoJBB"
    ~columns:pressure_collectors pause_opt results;
  plot ~title:"Figure 5(a): dynamic pressure: execution time (s), pseudoJBB"
    ~columns:pressure_collectors elapsed_opt results;
  let fixed = [ "BC-fixed"; "GenMS-fixed"; "GenCopy-fixed" ] in
  (* the fixed-nursery footprint is smaller, so paging only starts at
     lower availability: extend the sweep downwards *)
  plot
    ~title:
      "Figure 5(b): dynamic pressure, fixed-size (4MB/8) nurseries: \
       execution time (s)"
    ~columns:fixed elapsed_opt
    (dynamic_outcomes t (p.dyn_available @ [ 0.28; 0.22 ]) fixed)

let figure6 t =
  let p = params t.mode in
  let collectors =
    pressure_collectors @ if p.include_marksweep then [ "MarkSweep" ] else []
  in
  let spec = pjbb p in
  let windows =
    (* log-spaced windows, 1 ms .. 100 s (virtual) *)
    List.init 11 (fun i ->
        int_of_float (1e6 *. Float.pow 10.0 (float_of_int i /. 2.0)))
  in
  List.iter
    (fun ((tag, available_frac), outcomes) ->
      let curves =
        List.map
          (fun o ->
            Option.map
              (fun m ->
                Bmu.curve ~pauses:m.Metrics.pauses
                  ~total_ns:m.Metrics.elapsed_ns ~windows)
              (completed o))
          outcomes
      in
      series t
        ~title:
          (Printf.sprintf
             "Figure 6 (%s pressure, %.0f%% of heap available): BMU by \
              window size"
             tag (100. *. available_frac))
        ~x_label:"window(ms)" ~columns:collectors
        ~rows:
          (List.mapi
             (fun i w ->
               ( Printf.sprintf "%.1f" (ms w),
                 List.map
                   (Option.map (fun curve -> snd (List.nth curve i)))
                   curves ))
             windows))
    (grid (run t) ~rows:p.f6_available ~columns:collectors
       (fun (_tag, available_frac) collector ->
         dynamic_plan ~collector ~spec ~available_frac ()))

(* --------------------------------------------------------------- *)
(* Figure 7                                                         *)

(* Two instances of [collector] (the second on a shifted workload seed)
   sharing one machine. *)
let pair_plan ?(coworker : string option) ~collector ~spec ~heap_bytes ~frames
    () =
  let coworker = Option.value coworker ~default:collector in
  Plan.make ~collector ~spec ~heap_bytes
  |> Plan.with_frames frames
  |> Plan.with_process ~collector:coworker
       ~spec:{ spec with Spec.seed = spec.Spec.seed + 17 }

let figure7 t =
  let p = params t.mode in
  let collectors = [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ] in
  let spec = pjbb p in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let results =
    grid (pairs t) ~rows:p.f7_available ~columns:collectors
      (fun frac collector ->
        let frames =
          max 512 (int_of_float (frac *. float_of_int (2 * heap_pages)))
        in
        pair_plan ~collector ~spec ~heap_bytes ~frames ())
  in
  let both f = function
    | Metrics.Completed ma, Metrics.Completed mb -> Some (f ma mb)
    | _ -> None
  in
  let plot =
    plot t ~x_label:"avail/(2*heap)" ~columns:collectors (Printf.sprintf "%.2f")
  in
  plot ~title:"Figure 7(a): two instances of pseudoJBB: total elapsed time (s)"
    (both (fun ma mb -> Float.max (Metrics.elapsed_s ma) (Metrics.elapsed_s mb)))
    results;
  plot ~title:"Figure 7(b): two instances: average GC pause (ms)"
    (both (fun ma mb ->
         (ma.Metrics.avg_pause_ms +. mb.Metrics.avg_pause_ms) /. 2.0))
    results

(* --------------------------------------------------------------- *)
(* Ablations                                                        *)

let ablation t =
  let p = params t.mode in
  (* every registered BC-family entry (canonical, variants, ablations),
     then the generational yardsticks *)
  let variants =
    List.filter_map
      (fun (i : Registry.info) ->
        if i.Registry.family = "BC" then Some i.Registry.name else None)
      Registry.all
    @ [ "GenMS"; "GenMS-coop" ]
  in
  let spec = pjbb p in
  (* severe enough that discarding alone cannot absorb the pressure *)
  let frac = 0.38 in
  let row collector = function
    | Metrics.Completed m ->
        [
          collector;
          Table.fmt_seconds (Metrics.elapsed_s m);
          Table.fmt_ms m.Metrics.avg_pause_ms;
          string_of_int m.Metrics.major_faults;
          string_of_int m.Metrics.gc_major_faults;
          string_of_int m.Metrics.discards;
          string_of_int m.Metrics.relinquished;
        ]
    | Metrics.Exhausted msg -> [ collector; "exhausted: " ^ msg ]
    | Metrics.Thrashed msg -> [ collector; "thrashed: " ^ msg ]
    | Metrics.Failed f -> [ collector; "failed: " ^ f.Metrics.reason ]
  in
  let rows =
    List.concat_map
      (fun (collector, outcomes) -> List.map (row collector) outcomes)
      (grid (run t) ~rows:variants ~columns:[ frac ]
         (fun collector available_frac ->
           dynamic_plan ~collector ~spec ~available_frac ()))
  in
  Printf.printf
    "\n== Ablations: BC variants under dynamic pressure (38%% of heap \
     available) ==\n";
  Table.print_table
    ~header:
      [ "variant"; "time(s)"; "avg pause(ms)"; "faults"; "gc faults"; "discards"; "relinquished" ]
    ~rows

(* ---------------------------------------------------------------- *)
(* Beyond the paper: SSD swap                                         *)

let ssd t =
  let p = params t.mode in
  let spec = pjbb p in
  let collectors = [ "BC"; "GenMS"; "GenCopy"; "CopyMS" ] in
  let devices = [ ("disk(5ms)", Vmsim.Costs.default); ("ssd(80us)", Vmsim.Costs.ssd) ] in
  let combos =
    List.concat_map
      (fun (tag, costs) ->
        List.map (fun frac -> (tag, costs, frac)) [ 0.5; 0.4 ])
      devices
  in
  plot t
    ~title:
      "Beyond the paper: disk vs SSD swap under dynamic pressure (s)"
    ~x_label:"device@avail" ~columns:collectors
    (fun (tag, _, frac) -> Printf.sprintf "%s@%.2f" tag frac)
    elapsed_opt
    (grid (run t) ~rows:combos ~columns:collectors
       (fun (_, costs, available_frac) collector ->
         dynamic_plan ~costs ~collector ~spec ~available_frac ()))

(* ---------------------------------------------------------------- *)
(* Beyond the paper: recovery from a transient spike                  *)

let recovery t =
  let spec = pjbb (params t.mode) in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 256 in
  let collectors = [ "BC"; "BC-noregrow"; "GenMS" ] in
  let run collector =
    (* pin down to 45% of the heap between 20% and 50% progress; the run
       finishes with memory abundant again. Hand-rolled machine: the
       pressure schedule here reacts to progress in ways Pressure.t
       doesn't express. *)
    let machine = Machine.create ~frames () in
    let clock = Machine.clock machine in
    let proc = Machine.spawn machine ~name:"jvm" ~heap_bytes in
    let c = Registry.instantiate_name ~name:collector proc in
    let signalmem =
      Workload.Signalmem.create (Machine.vmm machine)
        (Machine.address_space machine)
    in
    let mutator = Workload.Mutator.create spec c in
    let release_ns = ref None in
    let total = float_of_int spec.Spec.total_alloc_bytes in
    (try
       while not (Workload.Mutator.step mutator ~ops:Run.default_slice) do
         let prog =
           float_of_int (Workload.Mutator.allocated_bytes mutator) /. total
         in
         if prog >= 0.15 && prog < 0.35 then begin
           let want = frames - (heap_pages * 35 / 100) in
           let have = Workload.Signalmem.pinned_pages signalmem in
           if have < want then Workload.Signalmem.pin_pages signalmem (want - have)
         end
         else if prog >= 0.35 && !release_ns = None then begin
           Workload.Signalmem.unpin_all signalmem;
           release_ns := Some (Vmsim.Clock.now clock)
         end
       done;
       let finish = Vmsim.Clock.now clock in
       let after =
         match !release_ns with
         | Some t0 -> Vmsim.Clock.ns_to_s (finish - t0)
         | None -> Float.nan
       in
       Some (Vmsim.Clock.ns_to_s finish, after)
     with Gc_common.Collector.Heap_exhausted _ | Vmsim.Vmm.Thrashing _ -> None)
  in
  let results = map t run collectors in
  Printf.printf
    "\n== Beyond the paper: recovery after a transient spike (pin to 35%% \
     between 15%%-35%% progress) ==\n";
  Table.print_table
    ~header:[ "collector"; "total(s)"; "after release(s)" ]
    ~rows:
      (List.map2
         (fun collector result ->
           match result with
           | Some (total_s, after_s) ->
               [
                 collector;
                 Table.fmt_seconds total_s;
                 Table.fmt_seconds after_s;
               ]
           | None -> [ collector; "failed"; "-" ])
         collectors results)

(* ---------------------------------------------------------------- *)
(* Beyond the paper: heterogeneous cohabitation                       *)

let mixed t =
  let spec = pjbb (params t.mode) in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = 2 * heap_pages * 6 / 10 in
  let pairings = [ ("BC", "BC"); ("GenMS", "GenMS"); ("BC", "GenMS") ] in
  let results =
    pairs t
      (List.map
         (fun (a, b) ->
           pair_plan ~collector:a ~coworker:b ~spec ~heap_bytes ~frames ())
         pairings)
  in
  let describe tag o =
    match completed o with
    | Some m ->
        [
          tag;
          Table.fmt_seconds (Metrics.elapsed_s m);
          Table.fmt_ms m.Metrics.avg_pause_ms;
          string_of_int m.Metrics.major_faults;
        ]
    | None -> [ tag; Metrics.outcome_label o; "-"; "-" ]
  in
  Printf.printf
    "\n== Beyond the paper: two collectors sharing one machine (60%% of \
     their combined heaps) ==\n";
  Table.print_table
    ~header:[ "instance"; "time(s)"; "avg pause(ms)"; "faults" ]
    ~rows:
      (List.concat
         (List.map2
            (fun (a, b) (ra, rb) ->
              [ describe (a ^ " (with " ^ b ^ ")") ra;
                describe (b ^ " (with " ^ a ^ ")") rb ])
            pairings results))

(* ---------------------------------------------------------------- *)
(* Multiprocess contention (§5: two JVMs competing for memory)        *)

let multiprocess t =
  let p = params t.mode in
  let spec = pjbb p in
  let heap_bytes = pjbb_heap_bytes in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  (* enough physical memory for one instance to run comfortably, nothing
     like enough for two: 55% of the combined heaps, as in the paper's
     §5 dual-JVM runs. Solo rows use the same frame count, so the only
     new variable in the contended rows is the competing process. *)
  let frames = max 512 (2 * heap_pages * 55 / 100) in
  let collectors = [ "BC"; "GenMS"; "GenCopy"; "CopyMS"; "SemiSpace" ] in
  let competitor = "GenMS" in
  let solo collector =
    Plan.make ~collector ~spec ~heap_bytes |> Plan.with_frames frames
  in
  let solos = run t (List.map solo collectors) in
  let contended =
    pairs t
      (List.map
         (fun collector ->
           pair_plan ~collector ~coworker:competitor ~spec ~heap_bytes
             ~frames ())
         collectors)
  in
  let fmt_opt f = function Some v -> f v | None -> "-" in
  let label_of = function
    | Metrics.Completed _ -> "ok"
    | o -> Metrics.outcome_label o
  in
  let p95 o = Option.map (fun m -> m.Metrics.p95_pause_ms) (completed o) in
  let rows =
    List.map2
      (fun collector (solo_o, (victim_o, _comp_o)) ->
        let slowdown =
          match (elapsed_opt solo_o, elapsed_opt victim_o) with
          | Some s, Some c when s > 0. -> Printf.sprintf "%.1fx" (c /. s)
          | _ -> label_of victim_o
        in
        [
          collector;
          fmt_opt Table.fmt_seconds (elapsed_opt solo_o);
          fmt_opt Table.fmt_seconds (elapsed_opt victim_o);
          slowdown;
          fmt_opt Table.fmt_ms (p95 solo_o);
          fmt_opt Table.fmt_ms (p95 victim_o);
          fmt_opt string_of_int
            (Option.map (fun m -> m.Metrics.major_faults) (completed victim_o));
        ])
      collectors
      (List.combine solos contended)
  in
  Printf.printf
    "\n== Multiprocess (§5): each collector vs a competing %s instance \
     (55%% of combined heaps, %s mode) ==\n"
    competitor p.label;
  Table.print_table
    ~header:
      [ "collector"; "solo(s)"; "contended(s)"; "slowdown"; "solo p95(ms)";
        "contended p95(ms)"; "faults" ]
    ~rows;
  (* scheduling policies: the same BC + GenMS machine under round-robin,
     3:1 proportional share and strict priority — per-process windows
     make the interference visible from both sides *)
  let policies =
    [
      ("round-robin", Fun.id);
      ( "proportional 3:1",
        fun plan ->
          plan |> Plan.with_share 3 |> Plan.with_policy Machine.Proportional
      );
      ( "priority BC",
        fun plan ->
          plan |> Plan.with_priority 1 |> Plan.with_policy Machine.Priority );
    ]
  in
  let policy_results =
    pairs t
      (List.map
         (fun (_, refine) ->
           refine
             (pair_plan ~collector:"BC" ~coworker:competitor ~spec
                ~heap_bytes ~frames ()))
         policies)
  in
  Printf.printf
    "\n== Multiprocess: BC + %s under different scheduling policies ==\n"
    competitor;
  Table.print_table
    ~header:
      [ "policy"; "BC time(s)"; "BC p95(ms)"; Printf.sprintf "%s time(s)" competitor;
        Printf.sprintf "%s p95(ms)" competitor ]
    ~rows:
      (List.map2
         (fun (tag, _) (bc_o, comp_o) ->
           let time o = fmt_opt Table.fmt_seconds (elapsed_opt o) in
           let p95_or_label o =
             match p95 o with
             | Some ms -> Table.fmt_ms ms
             | None -> Metrics.outcome_label o
           in
           [ tag; time bc_o; p95_or_label bc_o; time comp_o; p95_or_label comp_o ])
         policies policy_results)

(* ---------------------------------------------------------------- *)
(* Beyond the paper: graceful degradation under an unreliable kernel  *)

let fault_spec =
  (* the reference plan from the robustness study: ~30% of eviction
     notices lost, occasional swap I/O errors, two swap-full episodes
     and one scripted pressure spike *)
  {
    Faults.Fault_plan.none with
    Faults.Fault_plan.drop_eviction = 0.3;
    drop_resident = 0.1;
    delay_notice = 0.1;
    swap_write_error = 0.02;
    swap_read_error = 0.01;
    swap_full_episodes = 2;
    spike_count = 1;
  }

let faults t =
  let p = params t.mode in
  let collectors = [ "BC"; "GenMS" ] in
  let describe name outcome =
    let label = Metrics.outcome_label outcome in
    let stats =
      match outcome with
      | Metrics.Completed m -> m.Metrics.faults
      | Metrics.Failed f -> f.Metrics.fault_stats
      | Metrics.Exhausted _ | Metrics.Thrashed _ -> None
    in
    let injected =
      match stats with
      | Some s -> Format.asprintf "%a" Faults.Fault_plan.pp_stats s
      | None -> "-"
    in
    let detail =
      match outcome with
      | Metrics.Completed m -> Table.fmt_seconds (Metrics.elapsed_s m)
      | Metrics.Failed f -> f.Metrics.exn_name
      | Metrics.Exhausted _ | Metrics.Thrashed _ -> "-"
    in
    [ name; label; detail; injected ]
  in
  let results =
    grid (run t)
      ~rows:
        (List.map
           (fun spec -> Spec.scale_volume spec p.suite_volume)
           Workload.Catalog.batch_specs)
      ~columns:collectors
      (fun spec collector ->
        let heap_bytes = max (2 * spec.Spec.paper_min_heap_bytes) 1_500_000 in
        let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
        let frames = heap_pages + 192 in
        let pressure =
          Pressure.Steady
            { after_progress = 0.1; pin_pages = heap_pages * 4 / 10 }
        in
        Plan.make ~collector ~spec ~heap_bytes
        |> Plan.with_frames frames
        |> Plan.with_pressure pressure
        |> Plan.with_faults fault_spec
        |> Plan.with_verify)
  in
  Printf.printf
    "\n== Beyond the paper: fault injection (drop 30%% of eviction notices, \
     swap errors, 2 swap-full episodes) ==\n";
  Table.print_table
    ~header:[ "benchmark/collector"; "outcome"; "time(s)/exn"; "injected" ]
    ~rows:
      (List.concat_map
         (fun (spec, outcomes) ->
           List.map2
             (fun collector o -> describe (spec.Spec.name ^ "/" ^ collector) o)
             collectors outcomes)
         results);
  (* The same reference fault plan against a serving workload: BC and a
     GenMS coworker share one memory-tight machine, and each process
     gets its own SLO verdict — does the tail survive an unreliable
     kernel, not just complete under one? *)
  let srv_volume = match t.mode with Quick -> 0.35 | Full -> 1.0 in
  let scale_srv (s : Workload.Request.spec) =
    match
      Workload.Catalog.scale_volume (Workload.Catalog.Serving_spec s)
        srv_volume
    with
    | Workload.Catalog.Serving_spec s -> s
    | Workload.Catalog.Batch_spec _ -> assert false
  in
  let srv = scale_srv Workload.Catalog.srv_shaped in
  let coworker =
    (* a distinct arrival stream, same shape — the processes must not
       fault in lockstep *)
    scale_srv
      {
        Workload.Catalog.srv_shaped with
        Workload.Request.seed = Workload.Catalog.srv_shaped.Workload.Request.seed + 17;
      }
  in
  let heap_bytes =
    2 * Workload.Catalog.base_heap_bytes (Workload.Catalog.Serving_spec srv)
  in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let total_pages = 2 * heap_pages in
  let frames = total_pages + 128 in
  let available = int_of_float (0.62 *. float_of_int total_pages) in
  let pin = max 0 (frames - available) in
  let srv_plan =
    Plan.make_workload ~collector:"BC"
      ~workload:(Workload.Catalog.Serving_spec srv) ~heap_bytes
    |> Plan.with_process_workload ~collector:"GenMS"
         ~workload:(Workload.Catalog.Serving_spec coworker)
    |> Plan.with_frames frames
    |> Plan.with_ops_per_slice 16
    |> Plan.with_pressure
         (Pressure.Steady { after_progress = 0.0; pin_pages = pin })
    |> Plan.with_faults fault_spec
    |> Plan.with_verify
  in
  let bc_o, gen_o =
    match pairs t [ srv_plan ] with
    | [ pair ] -> pair
    | _ -> assert false
  in
  let srv_row pname outcome =
    let label = Metrics.outcome_label outcome in
    let m = completed outcome in
    let injected =
      match Option.bind m (fun m -> m.Metrics.faults) with
      | Some s -> Format.asprintf "%a" Faults.Fault_plan.pp_stats s
      | None -> "-"
    in
    match Option.bind m (fun m -> m.Metrics.serving) with
    | Some s ->
        [
          pname;
          label;
          Printf.sprintf "%.2f" (ms s.Workload.Slo.p50_ns);
          Printf.sprintf "%.2f" (ms s.Workload.Slo.p999_ns);
          string_of_int s.Workload.Slo.violations;
          (if Workload.Slo.meets_p999 s then "meets p999"
           else "violates p999");
          injected;
        ]
    | None -> [ pname; label; "-"; "-"; "-"; "-"; injected ]
  in
  Printf.printf
    "\n== Fault injection x serving: %s, BC + GenMS on one machine (62%% \
     of combined heaps) ==\n"
    srv.Workload.Request.name;
  Table.print_table
    ~header:
      [ "process"; "outcome"; "p50(ms)"; "p999(ms)"; "viol"; "verdict";
        "injected" ]
    ~rows:[ srv_row "BC (primary)" bc_o; srv_row "GenMS (coworker)" gen_o ]

(* ---------------------------------------------------------------- *)
(* Closed-loop controller matrix                                      *)

(* A light plan the threshold/pi controllers should ride through
   without ever leaving Normal/Pressure... *)
let benign_fault_spec =
  {
    Faults.Fault_plan.none with
    Faults.Fault_plan.drop_eviction = 0.1;
    delay_notice = 0.05;
  }

(* ...and a hostile one: most notices lost, swap errors, repeated
   scripted spikes — the regime the degradation ladder exists for. *)
let storm_fault_spec =
  {
    Faults.Fault_plan.none with
    Faults.Fault_plan.drop_eviction = 0.5;
    drop_resident = 0.2;
    delay_notice = 0.2;
    swap_write_error = 0.03;
    swap_read_error = 0.02;
    swap_full_episodes = 2;
    spike_count = 3;
    spike_pages = 256;
  }

let control_statics = [ "off"; "static"; "static-tight" ]

let control_adaptives = [ "threshold"; "pi" ]

let control t =
  let p = params t.mode in
  (* a longer run than the fault matrix uses: the control loop needs a
     timeline — many decision windows, several collections — to react
     within. A cliff of pressure that lands and collects inside one
     window is static-tuning territory by construction. *)
  let volume = min 1.0 (6.0 *. p.suite_volume) in
  let spec =
    Spec.scale_volume
      (List.find
         (fun s -> s.Spec.name = "_202_jess")
         Workload.Catalog.batch_specs)
      volume
  in
  let heap_bytes = max (2 * spec.Spec.paper_min_heap_bytes) 1_500_000 in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 192 in
  let fault_plans =
    match t.mode with
    | Quick -> [ ("none", None); ("storm", Some storm_fault_spec) ]
    | Full ->
        [
          ("none", None);
          ("benign", Some benign_fault_spec);
          ("storm", Some storm_fault_spec);
        ]
  in
  let pressures =
    [
      ( "steady",
        Pressure.Steady
          { after_progress = 0.1; pin_pages = heap_pages * 4 / 10 } );
      ( "ramp",
        Pressure.Ramp
          {
            after_progress = 0.05;
            initial_pages = heap_pages / 8;
            pages_per_step = heap_pages / 32;
            step_ns = 10_000_000;
            max_pages = heap_pages * 11 / 20;
          } );
    ]
  in
  (* 1 ms decision windows: the ramp steps every 10 ms, so the
     controller gets several looks between pressure increments *)
  let window_ns = 1_000_000 in
  let controllers = control_statics @ control_adaptives in
  let results =
    grid (run t)
      ~rows:
        (List.concat_map
           (fun fault_plan ->
             List.map (fun pressure -> (fault_plan, pressure)) pressures)
           fault_plans)
      ~columns:controllers
      (fun ((_, fplan), (_, pressure)) controller ->
        Plan.make ~collector:"BC" ~spec ~heap_bytes
        |> Plan.with_frames frames
        |> Plan.with_pressure pressure
        |> (match fplan with None -> Fun.id | Some f -> Plan.with_faults f)
        |>
        match controller with
        | "off" -> Fun.id
        | name -> Plan.with_controller ~window_ns name)
  in
  (* exact nearest-rank p99 over the cell's recorded pauses — Metrics
     precomputes p50/p95/max only *)
  let p99_pause_ms (m : Metrics.t) =
    let ds = Array.of_list (List.map snd m.Metrics.pauses) in
    Array.sort compare ds;
    ms (Workload.Slo.percentile ds 0.99)
  in
  Printf.printf
    "\n== Closed-loop controllers: BC/%s, controllers x fault plans x \
     pressure schedules (%s mode) ==\n"
    spec.Spec.name p.label;
  Table.print_table
    ~header:
      [ "controller"; "faults"; "pressure"; "outcome"; "time(s)";
        "failsafe"; "p99(ms)"; "mfaults"; "peak"; "final" ]
    ~rows:
      (List.concat_map
         (fun (((fname, _), (pname, _)), outcomes) ->
           List.map2
             (fun controller outcome ->
               let base =
                 [ controller; fname; pname; Metrics.outcome_label outcome ]
               in
               match completed outcome with
               | Some m ->
                   base
                   @ [
                       Table.fmt_seconds (Metrics.elapsed_s m);
                       string_of_int m.Metrics.failsafes;
                       Printf.sprintf "%.2f" (p99_pause_ms m);
                       string_of_int m.Metrics.major_faults;
                     ]
                   @ (match m.Metrics.control with
                     | Some c ->
                         [
                           Control.Controller.state_name
                             c.Control.Controller.peak_state;
                           Control.Controller.state_name
                             c.Control.Controller.final_state;
                         ]
                     | None -> [ "-"; "-" ])
               | None -> base @ [ "-"; "-"; "-"; "-"; "-"; "-" ])
             controllers outcomes)
         results);
  (* Verdicts. On a fault plan the adaptive controllers must earn their
     keep against every static configuration (fewer failsafe
     collections, or the same with a lower p99 pause); on the no-fault
     plan they must not cost anything (elapsed within noise of the best
     static). *)
  List.iter
    (fun (((fname, _), (pname, _)), outcomes) ->
      let cell controller =
        completed (List.assoc controller (List.combine controllers outcomes))
      in
      List.iter
        (fun adaptive ->
          match cell adaptive with
          | None ->
              Printf.printf
                "control verdict: %s did not complete on %s/%s\n" adaptive
                fname pname
          | Some a ->
              if fname = "none" then (
                let worst_ratio =
                  List.fold_left
                    (fun acc static ->
                      match cell static with
                      | None -> acc
                      | Some s ->
                          max acc
                            (float_of_int a.Metrics.elapsed_ns
                            /. float_of_int s.Metrics.elapsed_ns))
                    0.0 control_statics
                in
                if worst_ratio <= 1.05 then
                  Printf.printf
                    "control verdict: %s within noise of statics on \
                     %s/%s (worst ratio %.3f)\n"
                    adaptive fname pname worst_ratio
                else
                  Printf.printf
                    "control verdict: %s SLOWER than a static on %s/%s \
                     (worst ratio %.3f)\n"
                    adaptive fname pname worst_ratio)
              else
                let beats static =
                  match cell static with
                  | None -> true (* the static died; surviving wins *)
                  | Some s ->
                      (* either test wins: a forced fail-safe that
                         buys a lower tail is a win, not a tie-breaker
                         loss *)
                      a.Metrics.failsafes < s.Metrics.failsafes
                      || p99_pause_ms a < p99_pause_ms s
                in
                if List.for_all beats control_statics then
                  Printf.printf
                    "control verdict: %s beats every static on %s/%s \
                     (failsafes=%d p99=%.2fms)\n"
                    adaptive fname pname a.Metrics.failsafes
                    (p99_pause_ms a)
                else
                  Printf.printf
                    "control verdict: %s does not dominate statics on \
                     %s/%s\n"
                    adaptive fname pname)
        control_adaptives)
    results

(* ---------------------------------------------------------------- *)
(* Telemetry trace export                                             *)

let trace_export t =
  let p = params t.mode in
  let spec = pjbb p in
  let cells = [ ("BC", 0.4); ("GenMS", 0.4) ] in
  List.iter
    (fun (collector, available_frac) ->
      let sink = Telemetry.Sink.create () in
      let outcome =
        Run.exec (dynamic_plan ~trace:sink ~collector ~spec ~available_frac ())
      in
      Printf.printf "\n== Trace: %s/pseudoJBB at %.2f available (%s mode) ==\n"
        collector available_frac p.label;
      (match outcome with
      | Metrics.Completed m -> Format.printf "%a@." Metrics.pp m
      | o -> Format.printf "%s@." (Metrics.outcome_label o));
      Format.printf "%a@?" Telemetry.Report.pp sink;
      match t.csv_dir with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let base =
            Printf.sprintf "%s/trace-%s-%.0f" dir collector
              (available_frac *. 100.)
          in
          let metadata =
            ("outcome",
             Telemetry.Json.Str (Metrics.outcome_label outcome))
            ::
            (match outcome with
            | Metrics.Completed m -> [ ("metrics", Metrics.to_json m) ]
            | _ -> [])
          in
          let oc = open_out (base ^ ".json") in
          Telemetry.Export.write_chrome_json ~metadata sink oc;
          close_out oc;
          let buf = Buffer.create 4096 in
          Telemetry.Export.csv sink buf;
          let oc = open_out (base ^ ".csv") in
          Buffer.output_buffer oc buf;
          close_out oc;
          Printf.printf "wrote %s.json and %s.csv\n" base base)
    cells

(* ---------------------------------------------------------------- *)
(* Beyond the paper: request-serving SLO matrix                       *)

let slo_collectors = [ "BC"; "GenMS"; "GenCopy" ]

(* A serving cell under paging: physical memory holds [available_frac]
   of the heap for the whole serving window (pinned at progress 0, while
   only the freshly-built cache is resident — so the pin itself evicts
   nothing the mutator will touch again). From then on the pages that
   spill out are the coldest ones: request garbage the collector has
   moved past. Bookmarking discards or skips those; a whole-heap
   collection has to fault every one of them back. *)
let slo_plan ~collector ~workload ~available_frac ~mult =
  let heap_bytes =
    int_of_float
      (mult *. float_of_int (Workload.Catalog.base_heap_bytes workload))
  in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  let frames = heap_pages + 128 in
  let available =
    int_of_float (available_frac *. float_of_int heap_pages)
  in
  let pin = max 0 (frames - available) in
  Plan.make_workload ~collector ~workload ~heap_bytes
  |> Plan.with_frames frames
  (* fine slices: the pressure schedule is checked between slices, and
     the pin must land at the start of the window (cache hot, nothing
     evictable) rather than midway through it *)
  |> Plan.with_ops_per_slice 16
  |> Plan.with_pressure
       (Pressure.Steady { after_progress = 0.0; pin_pages = pin })

let slo_summary o = Option.bind (completed o) (fun m -> m.Metrics.serving)

let slo_report_schema = "bcgc-slo-report/1"

(* The report is the bench's machine-readable artifact; it must parse
   back (each cell's summary through [Slo.of_json]) before we let the
   file stand — the smoke target relies on this self-validation. *)
let validate_slo_report text =
  let open Telemetry.Json in
  match of_string_opt text with
  | None -> Error "report is not valid JSON"
  | Some j -> (
      match Option.bind (member "schema" j) str_opt with
      | Some s when s = slo_report_schema -> (
          match Option.bind (member "cells" j) to_list_opt with
          | None -> Error "report has no cells array"
          | Some cells ->
              let bad =
                List.filter
                  (fun c ->
                    match member "slo" c with
                    | None -> false (* non-completed cell: no summary *)
                    | Some s -> Workload.Slo.of_json s = None)
                  cells
              in
              if bad = [] then Ok (List.length cells)
              else Error "a cell's slo summary does not round-trip")
      | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
      | None -> Error "report has no schema field")

let slo t =
  let p = params t.mode in
  let volume, shapes, mults, available_frac =
    match t.mode with
    | Quick -> (0.35, [ "srv_shaped"; "srv_flash" ], [ 2.0 ], 0.62)
    | Full ->
        ( 1.0,
          [ "srv_shaped"; "srv_flash"; "srv_diurnal"; "srv_pausing" ],
          [ 1.5; 2.0; 3.0 ],
          0.62 )
  in
  let workload_of name =
    match Workload.Catalog.find_opt name with
    | None -> invalid_arg ("Experiments.slo: unknown workload " ^ name)
    | Some i ->
        if volume = 1.0 then i.Workload.Catalog.params
        else Workload.Catalog.scale_volume i.Workload.Catalog.params volume
  in
  let results =
    grid (run t)
      ~rows:
        (List.concat_map
           (fun wname -> List.map (fun mult -> (wname, mult)) mults)
           shapes)
      ~columns:slo_collectors
      (fun (wname, mult) collector ->
        slo_plan ~collector ~workload:(workload_of wname) ~available_frac ~mult)
  in
  let tagged =
    List.concat_map
      (fun ((wname, mult), outcomes) ->
        List.map2
          (fun collector o -> ((wname, mult, collector), o))
          slo_collectors outcomes)
      results
  in
  Printf.printf
    "\n\
     == Beyond the paper: request-serving SLO matrix (%.0f%% of heap \
     available, %s mode) ==\n"
    (available_frac *. 100.) p.label;
  Table.print_table
    ~header:
      [
        "workload"; "x"; "collector"; "p50(ms)"; "p99(ms)"; "p999(ms)";
        "slo(ms)"; "viol"; "windows"; "faults";
      ]
    ~rows:
      (List.map
         (fun ((wname, mult, collector), outcome) ->
           match completed outcome with
           | Some ({ Metrics.serving = Some s; _ } as m) ->
               [
                 wname;
                 Printf.sprintf "%g" mult;
                 collector;
                 Printf.sprintf "%.2f" (ms s.Workload.Slo.p50_ns);
                 Printf.sprintf "%.2f" (ms s.Workload.Slo.p99_ns);
                 Printf.sprintf "%.2f" (ms s.Workload.Slo.p999_ns);
                 Printf.sprintf "%.0f" (ms s.Workload.Slo.slo_ns);
                 string_of_int s.Workload.Slo.violations;
                 string_of_int (List.length s.Workload.Slo.windows);
                 string_of_int m.Metrics.major_faults;
               ]
           | _ ->
               [
                 wname; Printf.sprintf "%g" mult; collector;
                 "-"; "-"; "-"; "-"; "-"; "-";
                 Metrics.outcome_label outcome;
               ])
         tagged);
  (* Configurations where bookmarking holds the tail under paging and a
     whole-heap baseline does not — the experiment's point. *)
  let verdicts =
    List.filter_map
      (fun ((wname, mult), outcomes) ->
        let holders, violators =
          List.partition
            (fun (_, o) ->
              match slo_summary o with
              | Some s -> Workload.Slo.meets_p999 s
              | None -> false)
            (List.combine slo_collectors outcomes)
        in
        let holders = List.map fst holders
        and violators = List.map fst violators in
        if List.mem "BC" holders && violators <> [] then
          Some (wname, mult, holders, violators)
        else None)
      results
  in
  List.iter
    (fun (wname, mult, holders, violators) ->
      Printf.printf "%s x%g: p999 SLO met by %s; violated by %s\n" wname
        mult
        (String.concat ", " holders)
        (String.concat ", " violators))
    verdicts;
  if verdicts = [] then
    Printf.printf "no configuration separated the collectors on p999\n";
  match t.slo_out with
  | None -> ()
  | Some path ->
      let open Telemetry.Json in
      let cell_json ((wname, mult, collector), outcome) =
        Obj
          ([
             ("workload", Str wname);
             ("heap_multiplier", Num mult);
             ("collector", Str collector);
             ("outcome", Str (Metrics.outcome_label outcome));
           ]
          @
          match slo_summary outcome with
          | Some s -> [ ("slo", Workload.Slo.to_json s) ]
          | None -> [])
      in
      let report =
        Obj
          [
            ("schema", Str slo_report_schema);
            ("mode", Str p.label);
            ("available_frac", Num available_frac);
            ("cells", List (List.map cell_json tagged));
            ( "holds_p999",
              List
                (List.map
                   (fun (wname, mult, holders, violators) ->
                     Obj
                       [
                         ("workload", Str wname);
                         ("heap_multiplier", Num mult);
                         ("meets", List (List.map (fun c -> Str c) holders));
                         ( "violates",
                           List (List.map (fun c -> Str c) violators) );
                       ])
                   verdicts) );
          ]
      in
      let text = to_string report in
      (match validate_slo_report text with
      | Ok n -> Printf.printf "slo report: %d cells, self-validated\n" n
      | Error e -> failwith ("slo report failed self-validation: " ^ e));
      let oc = open_out path in
      output_string oc text;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path

(* ---------------------------------------------------------------- *)
(* Targets                                                            *)

(* The paper's evaluation and the studies beyond it, in the order [all]
   runs them. *)
let paper =
  [
    (* Table 1: total allocation and measured minimum heap per benchmark,
       against the paper's (scaled) numbers. *)
    ("table1", table1);
    (* Fig. 2: geometric mean execution time relative to BC across all
       nine benchmarks, as a function of relative heap size, without
       memory pressure. *)
    ("fig2", figure2);
    (* Fig. 3(a,b): steady memory pressure (40% of the heap available):
       execution time and average GC pause vs heap size, pseudoJBB. *)
    ("fig3", figure3);
    (* Figs. 4 and 5(a,b): dynamically growing memory pressure: average
       GC pause and execution time vs available memory, including the
       fixed-nursery variants and BC w/Resizing-only. *)
    ("fig45", figure45);
    (* Fig. 6(a,b): bounded mutator utilization curves under moderate and
       severe dynamic pressure. *)
    ("fig6", figure6);
    (* Fig. 7(a,b): two simultaneous instances of pseudoJBB: execution
       time and average GC pause vs available memory. *)
    ("fig7", figure7);
    (* Design-choice ablations under dynamic pressure: bookmarks off,
       aggressive discarding off, conservative clearing off, compaction
       off, reserve sizing, fixed nursery. *)
    ("ablation", ablation);
    (* Beyond the paper: repeat the dynamic-pressure comparison with a
       modern flash swap device (~80 µs faults instead of ~5 ms). The
       memory/disk latency gap is the paper's premise; this quantifies
       how much of BC's advantage it carries. *)
    ("ssd", ssd);
    (* Beyond the paper (§7's concern): a brief memory-pressure spike
       that later releases. Compares full BC (which regrows its
       footprint target) against a no-regrow variant and GenMS,
       reporting the time spent after the release. *)
    ("recovery", recovery);
    (* Beyond the paper: heterogeneous cohabitation. Two instances share
       one memory-tight machine in three pairings (BC+BC, GenMS+GenMS,
       BC+GenMS) — does the cooperative collector get exploited by a
       paging neighbour that never gives memory back? *)
    ("mixed", mixed);
    (* The paper's shared-machine scenario (§5) head-on: each collector
       runs pseudoJBB solo and then again beside a competing GenMS
       instance on one {!Machine} with 55% of the combined heaps in
       physical memory, reporting per-process slowdown, p95 pause and
       fault counts. A second table re-runs the BC+GenMS pairing under
       the round-robin, proportional-share and priority scheduling
       policies. *)
    ("multiproc", multiprocess);
    (* Beyond the paper: robustness matrix. Every benchmark × {BC, GenMS}
       under a standard fault plan (≈30% of eviction notices dropped,
       swap I/O errors, two swap-full episodes, a scripted pressure
       spike) with the post-run invariant verifier on; prints per-cell
       ok/degraded/failed outcomes and the injected-fault counters. A
       second table runs the same fault plan against a serving workload
       (BC + a GenMS coworker sharing one memory-tight machine) and
       prints each process's request-latency percentiles and p999 SLO
       verdict. *)
    ("faults", faults);
  ]

let targets =
  paper
  @ [
      (* Closed-loop adaptive memory control: BC on jess across every
         registered controller (plus controller-off) × fault plans
         (none / benign / storm) × two pressure schedules (steady,
         ramp); prints per-cell outcome, failsafe count, p99 pause and
         the controller's peak/final degradation state, then ["control
         verdict:"] lines — each adaptive controller must beat every
         static configuration on a fault plan (fewer failsafes, or equal
         with a lower p99 pause) while staying within noise of the
         statics with no faults. *)
      ("control", control);
      (* Telemetry showcase: run BC and GenMS on pseudoJBB under dynamic
         pressure with a trace sink attached, print the per-phase
         report, and (with a [csv_dir]) write Chrome trace JSON + event
         CSV files — the JSON embeds the cell's {!Metrics.to_json}, the
         single serialisation path. *)
      ("trace", trace_export);
      (* Beyond the paper: request-serving tail latency under paging.
         Runs the serving workloads (shaped and flash arrival shapes in
         [Quick]; plus diurnal and pausing, over three heap multipliers,
         in [Full]) against {BC, GenMS, GenCopy} with 62% of the heap in
         physical memory; prints p50/p99/p999 request latency,
         SLO-violation counts and violation windows per cell, then the
         configurations where BC meets the p999 bound that a whole-heap
         collector violates. With a [slo_out] path, also writes a
         self-validated ["bcgc-slo-report/1"] JSON report. *)
      ("slo", slo);
      (* Every paper entry above, in order. *)
      ("all", fun t -> List.iter (fun (_, run) -> run t) paper);
    ]

let find name =
  List.assoc_opt (match name with "fig4" | "fig5" -> "fig45" | n -> n) targets
