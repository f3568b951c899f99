(* Bechamel suite: one test per paper table/figure, each measuring the
   real time of a miniature instance of that experiment's simulation
   kernel. The tables and figures themselves come from `bcgc bench`.

   Usage: dune exec bench/main.exe *)

let bechamel_tests () =
  let open Bechamel in
  let mini_spec volume =
    {
      (Workload.Spec.scale_volume Workload.Benchmarks.pseudojbb volume) with
      Workload.Spec.immortal_bytes = 300_000;
      window_bytes = 120_000;
    }
  in
  let run_once ~collector ~pressure () =
    let spec = mini_spec 0.02 in
    let heap_bytes = 2 * 1024 * 1024 in
    let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
    let plan =
      let base = Harness.Run.Plan.make ~collector ~spec ~heap_bytes in
      match pressure with
      | `None -> base
      | `Steady ->
          base
          |> Harness.Run.Plan.with_frames (heap_pages + 128)
          |> Harness.Run.Plan.with_pressure
               (Workload.Pressure.Steady
                  { after_progress = 0.1; pin_pages = heap_pages * 6 / 10 })
    in
    match Harness.Run.exec plan with
    | Harness.Metrics.Completed _ -> ()
    | Harness.Metrics.Exhausted msg | Harness.Metrics.Thrashed msg ->
        failwith msg
    | Harness.Metrics.Failed f -> failwith f.Harness.Metrics.reason
  in
  let staged f = Staged.stage f in
  [
    Test.make ~name:"table1:minheap-probe"
      (staged (fun () ->
           ignore
             (Harness.Minheap.find ~volume_scale:0.02 ~collector:"BC"
                ~spec:Workload.Benchmarks.jess ())));
    Test.make ~name:"fig2:no-pressure-BC"
      (staged (run_once ~collector:"BC" ~pressure:`None));
    Test.make ~name:"fig3:steady-BC"
      (staged (run_once ~collector:"BC" ~pressure:`Steady));
    Test.make ~name:"fig4+5:steady-GenMS"
      (staged (run_once ~collector:"GenMS" ~pressure:`Steady));
    Test.make ~name:"fig6:steady-BC-resize"
      (staged (run_once ~collector:"BC-resize" ~pressure:`Steady));
    Test.make ~name:"fig7:pair-BC"
      (staged (fun () ->
           let spec = mini_spec 0.02 in
           let heap_bytes = 2 * 1024 * 1024 in
           let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
           ignore
             (Harness.Run.exec_all
                (Harness.Run.Plan.make ~collector:"BC" ~spec ~heap_bytes
                |> Harness.Run.Plan.with_frames (2 * heap_pages)
                |> Harness.Run.Plan.with_process ~collector:"BC" ~spec))));
  ]

let () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"experiments" (bechamel_tests ()))
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
          Printf.printf "%-40s %12.3f ms/run\n" name (est /. 1e6)
      | Some [] | None -> Printf.printf "%-40s (no estimate)\n" name)
    results
