(* Bit-identity regression for the hot-path overhaul.

   The simulation runs in virtual time, so making the touch chain faster
   in *wall-clock* terms must not move a single simulated number. The
   golden file (test/golden/matrix.golden) was captured from the seed
   implementation — the boxed pinfo-record page table, the closure-based
   Heap.iter_pages and the O(n) Page_map.remove — before any fast path
   landed. This test re-runs the full registry matrix (every collector
   and ablation variant, a paging and a non-paging plan, each with and
   without a telemetry trace attached) and asserts that Metrics.to_json,
   the failure diagnostics and a digest of the exported Chrome trace are
   byte-identical to that capture.

   Regenerate (only when a PR intentionally changes simulated results)
   with:  BCGC_WRITE_GOLDEN=1 dune exec test/test_identity.exe
   then copy _build/default/test/golden/matrix.golden back into test/. *)

module Metrics = Harness.Metrics
module Registry = Harness.Registry
module Json = Telemetry.Json
module Plan = Harness.Run.Plan

let golden_path = "golden/matrix.golden"

let spec =
  {
    (Workload.Spec.scale_volume Workload.Benchmarks.compress 0.12)
    with
    Workload.Spec.immortal_bytes = 300_000;
    window_bytes = 120_000;
  }

let heap_bytes = 1536 * 1024

let heap_pages = Vmsim.Page.count_for_bytes heap_bytes

(* One matrix cell: collector x {ample frames, tight frames + steady
   pressure} x {traced, untraced}. The paging plan's 40% pin forces the
   reclaim, swap and notice paths; the ample plan keeps every touch on
   the resident fast path. *)
let run_cell ~collector ~paging ~traced =
  let sink = if traced then Some (Telemetry.Sink.create ()) else None in
  let plan =
    Plan.make ~collector ~spec ~heap_bytes
    |> (if paging then fun p ->
          p
          |> Plan.with_frames (heap_pages + 128)
          |> Plan.with_pressure
               (Workload.Pressure.Steady
                  { after_progress = 0.1; pin_pages = heap_pages * 6 / 10 })
        else Fun.id)
    |> match sink with None -> Fun.id | Some s -> Plan.with_trace s
  in
  let outcome = Harness.Run.exec plan in
  let body =
    match outcome with
    | Metrics.Completed m -> Json.to_string (Metrics.to_json m)
    | other -> Format.asprintf "%a" Metrics.pp_outcome other
  in
  let trace_digest =
    match sink with
    | None -> "-"
    | Some s ->
        Digest.to_hex (Digest.string (Json.to_string (Telemetry.Export.chrome_json s)))
  in
  Printf.sprintf "%s paging=%b traced=%b %s | %s | trace=%s" collector paging
    traced
    (Metrics.outcome_label outcome)
    body trace_digest

let matrix_lines () =
  List.concat_map
    (fun (info : Registry.info) ->
      List.concat_map
        (fun paging ->
          List.map
            (fun traced -> run_cell ~collector:info.Registry.name ~paging ~traced)
            [ false; true ])
        [ false; true ])
    Registry.all

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_matrix () =
  let text = String.concat "\n" (matrix_lines ()) ^ "\n" in
  match Sys.getenv_opt "BCGC_WRITE_GOLDEN" with
  | Some _ ->
      (try Unix.mkdir "golden" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let oc = open_out_bin golden_path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %d cells to %s\n"
        (List.length (String.split_on_char '\n' text) - 1)
        golden_path
  | None ->
      if not (Sys.file_exists golden_path) then
        Alcotest.fail
          "golden/matrix.golden missing — regenerate with BCGC_WRITE_GOLDEN=1";
      Alcotest.check Alcotest.string "registry matrix bit-identical to seed"
        (read_file golden_path) text

(* Serving cells get their own golden (golden/serving.golden): the batch
   matrix above must stay byte-identical to the pre-serving capture, so
   the new family's cells are appended as a separate file rather than
   new lines in matrix.golden. Same regeneration protocol. *)
let serving_golden_path = "golden/serving.golden"

let serving_spec =
  {
    (Workload.Request.scale_volume Workload.Catalog.srv_flash 0.1) with
    Workload.Request.seed = 31;
  }

let serving_heap_bytes = serving_spec.Workload.Request.base_heap_bytes

let serving_heap_pages = Vmsim.Page.count_for_bytes serving_heap_bytes

let run_serving_cell ~collector ~paging =
  let plan =
    Plan.make_workload ~collector
      ~workload:(Workload.Catalog.Serving_spec serving_spec)
      ~heap_bytes:serving_heap_bytes
    |>
    if paging then fun p ->
      p
      |> Plan.with_frames (serving_heap_pages + 128)
      |> Plan.with_pressure
           (Workload.Pressure.Steady
              { after_progress = 0.1; pin_pages = serving_heap_pages * 6 / 10 })
    else Fun.id
  in
  let outcome = Harness.Run.exec plan in
  let body =
    match outcome with
    | Metrics.Completed m -> Json.to_string (Metrics.to_json m)
    | other -> Format.asprintf "%a" Metrics.pp_outcome other
  in
  Printf.sprintf "%s paging=%b %s | %s" collector paging
    (Metrics.outcome_label outcome)
    body

let serving_lines () =
  List.concat_map
    (fun collector ->
      List.map (fun paging -> run_serving_cell ~collector ~paging) [ false; true ])
    [ "BC"; "GenMS"; "GenCopy" ]

let test_serving_matrix () =
  let text = String.concat "\n" (serving_lines ()) ^ "\n" in
  match Sys.getenv_opt "BCGC_WRITE_GOLDEN" with
  | Some _ ->
      (try Unix.mkdir "golden" 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let oc = open_out_bin serving_golden_path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %d cells to %s\n"
        (List.length (String.split_on_char '\n' text) - 1)
        serving_golden_path
  | None ->
      if not (Sys.file_exists serving_golden_path) then
        Alcotest.fail
          "golden/serving.golden missing — regenerate with BCGC_WRITE_GOLDEN=1";
      Alcotest.check Alcotest.string "serving matrix bit-identical"
        (read_file serving_golden_path)
        text

(* Sparse cells: the same batch workload, placed at an address base just
   below 2^30 so the heap straddles the boundary and every page number
   is giant. Gets its own golden (golden/sparse.golden) — matrix.golden
   must stay byte-identical to the pre-sparse capture — with the same
   regeneration protocol. *)
let sparse_golden_path = "golden/sparse.golden"

(* Just past 2^30, chosen congruent to the default base (16) mod 63 so
   [Bitset.word_peers] groups pages into the same 63-bit words: BC's
   residency clustering reasons in word granules, so a base that shifts
   word boundaries legitimately changes which pages get discarded
   together (and nothing else). With the alignment pinned, every
   simulated number must match the default-base run exactly. *)
let sparse_base = (1 lsl 30) + 15

let run_sparse_cell ~collector ~paging =
  let plan =
    Plan.make ~collector ~spec ~heap_bytes
    |> Plan.with_address_base sparse_base
    |>
    if paging then fun p ->
      p
      |> Plan.with_frames (heap_pages + 128)
      |> Plan.with_pressure
           (Workload.Pressure.Steady
              { after_progress = 0.1; pin_pages = heap_pages * 6 / 10 })
    else Fun.id
  in
  let outcome = Harness.Run.exec plan in
  let body =
    match outcome with
    | Metrics.Completed m -> Json.to_string (Metrics.to_json m)
    | other -> Format.asprintf "%a" Metrics.pp_outcome other
  in
  Printf.sprintf "%s paging=%b base=%d %s | %s" collector paging sparse_base
    (Metrics.outcome_label outcome)
    body

let sparse_lines () =
  List.concat_map
    (fun collector ->
      List.map (fun paging -> run_sparse_cell ~collector ~paging) [ false; true ])
    [ "BC"; "GenMS"; "GenCopy" ]

let test_sparse_matrix () =
  let text = String.concat "\n" (sparse_lines ()) ^ "\n" in
  match Sys.getenv_opt "BCGC_WRITE_GOLDEN" with
  | Some _ ->
      (try Unix.mkdir "golden" 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let oc = open_out_bin sparse_golden_path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %d cells to %s\n"
        (List.length (String.split_on_char '\n' text) - 1)
        sparse_golden_path
  | None ->
      if not (Sys.file_exists sparse_golden_path) then
        Alcotest.fail
          "golden/sparse.golden missing — regenerate with BCGC_WRITE_GOLDEN=1";
      Alcotest.check Alcotest.string "sparse matrix bit-identical"
        (read_file sparse_golden_path)
        text

(* All simulated metrics must be independent of the address base: only
   page *numbers* shift, never counts, faults or times. Compare the
   outcome JSON of the default-base and giant-base runs directly. *)
let test_base_independence () =
  let body line =
    match String.index_opt line '|' with
    | Some i -> String.trim (String.sub line i (String.length line - i))
    | None -> line
  in
  let strip_digest s =
    match String.rindex_opt s '|' with
    | Some i -> String.trim (String.sub s 0 i)
    | None -> s
  in
  List.iter
    (fun paging ->
      let a = run_cell ~collector:"BC" ~paging ~traced:false in
      let b = run_sparse_cell ~collector:"BC" ~paging in
      Alcotest.check Alcotest.string
        (Printf.sprintf "paging=%b" paging)
        (strip_digest (body a))
        (body b))
    [ false; true ]

(* A BC paging cell under a five-mechanism fault plan: dropped, delayed
   and duplicated notices and transient swap-write errors. The fault
   plan's RNG draws happen at VMM events, so the cell is the sharpest
   check that tracing adds no event and moves no draw. *)
let run_faulted_cell ~traced =
  let sink = if traced then Some (Telemetry.Sink.create ()) else None in
  let faults =
    {
      Faults.Fault_plan.none with
      Faults.Fault_plan.drop_eviction = 0.3;
      drop_resident = 0.1;
      delay_notice = 0.2;
      duplicate_notice = 0.1;
      swap_write_error = 0.02;
    }
  in
  let plan =
    Plan.make ~collector:"BC" ~spec ~heap_bytes
    |> Plan.with_frames (heap_pages + 128)
    |> Plan.with_pressure
         (Workload.Pressure.Steady
            { after_progress = 0.1; pin_pages = heap_pages * 6 / 10 })
    |> Plan.with_faults ~seed:11 faults
    |> match sink with None -> Fun.id | Some s -> Plan.with_trace s
  in
  let outcome = Harness.Run.exec plan in
  let body =
    match outcome with
    | Metrics.Completed m -> Json.to_string (Metrics.to_json m)
    | other -> Format.asprintf "%a" Metrics.pp_outcome other
  in
  let trace_digest =
    match sink with
    | None -> "-"
    | Some s ->
        Digest.to_hex
          (Digest.string (Json.to_string (Telemetry.Export.chrome_json s)))
  in
  Printf.sprintf "%s | trace=%s" body trace_digest

(* The traced and untraced run of the same plan must also agree with
   *each other* (the golden proves agreement with the past; this proves
   the sink has no virtual-time effect in the same build). *)
let test_traced_untraced_agree () =
  let strip_digest s =
    match String.rindex_opt s '|' with Some i -> String.sub s 0 i | None -> s
  in
  List.iter
    (fun paging ->
      let strip line =
        (* drop the "traced=..." token *)
        match String.index_opt line '|' with
        | Some i -> String.sub line i (String.length line - i)
        | None -> line
      in
      let a = run_cell ~collector:"BC" ~paging ~traced:false in
      let b = run_cell ~collector:"BC" ~paging ~traced:true in
      Alcotest.check Alcotest.string
        (Printf.sprintf "paging=%b" paging)
        (strip_digest (strip a))
        (strip_digest (strip b)))
    [ false; true ];
  let faulted = strip_digest (run_faulted_cell ~traced:false) in
  (* the cell must actually exercise the fault machinery *)
  let injected =
    let ( let* ) = Option.bind in
    let* f = Json.member "faults" (Json.of_string faulted) in
    let* n = Json.member "injected_total" f in
    Json.num_opt n
  in
  Alcotest.check Alcotest.bool "faults injected" true
    (match injected with Some n -> n > 0.0 | None -> false);
  Alcotest.check Alcotest.string "faulted cell" faulted
    (strip_digest (run_faulted_cell ~traced:true))

(* Every execution backend must produce byte-for-byte the matrix the
   golden records: the simulation is deterministic in virtual time, so
   fork workers, pooled domains and the sequential loop may differ only
   in wall-clock. Ordering matters twice over — fork before domains
   within the test (the runtime forbids Unix.fork once a domain has
   ever been spawned), and the test itself last in the suite so no
   earlier test is denied fork. *)
let test_backend_equivalence () =
  let items =
    Array.of_list
      (List.concat_map
         (fun (info : Registry.info) ->
           List.concat_map
             (fun paging ->
               List.map
                 (fun traced -> (info.Registry.name, paging, traced))
                 [ false; true ])
             [ false; true ])
         Registry.all)
  in
  let exec (collector, paging, traced) = run_cell ~collector ~paging ~traced in
  let seq = Array.map exec items in
  let values backend =
    let cells, _ =
      Harness.Supervisor.run ~jobs:2 ~backend exec items
    in
    Array.map
      (function
        | Harness.Supervisor.Done { value; _ } -> value
        | Harness.Supervisor.Quarantined { failures; _ } ->
            Alcotest.fail (Harness.Supervisor.describe_failures failures))
      cells
  in
  let forked = values `Fork in
  let domains = values `Domains in
  Harness.Domain_pool.shutdown_global ();
  Array.iteri
    (fun i (collector, paging, traced) ->
      let label suffix =
        Printf.sprintf "%s paging=%b traced=%b (%s)" collector paging traced
          suffix
      in
      Alcotest.check Alcotest.string (label "fork = seq") seq.(i) forked.(i);
      Alcotest.check Alcotest.string (label "domains = seq") seq.(i) domains.(i))
    items;
  (* and the domains sweep reproduces the seed golden verbatim *)
  if Sys.file_exists golden_path then
    Alcotest.check Alcotest.string "domains sweep vs seed golden"
      (read_file golden_path)
      (String.concat "\n" (Array.to_list domains) ^ "\n")

let () =
  Alcotest.run "identity"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "registry matrix vs seed golden" `Quick test_matrix;
          Alcotest.test_case "serving matrix vs golden" `Quick
            test_serving_matrix;
          Alcotest.test_case "sparse matrix vs golden" `Quick
            test_sparse_matrix;
          Alcotest.test_case "base independence" `Quick test_base_independence;
          Alcotest.test_case "traced = untraced" `Quick
            test_traced_untraced_agree;
          Alcotest.test_case "fork = domains = sequential" `Quick
            test_backend_equivalence;
        ] );
    ]
