(* Cell lists of the benchmark's workloads.

   A cell is one single-process simulation: a collector, a workload, a
   heap size, a frame count and a pressure schedule. Each workload's cells
   are fixed, every spec keeping its own RNG seed, so every run does the
   same simulated work; the benchmark seed only orders them ([order]).
   Reseeding the specs would change object graphs and collector work from
   seed to seed, and that difference would read as host-time noise. *)

module Catalog = Workload.Catalog
module Spec = Workload.Spec
module Pressure = Workload.Pressure

type workload = Ample_heap | Tight_heap | Paging | Sweep_domains

let workloads =
  [
    ("ample_heap", Ample_heap);
    ("tight_heap", Tight_heap);
    ("paging", Paging);
    ("sweep_domains", Sweep_domains);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let workload_of_string s = List.assoc_opt s workloads

let default_seed = 1

type cell = {
  label : string;
  collector : string;
  params : Catalog.params;
  heap_bytes : int;
  frames : int option;  (* None = the harness's ample default *)
  pressure : Pressure.t;
  event_cap : int option;
}

let plan c =
  let p =
    Harness.Run.Plan.make_workload ~collector:c.collector ~workload:c.params
      ~heap_bytes:c.heap_bytes
  in
  let p =
    match c.frames with Some f -> Harness.Run.Plan.with_frames f p | None -> p
  in
  let p =
    match c.pressure with
    | Pressure.None_ -> p
    | pr -> Harness.Run.Plan.with_pressure pr p
  in
  match c.event_cap with
  | Some cap -> Harness.Run.Plan.with_event_cap cap p
  | None -> p

let times mult bytes = int_of_float (mult *. float_of_int bytes)

(* Allocation volume per cell, as a share of each spec's Table 1 volume
   capped so that no single benchmark dominates a round: every batch
   cell allocates [min total cap] bytes. *)
let batch_params ~cap_bytes spec =
  let vol =
    Float.min 1.0
      (float_of_int cap_bytes /. float_of_int spec.Spec.total_alloc_bytes)
  in
  Catalog.Batch_spec (Spec.scale_volume spec vol)

let label collector params heap_mult =
  Printf.sprintf "%s/%s x%.2f" collector (Catalog.params_name params) heap_mult

let batch_cells ?(specs = Catalog.batch_specs) ~collectors ~heap_mult
    ~cap_bytes () =
  List.concat_map
    (fun spec ->
      let params = batch_params ~cap_bytes spec in
      List.map
        (fun collector ->
          {
            label = label collector params heap_mult;
            collector;
            params;
            heap_bytes = times heap_mult (Catalog.base_heap_bytes params);
            frames = None;
            pressure = Pressure.None_;
            event_cap = None;
          })
        collectors)
    specs

(* Figure 3's set-up: frames for the heap plus 128 pages, and signalmem
   pinning 60% of the heap's pages once 10% of the run is done. *)
let fig3_cell ~collector ~params ~heap_mult =
  let heap_bytes = times heap_mult (Catalog.base_heap_bytes params) in
  let heap_pages = Vmsim.Page.count_for_bytes heap_bytes in
  {
    label = label collector params heap_mult ^ " fig3";
    collector;
    params;
    heap_bytes;
    frames = Some (heap_pages + 128);
    pressure =
      Pressure.Steady { after_progress = 0.1; pin_pages = heap_pages * 6 / 10 };
    event_cap = None;
  }

let ample_collectors = [ "BC"; "GenMS"; "GenCopy"; "MarkSweep" ]

let tight_collectors = [ "SemiSpace"; "MarkSweep"; "CopyMS" ]

let paging_collectors = [ "BC"; "BC-resize"; "GenMS"; "GenCopy"; "CopyMS" ]

(* Per-cell allocation caps, sized so that one cell takes tens of
   milliseconds of host time. *)
let ample_cap_bytes = 4_000_000

let tight_cap_bytes = 2_000_000

let paging_volume = 0.12

let paging_serving_volume = 0.25

let single_process_cells = function
  | Ample_heap ->
      batch_cells ~collectors:ample_collectors ~heap_mult:3.0
        ~cap_bytes:ample_cap_bytes ()
  | Tight_heap ->
      (* pseudoJBB's live set is more than half of 1.25x its minimum
         heap, so SemiSpace cannot run it there *)
      batch_cells
        ~specs:
          (List.filter
             (fun s -> s.Spec.name <> "pseudoJBB")
             Catalog.batch_specs)
        ~collectors:tight_collectors ~heap_mult:1.25
        ~cap_bytes:tight_cap_bytes ()
  | Paging ->
      let pjbb =
        Catalog.Batch_spec
          (Spec.scale_volume Workload.Benchmarks.pseudojbb paging_volume)
      in
      let srv =
        Catalog.scale_volume (Catalog.Serving_spec Catalog.srv_fixed)
          paging_serving_volume
      in
      List.concat_map
        (fun collector ->
          [
            fig3_cell ~collector ~params:pjbb ~heap_mult:1.5;
            fig3_cell ~collector ~params:srv ~heap_mult:1.5;
          ])
        paging_collectors
  | Sweep_domains -> invalid_arg "Cells.single_process_cells: sweep_domains"

(* The order a seed runs [n] cells in: a seeded Fisher-Yates
   permutation of their indices. *)
let order ~seed n =
  let a = Array.init n Fun.id in
  let st = Random.State.make [| seed; 0x5eed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* The campaign sweep                                                  *)

(* The sweep runs the committed spec as it stands, whatever the seed: the
   order cells reach the domain pool decides which of them share a worker
   and, with that, the process's peak memory. *)
let sweep_spec_file = Filename.concat "perfbench" "sweep_domains.json"

let sweep_campaign ~journal =
  match Harness.Campaign.of_file sweep_spec_file with
  | Ok c -> { c with Harness.Campaign.journal }
  | Error e -> failwith (sweep_spec_file ^ ": " ^ e)

(* The campaign's cells rebuilt as benchmark cells, so the traced run can
   construct them through the Machine API. Only the spec features the
   committed sweep uses are supported (plain workload names, no fault
   plans, no controllers, one iteration); the caller checks each rebuilt
   plan's digest against the campaign's own. *)
let of_campaign (c : Harness.Campaign.t) =
  let module C = Harness.Campaign in
  if c.C.iterations <> 1 then invalid_arg "Cells.of_campaign: iterations";
  if c.C.fault_plans <> [ "none" ] || c.C.controllers <> [ "off" ] then
    invalid_arg "Cells.of_campaign: fault plans and controllers must be off";
  List.concat_map
    (fun collector ->
      List.concat_map
        (fun wname ->
          let base =
            match Catalog.find_opt wname with
            | Some info -> info.Catalog.params
            | None -> invalid_arg ("Cells.of_campaign: workload " ^ wname)
          in
          let params =
            if c.C.volume = 1.0 then base else Catalog.scale_volume base c.C.volume
          in
          List.concat_map
            (fun mult ->
              let heap_bytes = times mult (Catalog.base_heap_bytes base) in
              List.map
                (fun pstr ->
                  let pressure =
                    match C.pressure_of_string pstr with
                    | Ok p -> p
                    | Error e -> invalid_arg e
                  in
                  let frames =
                    Option.map
                      (fun frac ->
                        max 64
                          (int_of_float
                             (frac
                             *. float_of_int
                                  (Vmsim.Page.count_for_bytes heap_bytes))))
                      c.C.frames_fraction
                  in
                  {
                    label = label collector params mult ^ " " ^ pstr;
                    collector;
                    params;
                    heap_bytes;
                    frames;
                    pressure;
                    event_cap = c.C.event_cap;
                  })
                c.C.pressures)
            c.C.heap_multipliers)
        c.C.workloads)
    c.C.collectors
