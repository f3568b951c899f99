module Json = Telemetry.Json
module Fault_plan = Faults.Fault_plan
module Pressure = Workload.Pressure

type retry = { attempts : int; backoff_s : float }

type t = {
  name : string;
  collectors : string list;
  workloads : string list;
  volume : float;
  heap_multipliers : float list;
  fault_plans : string list;
  pressures : string list;
  controllers : string list;
  fault_seed : int;
  iterations : int;
  frames_fraction : float option;
  deadline_s : float option;
  event_cap : int option;
  retry : retry;
  journal : string;
}

type cell = {
  index : int;
  label : string;
  digest : string;
  plan : Run.Plan.t;
}

let schema_version = "bcgc-campaign/1"
let report_schema = "bcgc-campaign-report/1"

(* ------------------------------------------------------------------ *)
(* Workload grammar: NAME, or NAME@SHAPE to override a serving
   workload's load shape (SHAPE per [Workload.Shapes.of_string]).       *)

let split_workload w =
  match String.index_opt w '@' with
  | None -> (w, None)
  | Some i ->
      (String.sub w 0 i, Some (String.sub w (i + 1) (String.length w - i - 1)))

let resolve_workload w =
  let name, shape = split_workload w in
  match Workload.Catalog.find_opt name with
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (known: %s)" name
           (String.concat ", " (Workload.Catalog.names ())))
  | Some info -> (
      match shape with
      | None -> Ok info.Workload.Catalog.params
      | Some s -> (
          match info.Workload.Catalog.family with
          | Workload.Catalog.Batch ->
              Error
                (Printf.sprintf
                   "workload %S: batch workloads take no @SHAPE override" w)
          | Workload.Catalog.Serving -> (
              match Workload.Shapes.of_string s with
              | shape ->
                  Ok (Workload.Catalog.with_shape shape
                        info.Workload.Catalog.params)
              | exception Failure m ->
                  Error (Printf.sprintf "workload %S: %s" w m))))

(* ------------------------------------------------------------------ *)
(* Pressure-schedule grammar                                           *)

let pressure_of_string s =
  let err () =
    Error
      (Printf.sprintf
         "bad pressure %S (want none | steady:PAGES[@FRAC] | \
          ramp:INIT:STEP:STEP_MS:MAX)"
         s)
  in
  if s = "none" then Ok Pressure.None_
  else
    match String.index_opt s ':' with
    | None -> err ()
    | Some i -> (
        let kind = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match kind with
        | "steady" -> (
            let pages_s, frac =
              match String.index_opt rest '@' with
              | None -> (rest, Some 0.1)
              | Some j ->
                  ( String.sub rest 0 j,
                    float_of_string_opt
                      (String.sub rest (j + 1) (String.length rest - j - 1))
                  )
            in
            match (int_of_string_opt pages_s, frac) with
            | Some p, Some f when p > 0 && f >= 0. && f <= 1. ->
                Ok (Pressure.Steady { after_progress = f; pin_pages = p })
            | _ -> err ())
        | "ramp" -> (
            match
              List.map int_of_string_opt (String.split_on_char ':' rest)
            with
            | [ Some init; Some step; Some step_ms; Some maxp ]
              when init >= 0 && step > 0 && step_ms > 0 && maxp >= init ->
                Ok
                  (Pressure.Ramp
                     {
                       after_progress = 0.1;
                       initial_pages = init;
                       pages_per_step = step;
                       step_ns = step_ms * 1_000_000;
                       max_pages = maxp;
                     })
            | _ -> err ())
        | _ -> err ())

(* ------------------------------------------------------------------ *)
(* Spec parsing & validation                                           *)

exception Spec_error of string

let failf fmt = Printf.ksprintf (fun m -> raise (Spec_error m)) fmt

let allowed_keys =
  [
    "schema"; "name"; "collectors"; "workloads"; "volume";
    "heap_multipliers"; "fault_plans"; "pressures"; "controllers";
    "fault_seed"; "iterations"; "frames_fraction"; "deadline_s";
    "event_cap"; "retry"; "journal";
  ]

let str_field j key =
  match Json.member key j with
  | Some (Json.Str s) -> s
  | Some _ -> failf "%s: expected a string" key
  | None -> failf "missing required field %S" key

let opt_num j key =
  match Json.member key j with
  | None | Some Json.Null -> None
  | Some (Json.Num f) -> Some f
  | Some _ -> failf "%s: expected a number" key

let opt_int j key =
  match opt_num j key with
  | None -> None
  | Some f when Float.is_integer f -> Some (int_of_float f)
  | Some _ -> failf "%s: expected an integer" key

let str_list j key =
  match Json.member key j with
  | Some (Json.List items) ->
      List.map
        (function
          | Json.Str s -> s
          | _ -> failf "%s: expected a list of strings" key)
        items
  | Some _ -> failf "%s: expected a list of strings" key
  | None -> failf "missing required field %S" key

let num_list j key =
  match Json.member key j with
  | Some (Json.List items) ->
      List.map
        (function
          | Json.Num f -> f
          | _ -> failf "%s: expected a list of numbers" key)
        items
  | Some _ -> failf "%s: expected a list of numbers" key
  | None -> failf "missing required field %S" key

(* Duplicate sweep entries would enumerate two cells with the same plan
   digest, making journal records ambiguous — reject at parse time. *)
let check_distinct key to_str xs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let s = to_str x in
      if Hashtbl.mem seen s then failf "%s: duplicate entry %S" key s;
      Hashtbl.add seen s ())
    xs

let of_json j =
  try
    (match j with
    | Json.Obj fields ->
        List.iter
          (fun (k, _) ->
            if not (List.mem k allowed_keys) then
              failf "unknown field %S in campaign spec" k)
          fields
    | _ -> failf "campaign spec must be a JSON object");
    (match Json.member "schema" j with
    | Some (Json.Str s) when s = schema_version -> ()
    | Some (Json.Str s) ->
        failf "unsupported schema %S (this build reads %S)" s schema_version
    | _ -> failf "missing required field \"schema\" (%S)" schema_version);
    let name = str_field j "name" in
    let collectors = str_list j "collectors" in
    if collectors = [] then failf "collectors: must not be empty";
    List.iter
      (fun c ->
        if Registry.find c = None then
          failf "unknown collector %S (known: %s)" c
            (String.concat ", " Registry.names))
      collectors;
    check_distinct "collectors" Fun.id collectors;
    let workloads = str_list j "workloads" in
    if workloads = [] then failf "workloads: must not be empty";
    List.iter
      (fun w ->
        match resolve_workload w with
        | Ok (_ : Workload.Catalog.params) -> ()
        | Error e -> failf "%s" e)
      workloads;
    check_distinct "workloads" Fun.id workloads;
    let volume = Option.value (opt_num j "volume") ~default:1.0 in
    if volume <= 0. then failf "volume: must be positive";
    let heap_multipliers = num_list j "heap_multipliers" in
    if heap_multipliers = [] then failf "heap_multipliers: must not be empty";
    List.iter
      (fun m -> if m <= 0. then failf "heap_multipliers: must be positive")
      heap_multipliers;
    check_distinct "heap_multipliers" (Printf.sprintf "%.17g") heap_multipliers;
    let fault_plans =
      match Json.member "fault_plans" j with
      | None -> [ "none" ]
      | Some _ -> str_list j "fault_plans"
    in
    if fault_plans = [] then failf "fault_plans: must not be empty";
    List.iter
      (fun f ->
        match Fault_plan.spec_of_string f with
        | Ok _ -> ()
        | Error e -> failf "fault_plans: %s" e)
      fault_plans;
    check_distinct "fault_plans" Fun.id fault_plans;
    let pressures =
      match Json.member "pressures" j with
      | None -> [ "none" ]
      | Some _ -> str_list j "pressures"
    in
    if pressures = [] then failf "pressures: must not be empty";
    List.iter
      (fun p ->
        match pressure_of_string p with
        | Ok _ -> ()
        | Error e -> failf "pressures: %s" e)
      pressures;
    check_distinct "pressures" Fun.id pressures;
    let controllers =
      match Json.member "controllers" j with
      | None -> [ "off" ]
      | Some _ -> str_list j "controllers"
    in
    if controllers = [] then failf "controllers: must not be empty";
    List.iter
      (fun c ->
        if c <> "off" && Control.Registry.find_opt c = None then
          failf "unknown controller %S (known: off, %s)" c
            (String.concat ", " (Control.Registry.names ())))
      controllers;
    check_distinct "controllers" Fun.id controllers;
    let fault_seed =
      Option.value (opt_int j "fault_seed") ~default:Run.default_fault_seed
    in
    let iterations = Option.value (opt_int j "iterations") ~default:1 in
    if iterations < 1 then failf "iterations: must be >= 1";
    let frames_fraction = opt_num j "frames_fraction" in
    Option.iter
      (fun f -> if f <= 0. then failf "frames_fraction: must be positive")
      frames_fraction;
    let deadline_s = opt_num j "deadline_s" in
    Option.iter
      (fun d -> if d <= 0. then failf "deadline_s: must be positive")
      deadline_s;
    let event_cap = opt_int j "event_cap" in
    Option.iter
      (fun c -> if c < 1 then failf "event_cap: must be >= 1")
      event_cap;
    let retry =
      match Json.member "retry" j with
      | None -> { attempts = 2; backoff_s = 0.25 }
      | Some r ->
          let attempts = Option.value (opt_int r "attempts") ~default:2 in
          if attempts < 1 then failf "retry.attempts: must be >= 1";
          let backoff_s =
            Option.value (opt_num r "backoff_s") ~default:0.25
          in
          if backoff_s < 0. then failf "retry.backoff_s: must be >= 0";
          (match r with
          | Json.Obj fields ->
              List.iter
                (fun (k, _) ->
                  if k <> "attempts" && k <> "backoff_s" then
                    failf "unknown field %S in retry policy" k)
                fields
          | _ -> failf "retry: expected an object");
          { attempts; backoff_s }
    in
    let journal = str_field j "journal" in
    if journal = "" then failf "journal: must not be empty";
    Ok
      {
        name;
        collectors;
        workloads;
        volume;
        heap_multipliers;
        fault_plans;
        pressures;
        controllers;
        fault_seed;
        iterations;
        frames_fraction;
        deadline_s;
        event_cap;
        retry;
        journal;
      }
  with Spec_error m -> Error m

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let of_file path =
  match read_file path with
  | exception Sys_error m -> Error m
  | content -> (
      match Json.of_string_opt content with
      | None -> Error (Printf.sprintf "%s: not valid JSON" path)
      | Some j -> (
          match of_json j with
          | Ok t -> Ok t
          | Error e -> Error (Printf.sprintf "%s: %s" path e)))

(* ------------------------------------------------------------------ *)
(* Cell enumeration                                                    *)

let cells t =
  let idx = ref 0 in
  let acc = ref [] in
  List.iter
    (fun collector ->
      List.iter
        (fun wname ->
          let base =
            match resolve_workload wname with
            | Ok p -> p
            | Error e -> invalid_arg e
          in
          let workload =
            if t.volume = 1.0 then base
            else Workload.Catalog.scale_volume base t.volume
          in
          List.iter
            (fun mult ->
              let heap_bytes =
                int_of_float
                  (mult
                  *. float_of_int (Workload.Catalog.base_heap_bytes base))
              in
              List.iter
                (fun fstr ->
                  List.iter
                    (fun pstr ->
                      let plan =
                        Run.Plan.make_workload ~collector ~workload
                          ~heap_bytes
                      in
                      let plan =
                        match t.frames_fraction with
                        | None -> plan
                        | Some frac ->
                            let heap_pages =
                              Vmsim.Page.count_for_bytes heap_bytes
                            in
                            Run.Plan.with_frames
                              (max 64
                                 (int_of_float
                                    (frac *. float_of_int heap_pages)))
                              plan
                      in
                      let plan =
                        if t.iterations > 1 then
                          Run.Plan.with_iterations t.iterations plan
                        else plan
                      in
                      let plan =
                        match pressure_of_string pstr with
                        | Ok Pressure.None_ -> plan
                        | Ok p -> Run.Plan.with_pressure p plan
                        | Error e -> invalid_arg e
                      in
                      let plan =
                        match Fault_plan.spec_of_string fstr with
                        | Ok sp when sp = Fault_plan.none -> plan
                        | Ok sp ->
                            Run.Plan.with_faults ~seed:t.fault_seed sp plan
                        | Error e -> invalid_arg e
                      in
                      let plan =
                        match t.event_cap with
                        | Some c -> Run.Plan.with_event_cap c plan
                        | None -> plan
                      in
                      List.iter
                        (fun ctl ->
                          let plan =
                            if ctl = "off" then plan
                            else Run.Plan.with_controller ctl plan
                          in
                          (* "off" cells keep the historical label (and
                             plan digest), so controller-less specs
                             enumerate exactly as before *)
                          let label =
                            Printf.sprintf "%s/%s x%g faults=%s press=%s%s"
                              collector wname mult fstr pstr
                              (if ctl = "off" then ""
                               else " ctl=" ^ ctl)
                          in
                          acc :=
                            {
                              index = !idx;
                              label;
                              digest = Run.Plan.digest plan;
                              plan;
                            }
                            :: !acc;
                          incr idx)
                        t.controllers)
                    t.pressures)
                t.fault_plans)
            t.heap_multipliers)
        t.workloads)
    t.collectors;
  List.rev !acc

let campaign_digest_of_cells cs =
  Digest.to_hex
    (Digest.string
       (schema_version ^ "|" ^ String.concat "," (List.map (fun c -> c.digest) cs)))

let campaign_digest t = campaign_digest_of_cells (cells t)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Full-file durability for header and report: write to a sibling temp
   file, fsync, rename — a crash leaves either the old file or the new
   one, never a prefix. *)
let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd content 0 (String.length content);
      Unix.fsync fd);
  Unix.rename tmp path

module Journal = struct
  type entry = {
    cell : string;
    label : string;
    attempts : int;
    outcome_label : string;
    outcome : Json.t;
  }

  let header_line ~name ~digest ~cells =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str schema_version);
           ("name", Json.Str name);
           ("campaign_digest", Json.Str digest);
           ("cells", Json.int cells);
         ])

  let entry_line e =
    Json.to_string
      (Json.Obj
         [
           ("cell", Json.Str e.cell);
           ("label", Json.Str e.label);
           ("attempts", Json.int e.attempts);
           ("outcome_label", Json.Str e.outcome_label);
           ("outcome", e.outcome);
         ])

  let create ~path ~name ~digest ~cells =
    write_file_atomic path (header_line ~name ~digest ~cells ^ "\n")

  (* One write(2), then fsync: a crash can tear only the final line of
     the file, and [load] discards exactly that. *)
  let append fd e =
    let line = entry_line e ^ "\n" in
    write_all fd line 0 (String.length line);
    Unix.fsync fd

  let entry_of_json j =
    let str k = Option.bind (Json.member k j) Json.str_opt in
    match
      ( str "cell",
        str "label",
        Option.bind (Json.member "attempts" j) Json.num_opt,
        str "outcome_label",
        Json.member "outcome" j )
    with
    | Some cell, Some label, Some att, Some outcome_label, Some outcome
      when Float.is_integer att ->
        Some
          {
            cell;
            label;
            attempts = int_of_float att;
            outcome_label;
            outcome;
          }
    | _ -> None

  let load ~path ~expect_digest =
    match read_file path with
    | exception Sys_error m -> Error m
    | content -> (
        let segs = String.split_on_char '\n' content in
        let nsegs = List.length segs in
        (* A well-formed journal ends with '\n', so the final segment is
           empty; anything else there is a torn record from a crash
           mid-append, and only there do we forgive. *)
        match segs with
        | [] | [ "" ] -> Error (path ^ ": empty journal")
        | header :: rest -> (
            match Json.of_string_opt header with
            | None -> Error (path ^ ": corrupt journal header")
            | Some h -> (
                let hstr k = Option.bind (Json.member k h) Json.str_opt in
                match (hstr "schema", hstr "campaign_digest") with
                | Some s, _ when s <> schema_version ->
                    Error
                      (Printf.sprintf
                         "%s: journal schema %S (this build reads %S)" path
                         s schema_version)
                | Some _, Some d when d <> expect_digest ->
                    Error
                      (path
                     ^ ": journal belongs to a different campaign spec \
                        (campaign digest mismatch)")
                | Some _, Some _ ->
                    let entries = ref [] in
                    let dropped = ref 0 in
                    let rec go i = function
                      | [] -> Ok ()
                      | "" :: tl when i = nsegs - 1 && tl = [] ->
                          Ok () (* trailing newline *)
                      | seg :: tl -> (
                          let last = i = nsegs - 1 && tl = [] in
                          match
                            Option.bind (Json.of_string_opt seg)
                              entry_of_json
                          with
                          | Some e ->
                              entries := e :: !entries;
                              go (i + 1) tl
                          | None ->
                              if last then begin
                                incr dropped;
                                Ok ()
                              end
                              else
                                Error
                                  (Printf.sprintf
                                     "%s: corrupt journal record at line \
                                      %d (only the final line may be \
                                      torn)"
                                     path (i + 1)))
                    in
                    (match go 1 rest with
                    | Ok () -> Ok (List.rev !entries, !dropped)
                    | Error e -> Error e)
                | _ -> Error (path ^ ": corrupt journal header"))))
end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type summary = {
  total : int;
  ok : int;
  degraded : int;
  exhausted : int;
  thrashed : int;
  failed : int;
  retried : int;
  quarantined : int;
  chaos_kills : int;
}

type status =
  | Complete of { report_path : string; summary : summary }
  | Interrupted of { completed : int; total : int }

let report_path ~journal = journal ^ ".report.json"

(* Normalise an outcome's JSON through one print/parse round-trip. The
   printer's float format reaches a fixed point after one trip, so a
   fresh outcome and one replayed from the journal (already printed and
   parsed once) serialise to identical bytes — the keystone of
   byte-identical resumed reports. *)
let normalize_json j =
  match Json.of_string_opt (Json.to_string j) with
  | Some j' -> j'
  | None -> j

let take n xs =
  let rec go k acc = function
    | x :: tl when k > 0 -> go (k - 1) (x :: acc) tl
    | _ -> List.rev acc
  in
  go n [] xs

let run ?(jobs = 1) ?(backend = `Fork) ?chaos ?stop_after ?(resume = false)
    ?journal_override ?(log = ignore) t =
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let* () = if jobs < 1 then Error "jobs must be >= 1" else Ok () in
  let* () =
    match (backend, chaos) with
    | (`Domains | `Seq), Some _ ->
        Error
          "chaos requires the fork backend (only a worker process can be \
           SIGKILLed)"
    | _ -> Ok ()
  in
  let* () =
    match stop_after with
    | Some k when k < 1 -> Error "stop_after must be >= 1"
    | _ -> Ok ()
  in
  let path = Option.value journal_override ~default:t.journal in
  let cs = cells t in
  let n = List.length cs in
  let cell_tbl = Hashtbl.create n in
  List.iter (fun c -> Hashtbl.replace cell_tbl c.digest c) cs;
  let* () =
    if Hashtbl.length cell_tbl < n then
      Error "campaign enumerates duplicate cells (identical plan digests)"
    else Ok ()
  in
  let cdigest = campaign_digest_of_cells cs in
  let existing = Sys.file_exists path in
  let* () =
    if existing && not resume then
      Error
        (path
       ^ ": journal already exists; resume it (--resume) or delete it — \
          never silently overwritten")
    else Ok ()
  in
  let* prior, dropped =
    if existing then Journal.load ~path ~expect_digest:cdigest
    else Ok ([], 0)
  in
  if dropped > 0 then begin
    (* the torn record is exactly the bytes after the last newline; cut
       them off so this session's appends don't fuse onto the garbage
       and corrupt the journal mid-file for the next load *)
    (match String.rindex_opt (read_file path) '\n' with
    | Some i -> Unix.truncate path (i + 1)
    | None -> ());
    log
      (Printf.sprintf "%s: discarded %d torn trailing record" path dropped)
  end;
  let done_tbl = Hashtbl.create n in
  let* () =
    List.fold_left
      (fun acc (e : Journal.entry) ->
        let* () = acc in
        if not (Hashtbl.mem cell_tbl e.Journal.cell) then
          Error
            (Printf.sprintf "%s: journal records unknown cell %s" path
               e.Journal.cell)
        else begin
          if not (Hashtbl.mem done_tbl e.Journal.cell) then
            Hashtbl.replace done_tbl e.Journal.cell e;
          Ok ()
        end)
      (Ok ()) prior
  in
  let pending =
    List.filter (fun c -> not (Hashtbl.mem done_tbl c.digest)) cs
  in
  let todo, interrupted =
    match stop_after with
    | Some k when k < List.length pending -> (take k pending, true)
    | _ -> (pending, false)
  in
  if not existing then
    Journal.create ~path ~name:t.name ~digest:cdigest ~cells:n;
  let stats =
    ref
      {
        Supervisor.retried = 0;
        quarantined = 0;
        chaos_kills = 0;
        workers_lost = 0;
      }
  in
  if todo <> [] then begin
    let items = Array.of_list todo in
    let fd = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let finished = ref (Hashtbl.length done_tbl) in
        let on_result i outcome_cell =
          let c = items.(i) in
          let attempts, outcome =
            match outcome_cell with
            | Supervisor.Done { value; attempts; _ } -> (attempts, value)
            | Supervisor.Quarantined { attempts; failures } ->
                (attempts, Supervisor.failed_outcome failures)
          in
          let entry =
            {
              Journal.cell = c.digest;
              label = c.label;
              attempts;
              outcome_label = Metrics.outcome_label outcome;
              outcome = Metrics.outcome_to_json outcome;
            }
          in
          Journal.append fd entry;
          Hashtbl.replace done_tbl c.digest entry;
          incr finished;
          log
            (Printf.sprintf "[%d/%d] %-44s %s%s" !finished n c.label
               entry.Journal.outcome_label
               (if attempts > 1 then Printf.sprintf " (attempt %d)" attempts
                else ""))
        in
        let _cells, st =
          Supervisor.run ~jobs ~backend ?deadline_s:t.deadline_s
            ~attempts:t.retry.attempts ~backoff_s:t.retry.backoff_s ?chaos
            ~on_result
            (fun c -> Run.exec c.plan)
            items
        in
        stats := st)
  end;
  if interrupted then
    Ok (Interrupted { completed = Hashtbl.length done_tbl; total = n })
  else begin
    (* every cell accounted for: consolidate, in spec order *)
    let count lbl =
      List.length
        (List.filter
           (fun c ->
             (Hashtbl.find done_tbl c.digest).Journal.outcome_label = lbl)
           cs)
    in
    let ok = count "ok"
    and degraded = count "degraded"
    and exhausted = count "exhausted"
    and thrashed = count "thrashed"
    and failed = count "failed" in
    let cell_json c =
      let e = Hashtbl.find done_tbl c.digest in
      Json.Obj
        [
          ("cell", Json.Str c.digest);
          ("label", Json.Str c.label);
          ("outcome_label", Json.Str e.Journal.outcome_label);
          ("outcome", normalize_json e.Journal.outcome);
        ]
    in
    (* session-only stats (retries, chaos) stay out of the report so an
       interrupted-and-resumed campaign consolidates byte-identically *)
    let report =
      Json.Obj
        [
          ("schema", Json.Str report_schema);
          ("campaign", Json.Str t.name);
          ("campaign_digest", Json.Str cdigest);
          ("cells", Json.List (List.map cell_json cs));
          ( "summary",
            Json.Obj
              [
                ("total", Json.int n);
                ("ok", Json.int ok);
                ("degraded", Json.int degraded);
                ("exhausted", Json.int exhausted);
                ("thrashed", Json.int thrashed);
                ("failed", Json.int failed);
              ] );
        ]
    in
    let rpath = report_path ~journal:path in
    write_file_atomic rpath (Json.to_string report ^ "\n");
    let st = !stats in
    Ok
      (Complete
         {
           report_path = rpath;
           summary =
             {
               total = n;
               ok;
               degraded;
               exhausted;
               thrashed;
               failed;
               retried = st.Supervisor.retried;
               quarantined = st.Supervisor.quarantined;
               chaos_kills = st.Supervisor.chaos_kills;
             };
         })
  end
