(* Exporters over a sink's retained events.

   - [chrome_json]: Chrome trace_event JSON (the "JSON Array Format" with
     a traceEvents wrapper), loadable in chrome://tracing and Perfetto.
     GC phases become duration ("B"/"E") events; notices, faults and swap
     I/O become instants ("i"); gauges become counter ("C") events.
   - [csv]: one row per event, for results/ series and spreadsheet work.
   - [ascii_timeline]: a terminal rendering — one lane per event group,
     time bucketed into a fixed-width strip. *)

let us_of_ns ns = float_of_int ns /. 1e3

let instant_name (e : Event.t) =
  match e.Event.kind with
  | Event.Fault_injected ->
      "inject:" ^ Event.injection_name (Event.injection_of_code e.Event.a)
  | k -> Event.kind_name k

let chrome_event (e : Event.t) =
  let dur_phase ph =
    Json.Obj
      [
        ("name", Json.Str (Event.phase_name (Event.phase_of_code e.Event.a)));
        ("cat", Json.Str "gc");
        ("ph", Json.Str ph);
        ("ts", Json.Num (us_of_ns e.Event.ts_ns));
        ("pid", Json.int e.Event.b);
        ("tid", Json.int e.Event.b);
      ]
  in
  (* instants sit on the payload's owner pid unless told otherwise *)
  let instant ?(pid = e.Event.b) cat args =
    Json.Obj
      [
        ("name", Json.Str (instant_name e));
        ("cat", Json.Str cat);
        ("ph", Json.Str "i");
        ("s", Json.Str "t");
        ("ts", Json.Num (us_of_ns e.Event.ts_ns));
        ("pid", Json.int pid);
        ("tid", Json.int pid);
        ("args", Json.Obj args);
      ]
  in
  (* counters are machine-wide tracks on pid 0 unless told otherwise *)
  let counter ?(pid = 0) name args =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "C");
        ("ts", Json.Num (us_of_ns e.Event.ts_ns));
        ("pid", Json.int pid);
        ("args", Json.Obj args);
      ]
  in
  match e.Event.kind with
  | Event.Phase_begin -> dur_phase "B"
  | Event.Phase_end -> dur_phase "E"
  | Event.Alloc_slice ->
      counter "allocated" [ ("bytes", Json.int e.Event.b) ]
  | Event.Pressure_step ->
      counter "pinned-pages" [ ("pages", Json.int e.Event.a) ]
  | Event.Gauge_resident ->
      counter "frames"
        [ ("resident", Json.int e.Event.a); ("free", Json.int e.Event.b) ]
  | Event.Proc_progress ->
      (* a per-process counter track: a carries the pid *)
      counter ~pid:e.Event.a "proc-allocated" [ ("bytes", Json.int e.Event.b) ]
  | Event.Fault_injected -> instant "fault" [ ("page", Json.int e.Event.b) ]
  | Event.Request_arrival -> instant "srv" [ ("req", Json.int e.Event.a) ]
  | Event.Request_done ->
      (* b carries the latency, not a pid: book it on pid 0 *)
      instant ~pid:0 "srv"
        [ ("req", Json.int e.Event.a); ("latency_ns", Json.int e.Event.b) ]
  | Event.Control_decision ->
      (* a carries the state code, b the window index: book on pid 0 *)
      instant ~pid:0 "ctl"
        [ ("state", Json.int e.Event.a); ("window", Json.int e.Event.b) ]
  | Event.Control_state_change ->
      instant ~pid:0 "ctl"
        [ ("from", Json.int e.Event.a); ("to", Json.int e.Event.b) ]
  | Event.Eviction_notice | Event.Made_resident | Event.Major_fault
  | Event.Minor_fault | Event.Protection_fault | Event.Eviction
  | Event.Forced_eviction | Event.Discard | Event.Relinquish
  | Event.Swap_read | Event.Swap_write ->
      instant "vm" [ ("page", Json.int e.Event.a) ]

(* Close any phases still open at the end of the stream so the JSON is
   well-formed for viewers that insist on balanced B/E pairs. *)
let closing_events sink =
  let nphases = List.length Event.all_phases in
  let open_stack = Array.make nphases None in
  Sink.iter sink (fun e ->
      match e.Event.kind with
      | Event.Phase_begin -> open_stack.(e.Event.a) <- Some e.Event.b
      | Event.Phase_end -> open_stack.(e.Event.a) <- None
      | _ -> ());
  let _, last = Sink.span_ns sink in
  let acc = ref [] in
  Array.iteri
    (fun i owner ->
      match owner with
      | None -> ()
      | Some pid ->
          acc :=
            Json.Obj
              [
                ("name", Json.Str (Event.phase_name (Event.phase_of_code i)));
                ("cat", Json.Str "gc");
                ("ph", Json.Str "E");
                ("ts", Json.Num (us_of_ns last));
                ("pid", Json.int pid);
                ("tid", Json.int pid);
              ]
            :: !acc)
    open_stack;
  !acc

let chrome_json ?(metadata = []) sink =
  let events = ref [] in
  Sink.iter sink (fun e -> events := chrome_event e :: !events);
  let events = List.rev_append !events (closing_events sink) in
  Json.Obj
    (("traceEvents", Json.List events)
     ::
     ("displayTimeUnit", Json.Str "ms")
     ::
     ("otherData",
      Json.Obj
        (("emitted", Json.int (Sink.total sink))
         :: ("dropped", Json.int (Sink.dropped sink))
         :: metadata))
     :: [])

let write_chrome_json ?metadata sink oc =
  output_string oc (Json.to_string (chrome_json ?metadata sink));
  output_char oc '\n'

let csv_header = "ts_ns,kind,a,b"

let csv sink buf =
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  Sink.iter sink (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%d,%d\n" e.Event.ts_ns
           (Event.kind_name e.Event.kind)
           e.Event.a e.Event.b))

(* ------------------------------------------------------------------ *)
(* ASCII timeline                                                      *)

type lane = { label : string; marks : int array }

let lane_of (e : Event.t) =
  match e.Event.kind with
  | Event.Phase_begin | Event.Phase_end -> (
      match Event.phase_of_code e.Event.a with
      | Event.Minor -> Some 0
      | Event.Full | Event.Failsafe -> Some 1
      | Event.Compacting -> Some 2
      | _ -> None (* sub-phases would just shadow their collection *))
  | Event.Major_fault -> Some 3
  | Event.Eviction_notice -> Some 4
  | Event.Eviction | Event.Forced_eviction -> Some 5
  | Event.Discard | Event.Relinquish -> Some 6
  | Event.Swap_read | Event.Swap_write -> Some 7
  | Event.Fault_injected -> Some 8
  | Event.Pressure_step -> Some 9
  | Event.Request_done -> Some 10
  | Event.Control_state_change -> Some 11
  | _ -> None

let lane_labels =
  [| "minor gc"; "full gc"; "compacting"; "major fault"; "evict notice";
     "eviction"; "discard"; "swap io"; "injected"; "pressure"; "requests";
     "control" |]

let ascii_timeline ?(width = 72) sink ppf =
  let first, last = Sink.span_ns sink in
  let span = max 1 (last - first) in
  let lanes =
    Array.map (fun label -> { label; marks = Array.make width 0 }) lane_labels
  in
  Sink.iter sink (fun e ->
      match lane_of e with
      | None -> ()
      | Some l ->
          let col =
            min (width - 1) ((e.Event.ts_ns - first) * width / span)
          in
          lanes.(l).marks.(col) <- lanes.(l).marks.(col) + 1);
  Format.fprintf ppf "timeline: %.3fms .. %.3fms (%.3fms span)@."
    (float_of_int first /. 1e6)
    (float_of_int last /. 1e6)
    (float_of_int span /. 1e6);
  Array.iter
    (fun lane ->
      if Array.exists (fun n -> n > 0) lane.marks then begin
        Format.fprintf ppf "%12s |" lane.label;
        Array.iter
          (fun n ->
            let c =
              if n = 0 then ' '
              else if n < 3 then '.'
              else if n < 10 then ':'
              else if n < 50 then '*'
              else '#'
            in
            Format.pp_print_char ppf c)
          lane.marks;
        Format.fprintf ppf "|@."
      end)
    lanes
