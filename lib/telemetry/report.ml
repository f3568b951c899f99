(* Derived views of a sink's event stream: per-phase span counts, totals
   and maxima, per-kind counts, and an ASCII summary for the terminal. All
   of this is computed from the retained ring (plus the exact counters),
   never maintained online, so the emission fast path stays four array
   writes. *)

type phase_stat = {
  phase : Event.phase;
  count : int;  (* completed spans seen in the retained window *)
  total_ns : int;
  max_ns : int;
}

(* Pair Phase_begin/Phase_end events per phase. Spans of the same phase
   never nest (a nested collection reuses the outer pause; sub-phases are
   distinct phase values), so one open-timestamp slot per phase suffices.
   Unmatched begins (still open, or whose end fell off the ring) are
   ignored. *)
let phases sink =
  let nphases = List.length Event.all_phases in
  let open_ts = Array.make nphases (-1) in
  let stats =
    Array.init nphases (fun i ->
        {
          phase = Event.phase_of_code i;
          count = 0;
          total_ns = 0;
          max_ns = 0;
        })
  in
  Sink.iter sink (fun e ->
      match e.Event.kind with
      | Event.Phase_begin -> open_ts.(e.Event.a) <- e.Event.ts_ns
      | Event.Phase_end ->
          let i = e.Event.a in
          if open_ts.(i) >= 0 then begin
            let d = e.Event.ts_ns - open_ts.(i) in
            open_ts.(i) <- -1;
            let s = stats.(i) in
            stats.(i) <-
              {
                s with
                count = s.count + 1;
                total_ns = s.total_ns + d;
                max_ns = max s.max_ns d;
              }
          end
      | _ -> ());
  List.filter (fun s -> s.count > 0) (Array.to_list stats)

let kind_counts sink =
  List.filter_map
    (fun kind ->
      let n = Sink.count sink kind in
      if n > 0 then Some (kind, n) else None)
    Event.all_kinds

(* Collection-level phases observed anywhere in the run (exact even after
   the ring wraps: a span's begin and end both bump the Phase_begin /
   Phase_end counters, and sub-phase spans only occur inside collections,
   so we re-derive from retained events but fall back to counters for
   presence). *)
let observed_collection_phases sink =
  let seen = Array.make (List.length Event.all_phases) false in
  Sink.iter sink (fun e ->
      match e.Event.kind with
      | Event.Phase_begin | Event.Phase_end -> seen.(e.Event.a) <- true
      | _ -> ());
  List.filter
    (fun p -> seen.(Event.phase_code p))
    Event.collection_phases

let pp ppf sink =
  let first, last = Sink.span_ns sink in
  Format.fprintf ppf
    "trace: %d events retained (%d emitted, %d dropped), %.3fms window@."
    (Sink.length sink) (Sink.total sink) (Sink.dropped sink)
    (float_of_int (last - first) /. 1e6);
  List.iter
    (fun (kind, n) ->
      Format.fprintf ppf "  %-18s %d@." (Event.kind_name kind) n)
    (kind_counts sink);
  match phases sink with
  | [] -> ()
  | stats ->
      Format.fprintf ppf "phases:@.";
      List.iter
        (fun s ->
          Format.fprintf ppf "  %-14s n=%-5d total=%.3fms mean=%.3fms max=%.3fms@."
            (Event.phase_name s.phase) s.count
            (float_of_int s.total_ns /. 1e6)
            (float_of_int s.total_ns /. float_of_int s.count /. 1e6)
            (float_of_int s.max_ns /. 1e6))
        stats
