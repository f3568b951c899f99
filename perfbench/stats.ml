(* Summaries of host-time samples and the process's own resource use. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The [p]-quantile by Python's [statistics.quantiles] ("exclusive"
   method: position p * (n + 1), linear between neighbours), so
   within-run spreads read the same as the between-run spreads computed
   over the printed results. *)
let quantile_sorted a p =
  let ld = Array.length a in
  if ld = 0 then nan
  else if ld = 1 then a.(0)
  else
    let pos = p *. float_of_int (ld + 1) in
    let j = max 1 (min (ld - 1) (int_of_float pos)) in
    let frac = pos -. float_of_int j in
    a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. frac)

let quantile p xs = quantile_sorted (sorted xs) p

let quartiles xs =
  let a = sorted xs in
  (quantile_sorted a 0.25, quantile_sorted a 0.5, quantile_sorted a 0.75)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A "VmHWM:   12345 kB" style line of /proc/self/status, in kB. *)
let proc_status_kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.sub line 0 i = key ->
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
            | _ -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let peak_rss_mb () =
  match proc_status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

(* Host words allocated so far by this domain: minor-heap words plus
   direct major allocations. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The same over every domain of the process. The runtime refreshes a
   running domain's share only at its minor collections, so the total is
   exact only for domains that have been joined. *)
let all_domains_allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go
