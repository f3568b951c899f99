module Rng = Repro_util.Rng

type spec = {
  drop_eviction : float;
  drop_resident : float;
  delay_notice : float;
  duplicate_notice : float;
  reorder : float;
  swap_write_error : float;
  swap_read_error : float;
  swap_full_episodes : int;
  swap_full_len : int;
  swap_full_every : int;
  spike_count : int;
  spike_pages : int;
}

let none =
  {
    drop_eviction = 0.;
    drop_resident = 0.;
    delay_notice = 0.;
    duplicate_notice = 0.;
    reorder = 0.;
    swap_write_error = 0.;
    swap_read_error = 0.;
    swap_full_episodes = 0;
    swap_full_len = 8;
    swap_full_every = 64;
    spike_count = 0;
    spike_pages = 128;
  }

let spec_of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else
    let parse_field spec kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "fault spec: expected key=value, got %S" kv)
      | Some i -> (
          let key = String.trim (String.sub kv 0 i) in
          let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
          let prob set =
            match float_of_string_opt v with
            | Some p when p >= 0. && p <= 1. -> Ok (set p)
            | _ -> Error (Printf.sprintf "fault spec: %s wants a probability in [0,1], got %S" key v)
          in
          let count set =
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok (set n)
            | _ -> Error (Printf.sprintf "fault spec: %s wants a non-negative integer, got %S" key v)
          in
          match key with
          | "drop" | "drop-evict" -> prob (fun p -> { spec with drop_eviction = p })
          | "drop-resident" -> prob (fun p -> { spec with drop_resident = p })
          | "delay" -> prob (fun p -> { spec with delay_notice = p })
          | "dup" -> prob (fun p -> { spec with duplicate_notice = p })
          | "reorder" -> prob (fun p -> { spec with reorder = p })
          | "swap-write-err" -> prob (fun p -> { spec with swap_write_error = p })
          | "swap-read-err" -> prob (fun p -> { spec with swap_read_error = p })
          | "swap-full" -> count (fun n -> { spec with swap_full_episodes = n })
          | "swap-full-len" -> count (fun n -> { spec with swap_full_len = n })
          | "swap-full-every" -> count (fun n -> { spec with swap_full_every = n })
          | "spikes" -> count (fun n -> { spec with spike_count = n })
          | "spike-pages" -> count (fun n -> { spec with spike_pages = n })
          | _ -> Error (Printf.sprintf "fault spec: unknown key %S" key))
    in
    String.split_on_char ',' s
    |> List.filter (fun kv -> String.trim kv <> "")
    |> List.fold_left
         (fun acc kv -> Result.bind acc (fun spec -> parse_field spec kv))
         (Ok none)

let spec_to_string spec =
  let fields = ref [] in
  let add key s = fields := (key ^ "=" ^ s) :: !fields in
  let prob key v dflt = if v <> dflt then add key (Printf.sprintf "%g" v) in
  let count key v dflt = if v <> dflt then add key (string_of_int v) in
  prob "drop-evict" spec.drop_eviction none.drop_eviction;
  prob "drop-resident" spec.drop_resident none.drop_resident;
  prob "delay" spec.delay_notice none.delay_notice;
  prob "dup" spec.duplicate_notice none.duplicate_notice;
  prob "reorder" spec.reorder none.reorder;
  prob "swap-write-err" spec.swap_write_error none.swap_write_error;
  prob "swap-read-err" spec.swap_read_error none.swap_read_error;
  count "swap-full" spec.swap_full_episodes none.swap_full_episodes;
  count "swap-full-len" spec.swap_full_len none.swap_full_len;
  count "swap-full-every" spec.swap_full_every none.swap_full_every;
  count "spikes" spec.spike_count none.spike_count;
  count "spike-pages" spec.spike_pages none.spike_pages;
  match List.rev !fields with [] -> "none" | fs -> String.concat "," fs

type stats = {
  mutable dropped_eviction : int;
  mutable dropped_resident : int;
  mutable delayed : int;
  mutable duplicated : int;
  mutable reordered_flushes : int;
  mutable swap_write_errors : int;
  mutable swap_read_errors : int;
  mutable swap_full_rejections : int;
  mutable spikes_applied : int;
}

let fresh_stats () =
  {
    dropped_eviction = 0;
    dropped_resident = 0;
    delayed = 0;
    duplicated = 0;
    reordered_flushes = 0;
    swap_write_errors = 0;
    swap_read_errors = 0;
    swap_full_rejections = 0;
    spikes_applied = 0;
  }

let injected_total s =
  s.dropped_eviction + s.dropped_resident + s.delayed + s.duplicated
  + s.reordered_flushes + s.swap_write_errors + s.swap_read_errors
  + s.swap_full_rejections + s.spikes_applied

let pp_stats ppf s =
  Format.fprintf ppf
    "faults: dropped=%d+%d delayed=%d dup=%d reordered=%d swap-err=%dw/%dr \
     swap-full=%d spikes=%d"
    s.dropped_eviction s.dropped_resident s.delayed s.duplicated
    s.reordered_flushes s.swap_write_errors s.swap_read_errors
    s.swap_full_rejections s.spikes_applied

type t = {
  spec : spec;
  rng : Rng.t;  (** decision stream: one draw per decision point *)
  stats : stats;
  spikes : (float * float * int) list;
  (* Scripted device-full episodes: count down successful writes until the
     next episode opens, then reject [in_episode] writes in a row. *)
  mutable episodes_left : int;
  mutable writes_until_episode : int;
  mutable in_episode : int;
  mutable consecutive_read_errors : int;
}

let episode_gap spec rng =
  let base = max 1 spec.swap_full_every in
  base + Rng.int rng base

let make_spikes spec rng =
  (* Fix the whole spike script at creation so later decision draws don't
     perturb it. Spikes live in (0.1, 0.9) of workload progress and never
     start before the previous one ends. *)
  let rec build i at acc =
    if i >= spec.spike_count || at >= 0.85 then List.rev acc
    else
      let start = at +. (0.05 +. (Rng.float rng 1.0 *. 0.15)) in
      let stop = start +. 0.05 +. (Rng.float rng 1.0 *. 0.1) in
      if start >= 0.9 then List.rev acc
      else build (i + 1) stop ((start, min stop 0.95, spec.spike_pages) :: acc)
  in
  build 0 0.05 []

let create ~seed spec =
  let script_rng = Rng.create seed in
  let spikes = make_spikes spec script_rng in
  let rng = Rng.split script_rng in
  {
    spec;
    rng;
    stats = fresh_stats ();
    spikes;
    episodes_left = spec.swap_full_episodes;
    writes_until_episode = episode_gap spec script_rng;
    in_episode = 0;
    consecutive_read_errors = 0;
  }

let spec t = t.spec
let stats t = t.stats
let spikes t = t.spikes

type notice = Eviction | Resident
type notice_decision = Deliver | Drop | Delay | Duplicate

let on_notice t which =
  let spec = t.spec in
  let drop =
    match which with
    | Eviction -> spec.drop_eviction
    | Resident -> spec.drop_resident
  in
  if drop = 0. && spec.delay_notice = 0. && spec.duplicate_notice = 0. then
    Deliver
  else
    let u = Rng.float t.rng 1.0 in
    if u < drop then (
      (match which with
      | Eviction -> t.stats.dropped_eviction <- t.stats.dropped_eviction + 1
      | Resident -> t.stats.dropped_resident <- t.stats.dropped_resident + 1);
      Drop)
    else if u < drop +. spec.delay_notice then (
      t.stats.delayed <- t.stats.delayed + 1;
      Delay)
    else if u < drop +. spec.delay_notice +. spec.duplicate_notice then (
      t.stats.duplicated <- t.stats.duplicated + 1;
      Duplicate)
    else Deliver

let reorder_pending t =
  t.spec.reorder > 0.
  && Rng.float t.rng 1.0 < t.spec.reorder
  &&
  (t.stats.reordered_flushes <- t.stats.reordered_flushes + 1;
   true)

type swap_decision = Proceed | Io_error | Device_full

let on_swap_write t =
  if t.in_episode > 0 then (
    t.in_episode <- t.in_episode - 1;
    t.stats.swap_full_rejections <- t.stats.swap_full_rejections + 1;
    Device_full)
  else if t.episodes_left > 0 && t.writes_until_episode <= 0 then (
    t.episodes_left <- t.episodes_left - 1;
    t.in_episode <- max 1 t.spec.swap_full_len - 1;
    t.writes_until_episode <- episode_gap t.spec t.rng;
    t.stats.swap_full_rejections <- t.stats.swap_full_rejections + 1;
    Device_full)
  else if
    t.spec.swap_write_error > 0. && Rng.float t.rng 1.0 < t.spec.swap_write_error
  then (
    t.stats.swap_write_errors <- t.stats.swap_write_errors + 1;
    Io_error)
  else (
    if t.episodes_left > 0 then
      t.writes_until_episode <- t.writes_until_episode - 1;
    Proceed)

let on_swap_read t =
  if
    t.spec.swap_read_error > 0.
    && t.consecutive_read_errors < 2
    && Rng.float t.rng 1.0 < t.spec.swap_read_error
  then (
    t.consecutive_read_errors <- t.consecutive_read_errors + 1;
    t.stats.swap_read_errors <- t.stats.swap_read_errors + 1;
    Io_error)
  else (
    t.consecutive_read_errors <- 0;
    Proceed)

let note_spike_applied t =
  t.stats.spikes_applied <- t.stats.spikes_applied + 1
