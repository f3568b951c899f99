(* Online memory controller core.

   A controller instance consumes one windowed telemetry [sample] per
   decision window and returns a [decision]: a degradation [state] for
   observability plus an [actuation] the harness applies through the
   collector's tuning interface (Gc_common.Collector.tuning). The
   controller itself never touches the simulation — it is a pure
   decision function over window deltas, so it costs no virtual time and
   a controller whose actuations are all defaults leaves the run
   bit-identical.

   Every decision is appended to an internal text trace; [summary]
   digests it, which is what the determinism tests pin: same seed +
   plan digest => byte-identical decision trace. *)

(* Staged degradation. Severity is the code order: downgrades walk one
   level per quiet window (after the dwell), upgrades jump directly. *)
type state = Normal | Pressure | Emergency | Failsafe

let state_code = function
  | Normal -> 0
  | Pressure -> 1
  | Emergency -> 2
  | Failsafe -> 3

let state_name = function
  | Normal -> "normal"
  | Pressure -> "pressure"
  | Emergency -> "emergency"
  | Failsafe -> "failsafe"

(* One decision window's sensor readings. Counters are window deltas
   (the live Gc_stats/Vm_stats counters less the values they held when
   the window opened); [resident_pages] and [free_frames] are gauges read
   at the window's end, and [p99_pause_ms] covers the window's pauses. *)
type sample = {
  major_faults : int;
  evictions : int;
  notices : int;
  resident_pages : int;
  free_frames : int;
  p99_pause_ms : float;
  failsafes : int;
}

(* What to do with the collector's footprint target this window. [Keep]
   leaves whatever the collector's own notice handling set — the only
   value under which a controller cannot perturb BC's §3.3.3 resizing. *)
type target = Keep | Clear | Cap of int

type actuation = {
  target : target;
  notice_batch : int;
  relinquish_extra : int;
  force_failsafe : bool;
}

let inert_actuation =
  { target = Keep; notice_batch = 1; relinquish_extra = 0;
    force_failsafe = false }

type decision = { state : state; act : actuation }

type config = { heap_pages : int; frames : int }

type summary = {
  policy : string;
  decisions : int;
  transitions : int;
  final_state : state;
  peak_state : state;
  forced_failsafes : int;
  trace_digest : string;
}

type t = {
  policy : string;
  decide_raw : sample -> decision;
  trace : Buffer.t;
  mutable ndecisions : int;
  mutable ntransitions : int;
  mutable cur_state : state;
  mutable peak : state;
  mutable forced : int;
}

let make ~policy ~decide =
  {
    policy;
    decide_raw = decide;
    trace = Buffer.create 512;
    ndecisions = 0;
    ntransitions = 0;
    cur_state = Normal;
    peak = Normal;
    forced = 0;
  }

let policy t = t.policy

let state t = t.cur_state

let target_text = function
  | Keep -> "keep"
  | Clear -> "clear"
  | Cap n -> Printf.sprintf "cap:%d" n

(* The wrapper every consumer calls: runs the policy, books transition /
   peak / forced-failsafe counters and appends one deterministic trace
   line per window. *)
let decide t sample =
  let d = t.decide_raw sample in
  if d.state <> t.cur_state then t.ntransitions <- t.ntransitions + 1;
  if state_code d.state > state_code t.peak then t.peak <- d.state;
  if d.act.force_failsafe then t.forced <- t.forced + 1;
  t.cur_state <- d.state;
  Buffer.add_string t.trace
    (Printf.sprintf
       "w%d %s tgt=%s batch=%d rel=%d ff=%b | mf=%d ev=%d not=%d res=%d \
        free=%d p99=%.3f fs=%d\n"
       t.ndecisions (state_name d.state) (target_text d.act.target)
       d.act.notice_batch d.act.relinquish_extra d.act.force_failsafe
       sample.major_faults sample.evictions sample.notices
       sample.resident_pages sample.free_frames sample.p99_pause_ms
       sample.failsafes);
  t.ndecisions <- t.ndecisions + 1;
  d

let trace_text t = Buffer.contents t.trace

let summary t =
  {
    policy = t.policy;
    decisions = t.ndecisions;
    transitions = t.ntransitions;
    final_state = t.cur_state;
    peak_state = t.peak;
    forced_failsafes = t.forced;
    trace_digest = Digest.to_hex (Digest.string (Buffer.contents t.trace));
  }

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "control: %s decisions=%d transitions=%d peak=%s final=%s \
     forced-failsafes=%d"
    s.policy s.decisions s.transitions (state_name s.peak_state)
    (state_name s.final_state) s.forced_failsafes

(* The interface a controller policy module satisfies; registered like
   collectors (see Control.Registry). *)
module type S = sig
  val name : string

  val doc : string

  val create : config -> t
end

(* ------------------------------------------------------------------ *)
(* Shared degradation state machine                                     *)

(* The Normal -> Pressure -> Emergency -> Failsafe ladder with hysteresis
   and minimum dwell, shared by every adaptive policy (they differ in
   what they *actuate*, not in how they classify pressure):

   - Upward transitions are immediate — a fault storm must not wait out
     a dwell timer. Escalation signals: any major fault or a notice
     burst (Pressure), a heavy fault window (Emergency).
   - Downward transitions require [dwell] consecutive quiet windows
     (hysteresis: the quiet bar is stricter than the escalation bar, so
     the machine cannot flap on a boundary signal), then step down one
     level per window.
   - The watchdog counts no-progress windows — fault count rising (or
     held) while the residency gauge is flat — and, from Emergency,
     forces one fail-safe collection and enters Failsafe rather than
     letting the process thrash. Recovery leaves Failsafe through the
     normal quiet path (to Pressure, then Normal). *)
module Fsm = struct
  type fsm = {
    frames : int;
    dwell : int;
    mutable st : state;
    mutable quiet_streak : int;
    mutable rising_streak : int;
    mutable prev_faults : int;
    mutable prev_resident : int;
  }

  let pressure_faults = 1
  let emergency_faults = 8
  let pressure_notices = 4
  let low_free_div = 8 (* free < frames/8 counts as a pressure signal *)
  let default_dwell = 3
  let watchdog_windows = 3

  let create ?(dwell = default_dwell) ~frames () =
    {
      frames;
      dwell;
      st = Normal;
      quiet_streak = 0;
      rising_streak = 0;
      prev_faults = 0;
      prev_resident = -1;
    }

  (* Returns the new state and whether the watchdog fired this window. *)
  let step f (s : sample) =
    let pressure_signal =
      s.major_faults >= pressure_faults
      || s.notices >= pressure_notices
      || s.free_frames * low_free_div < f.frames
    in
    let emergency_signal = s.major_faults >= emergency_faults in
    (* no-progress detector: fault rate strictly rising, residency flat.
       A steady (non-escalating) fault plateau is Emergency's job, not
       the watchdog's — forcing a whole-heap fail-safe there would add
       the very faults it is trying to stop. *)
    let resident_flat =
      f.prev_resident >= 0
      && abs (s.resident_pages - f.prev_resident) * 32
         <= max 32 s.resident_pages
    in
    if s.major_faults > 0 && s.major_faults > f.prev_faults && resident_flat
    then f.rising_streak <- f.rising_streak + 1
    else f.rising_streak <- 0;
    f.prev_faults <- s.major_faults;
    f.prev_resident <- s.resident_pages;
    if pressure_signal then f.quiet_streak <- 0
    else f.quiet_streak <- f.quiet_streak + 1;
    let forced = ref false in
    (match f.st with
    | Normal ->
        if emergency_signal then f.st <- Emergency
        else if pressure_signal then f.st <- Pressure
    | Pressure ->
        if emergency_signal then f.st <- Emergency
        else if f.quiet_streak >= f.dwell then f.st <- Normal
    | Emergency ->
        if f.rising_streak >= watchdog_windows then begin
          (* thrashing without progress: force the §3.5 fail-safe *)
          forced := true;
          f.rising_streak <- 0;
          f.st <- Failsafe
        end
        else if f.quiet_streak >= f.dwell then f.st <- Pressure
    | Failsafe ->
        (* the forced collection rebuilt liveness; leave through the
           quiet path once the storm subsides *)
        if f.quiet_streak >= f.dwell then f.st <- Pressure);
    (f.st, !forced)
end
