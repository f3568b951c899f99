(** Load shapes: deterministic requests-per-second envelopes over
    virtual time, driving the open-loop arrival process of the
    request-serving workloads.

    The first four kinds are adapted from Clue2's workload catalogue
    ([shaped] / [rampup] / [pausing] / [fixed]); [diurnal] and [flash]
    model the daily cycle and the flash crowd. All times are in virtual
    seconds from the start of the serving window. *)

type t =
  | Fixed of { rps : float }  (** constant rate *)
  | Rampup of { from_rps : float; to_rps : float; over_s : float }
      (** linear ramp, then holds [to_rps] *)
  | Pausing of { rps : float; on_s : float; off_s : float }
      (** bursts: [on_s] seconds at [rps], then [off_s] seconds idle *)
  | Shaped of { points : (float * float) list }
      (** piecewise-linear [(at_s, rps)] custom envelope; constant
          before the first and after the last point *)
  | Diurnal of { base_rps : float; peak_rps : float; period_s : float }
      (** sinusoidal day cycle between [base_rps] and [peak_rps] *)
  | Flash of { base_rps : float; spike_rps : float; at_s : float; for_s : float }
      (** flash crowd: [base_rps] except a [spike_rps] plateau during
          [[at_s, at_s + for_s)] *)

val validate : t -> unit
(** Raises [Invalid_argument] on negative rates, non-positive periods
    or non-increasing shaped points. *)

val rate : t -> at_s:float -> float
(** Requests per virtual second at [at_s] seconds into the run. *)

val peak_rate : t -> float
(** An upper bound on {!rate} over all time — the thinning envelope
    used by the arrival sampler. *)

val to_string : t -> string
(** Canonical grammar text ([fixed:RPS], [rampup:FROM:TO:OVER_S],
    [pausing:RPS:ON_S:OFF_S], [shaped:T0=R0,T1=R1,...],
    [diurnal:BASE:PEAK:PERIOD_S], [flash:BASE:SPIKE:AT_S:FOR_S]).
    Stable: used verbatim in [Run.Plan.canonical] and the campaign
    spec grammar. *)

val of_string : string -> t
(** Parse the {!to_string} grammar; raises [Failure] with a message
    naming the offending field. *)
