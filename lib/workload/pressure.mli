(** Memory-pressure schedules (§5.3).

    Schedules are driven by the harness between mutator steps: given the
    current virtual time and workload progress, {!due_pages} says how many
    pages [signalmem] should have pinned by now. *)

type t =
  | None_  (** no pressure (§5.2) *)
  | Steady of { after_progress : float; pin_pages : int }
      (** pin [pin_pages] once allocation progress passes
          [after_progress] (the paper pins 60% of the heap size at the
          start of the measured iteration) *)
  | Ramp of {
      after_progress : float;
      initial_pages : int;
      pages_per_step : int;
      step_ns : int;
      max_pages : int;
    }
      (** the dynamic schedule of §5.3.2: pin [initial_pages], then
          [pages_per_step] more every [step_ns], up to [max_pages] *)

val due_pages : t -> now_ns:int -> start_ns:int -> progress:float -> int
(** Pages that should be pinned at this instant. [progress] is the
    workload's allocated fraction in [0,1]; the ramp's clock starts at the
    first call past [after_progress] ([start_ns]). *)

val after_progress : t -> float option
(** Progress threshold at which the schedule engages; [None] when there
    is no pressure. *)
