(** The uniform step-able mutator interface the harness machine
    schedules: built from either a batch {!Mutator} or a serving
    {!Request} workload. *)

type t = {
  step : ops:int -> bool;
  allocated_bytes : unit -> int;
  progress : unit -> float;
      (** batch: allocated / total; serving: elapsed fraction of the
          arrival window — what the pressure schedules key on *)
  serving : unit -> Slo.summary option;
      (** latency summary so far; [None] for batch workloads *)
}

val of_mutator : Mutator.t -> t

val of_request : Request.t -> t
