(* The uniform step-able interface the harness machine drives: batch
   mutators and request-serving mutators behave identically from the
   scheduler's point of view, and only differ in how progress is
   measured and whether they produce a serving summary. *)

type t = {
  step : ops:int -> bool;
  allocated_bytes : unit -> int;
  progress : unit -> float;
  serving : unit -> Slo.summary option;
}

let of_mutator m =
  let total =
    max 1 (Mutator.spec m).Spec.total_alloc_bytes
  in
  {
    step = (fun ~ops -> Mutator.step m ~ops);
    allocated_bytes = (fun () -> Mutator.allocated_bytes m);
    progress =
      (fun () ->
        float_of_int (Mutator.allocated_bytes m) /. float_of_int total);
    serving = (fun () -> None);
  }

let of_request r =
  {
    step = (fun ~ops -> Request.step r ~ops);
    allocated_bytes = (fun () -> Request.allocated_bytes r);
    progress = (fun () -> Request.progress r);
    serving = (fun () -> Some (Request.summary r));
  }
