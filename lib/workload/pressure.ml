type t =
  | None_
  | Steady of { after_progress : float; pin_pages : int }
  | Ramp of {
      after_progress : float;
      initial_pages : int;
      pages_per_step : int;
      step_ns : int;
      max_pages : int;
    }

let due_pages t ~now_ns ~start_ns ~progress =
  match t with
  | None_ -> 0
  | Steady { after_progress; pin_pages } ->
      if progress >= after_progress then pin_pages else 0
  | Ramp { after_progress; initial_pages; pages_per_step; step_ns; max_pages }
    ->
      if progress < after_progress then 0
      else begin
        let steps = (now_ns - start_ns) / step_ns in
        min max_pages (initial_pages + (steps * pages_per_step))
      end

let after_progress = function
  | None_ -> None
  | Steady { after_progress = p; _ } | Ramp { after_progress = p; _ } -> Some p
