let default_jobs () = Domain.recommended_domain_count ()

let map ~jobs ?backend ?deadline_s ?attempts f xs =
  let cells, _ =
    Supervisor.run ~jobs ?backend ?deadline_s ?attempts f (Array.of_list xs)
  in
  Array.to_list
    (Array.map
       (function
         | Supervisor.Done { value; _ } -> Ok value
         | Supervisor.Quarantined { failures; _ } ->
             Error (Supervisor.describe_failures failures))
       cells)

(* Headline constructor name for a quarantined cell: the last (budget-
   exhausting) failure decides. *)
let exn_name_of_failures failures =
  match List.rev failures with
  | Supervisor.Raised { exn_name; _ } :: _ -> exn_name
  | Supervisor.Crashed _ :: _ -> "Parallel.Worker_crashed"
  | Supervisor.Hung _ :: _ -> "Parallel.Worker_deadline"
  | Supervisor.Truncated :: _ -> "Parallel.Worker_truncated"
  | [] -> "Parallel.Worker_lost"

let failed_outcome failures =
  Metrics.Failed
    {
      Metrics.reason = Supervisor.describe_failures failures;
      exn_name = exn_name_of_failures failures;
      fault_stats = None;
      partial = None;
    }

let outcomes ~jobs ?backend ?deadline_s ?attempts plans =
  let backend =
    match backend with
    (* a sink filled in a forked child dies with the child's heap; the
       domain pool shares this heap, so only the fork backend downgrades *)
    | (Some `Fork | None) when List.exists Run.Plan.traced plans -> Some `Seq
    | b -> b
  in
  let cells, _ =
    Supervisor.run ~jobs ?backend ?deadline_s ?attempts Run.exec
      (Array.of_list plans)
  in
  Array.to_list
    (Array.map
       (function
         | Supervisor.Done { value; _ } -> value
         | Supervisor.Quarantined { failures; _ } -> failed_outcome failures)
       cells)
