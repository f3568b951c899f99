(** Independent runs fanned out through {!Supervisor.run}, as plain
    results.

    The whole simulation is deterministic in virtual time, so spreading
    the cells of an experiment matrix over worker processes or pooled
    domains produces byte-identical metrics to a sequential sweep —
    only the wall-clock changes. Results always come back in input
    order, whatever order the workers finish in. Scheduling, retries
    and the choice of backend are {!Supervisor.run}'s; this module only
    converts its cells: a quarantined cell's failure report names the
    cell's exception and backtrace, or the worker's exit status, fatal
    signal or blown deadline. *)

val default_jobs : unit -> int
(** Worker count matching the machine's available cores. *)

val map :
  jobs:int ->
  ?backend:Supervisor.backend ->
  ?deadline_s:float ->
  ?attempts:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, string) result list
(** [map ~jobs f xs] applies [f] to every item across [jobs] workers
    and returns per-item results in input order. [jobs < 1] raises
    [Invalid_argument]. An item whose every attempt failed yields
    [Error] with {!Supervisor.describe_failures}'s report: the
    exception text and backtrace, or the process status or blown
    deadline of a worker that died or hung. [deadline_s] bounds each
    item's wall-clock (fork backend only); [attempts] is the number of
    tries per item (default 1 — no retry). [backend] is as in
    {!Supervisor.run}: left unset, one worker runs inline and anything
    wider forks.

    Under the fork backend [f]'s result must be marshallable (plain
    data: no closures, no custom blocks) and workers run with their own
    copy of the heap, so mutations made by [f] are invisible to the
    parent. Under [`Domains] results are ordinary heap values and no
    copy exists — cells share this process's memory. *)

val outcomes :
  jobs:int ->
  ?backend:Supervisor.backend ->
  ?deadline_s:float ->
  ?attempts:int ->
  Run.Plan.t list ->
  Metrics.outcome list
(** {!map} specialised to executing plans: each plan runs through
    {!Run.exec}, and a lost, hung or crashed worker surfaces as a
    [Metrics.Failed] cell whose [reason] carries the supervisor's
    diagnosis (exit status / signal / deadline, plus any backtrace), so
    matrix printers need no second error path. Plans carrying a trace
    sink never cross a fork — a sink filled in a forked child would be
    thrown away with the child's heap — so under the fork backend,
    named or defaulted, they run inline instead; the [`Domains] backend
    runs them in parallel, sinks and all, because pooled domains share
    this heap. *)
