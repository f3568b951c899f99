(** The one scheduling loop under every cell fan-out.

    The engine under every sweep of {!Experiments} and {!Campaign}:
    {!run} checks [jobs], picks the backend and owns the single retry
    policy — bounded attempts with doubling backoff, then quarantine —
    so the backends differ only in {e where} a cell runs: inline, on
    the shared {!Domain_pool}, or in forked worker processes. The queue
    itself never aborts, and results come back in input order.

    Forked workers are leased one cell at a time; the parent [select]s
    on every busy worker's result pipe with a per-cell wall-clock
    deadline, and any way a worker can misbehave — crash, hang, get
    SIGKILLed, or cut its result stream mid-record — costs only the one
    cell it was leased, which is re-queued on a fresh worker. Work runs
    in forked children, so the work function needs no marshalling; only
    each item's {e result} crosses a pipe and must be plain marshallable
    data. *)

type backend = [ `Fork | `Domains | `Seq ]
(** Where cells execute. [`Fork]: supervised forked worker processes —
    crash isolation, per-cell deadlines, chaos. [`Domains]: the shared
    {!Domain_pool} — no fork/Marshal cost, idle workers claim the next
    cell from one shared cursor, results as heap values; no kill-based
    supervision (deadlines and chaos are rejected/ignored), and once
    chosen, [Unix.fork] is unavailable for the rest of the process.
    [`Seq]: inline in this process. Retries apply on all three, and all
    three produce byte-identical cell values — the simulation runs in
    virtual time. *)

type failure =
  | Raised of { exn_name : string; reason : string; backtrace : string }
      (** the work function raised; [backtrace] is the [Printexc]
          backtrace recorded where the cell ran (possibly empty) *)
  | Crashed of { status : Unix.process_status }
      (** the worker process died without returning the cell — the
          status says how: nonzero exit or a signal *)
  | Hung of { deadline_s : float }
      (** the worker blew the per-cell wall-clock deadline and was
          SIGKILLed *)
  | Truncated
      (** the worker died mid-record: bytes arrived but never completed
          a marshalled result *)

type 'a cell =
  | Done of { value : 'a; attempts : int; failures : failure list }
      (** completed, possibly after retries; [failures] lists the
          attempts that failed first, oldest first *)
  | Quarantined of { attempts : int; failures : failure list }
      (** every attempt failed; the cell is reported, never rerun *)

type chaos = {
  chaos_seed : int;  (** same seed, same kill schedule *)
  kill_prob : float;  (** P(SIGKILL the worker right after a lease) *)
  max_kills : int;  (** hard bound, so chaos always terminates *)
}
(** Self-chaos: the supervisor SIGKILLs its own workers at random
    lease points to prove recovery. A chaos kill re-queues the
    in-flight cell {e without} charging an attempt — the failure was
    the supervisor's own doing. *)

type stats = {
  retried : int;  (** failed attempts that were retried *)
  quarantined : int;
  chaos_kills : int;
  workers_lost : int;  (** forked workers that died, incl. kills *)
}

val describe_failures : failure list -> string
(** Multi-line: the most recent failure first, earlier attempts
    indented under it. *)

val failed_outcome : failure list -> Metrics.outcome
(** A quarantined cell's failures as the one [Metrics.Failed] every
    sweep and campaign report prints: [reason] is {!describe_failures},
    and [exn_name] is the exception the last attempt raised or, when
    its worker was lost, the failure's kind ([Supervisor.Crashed],
    [Supervisor.Hung], [Supervisor.Truncated]). *)

val default_jobs : unit -> int
(** Worker count matching the machine's available cores. *)

val run :
  jobs:int ->
  ?backend:backend ->
  ?deadline_s:float ->
  ?attempts:int ->
  ?backoff_s:float ->
  ?chaos:chaos ->
  ?on_result:(int -> 'b cell -> unit) ->
  ('a -> 'b) ->
  'a array ->
  'b cell array * stats
(** [run ~jobs f items] computes [f items.(i)] for every [i] and returns
    the per-cell results in input order. [jobs < 1] raises
    [Invalid_argument] — there is no silent sequential fallback — and
    [jobs] is capped at the number of items.

    [backend] selects where cells run. Left unset, it is [`Seq] when
    [min jobs n = 1] and [`Fork] otherwise; an explicit [`Fork] always
    forks, even for one worker. [attempts] is the total tries per cell
    (default 1); [backoff_s] the base retry delay, doubled per failed
    attempt and capped at 8x (default 0.1 s). Under [`Seq] and
    [`Domains] a cell retries where it runs; a forked cell is re-queued
    by the coordinator on a fresh worker. [deadline_s] (default: none)
    and [chaos] act only under [`Fork]: [`Seq] ignores both, and
    [`Domains] ignores [deadline_s] (a domain cannot be killed mid-cell
    — bound runaway cells with [Run.Plan.with_event_cap] instead) and
    raises [Invalid_argument] on [chaos]. [`Fork] raises
    [Invalid_argument] when the process has already spawned a domain:
    the OCaml runtime forbids [Unix.fork] from then on, so order
    fork-backend work first.

    Under [`Fork], [f] runs on the worker's copy of the heap, so its
    mutations never reach the parent: a trace sink made in the parent
    and filled by [f] stays empty there. Under [`Domains] and [`Seq]
    results are ordinary heap values and cells share this process's
    memory.

    [on_result] fires in completion order as each cell settles (done or
    quarantined), always in the calling domain — the campaign journal's
    append point. *)
