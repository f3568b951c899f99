(** Persistent pool of OCaml 5 domains executing experiment cells in
    shared memory, handed out from one atomic cursor per round.

    Where {!Supervisor.run}'s [`Domains] backend runs its cells: as
    ordinary closures on pooled domains — no fork, no Marshal, results
    come back as heap values in spec order. The simulation is
    deterministic in virtual time, so a pool sweep is byte-identical to
    a sequential or forked one; only the wall-clock changes. What the
    pool gives up relative to fork is isolation: a cell that corrupts
    memory or diverges takes the process with it (cells are expected to
    contain their own failures, as {!Run.exec} does), and chaos/deadline
    kills don't exist because a domain cannot be SIGKILLed.

    {b Fork interaction.} The OCaml runtime permanently refuses
    [Unix.fork] once any domain has been spawned — joining them does not
    restore it. Run fork-backend work before the first {!create}/{!get}
    of the process; {!Supervisor.run} turns the runtime's refusal into
    an [Invalid_argument] that says so. *)

type t

type stats = {
  steals : int;
      (** cells of the last round run by a worker other than their
          round-robin home, [i mod jobs] *)
  executed : int array;  (** per-worker cells executed last round *)
}

val create : jobs:int -> t
(** Spawn a pool of [jobs] worker domains (parked between rounds).
    @raise Invalid_argument when [jobs < 1]. *)

val run :
  t ->
  ?on_result:(int -> ('b, exn * string) result -> unit) ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn * string) result array
(** [run t f xs] executes every [f xs.(i)] on the pool and returns the
    per-cell results in spec (input) order. A cell whose [f] raises
    yields [Error (exn, backtrace)].

    Idle workers claim cells from the end of the batch, [n-1] first.
    [on_result] fires in the {e coordinating} domain, in completion
    order, as each cell finishes: the campaign journal's single-writer
    append point. The pool holds nothing of the round once [run]
    returns.

    Must be called from one coordinating domain at a time; reentrant
    calls on the same pool raise [Invalid_argument]. *)

val last_stats : t -> stats
(** Steal and per-worker execution counters of the round that {!run}
    last completed. *)

val shutdown : t -> unit
(** Stop and join every worker domain. Idempotent. *)

val get : jobs:int -> t
(** The process-wide shared pool, created on first use and recreated
    (after an orderly {!shutdown}) when [jobs] changes. Coordinator-only
    state: rounds are driven from one coordinating domain at a time. *)

val shutdown_global : unit -> unit
(** Shut down the shared pool, if any. Idle pooled domains are parked
    on a condition variable and cost nothing, but wall-clock-sensitive
    callers (the perf suite) shut them down anyway. *)
