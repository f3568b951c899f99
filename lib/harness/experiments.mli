(** The paper's evaluation (§5), one target per table and figure.

    Each target runs its simulation sweep and prints the table's rows or
    the figure's data series. [Quick] mode uses reduced allocation volumes
    and coarser sweeps; [Full] uses the complete scaled parameters. *)

type mode = Quick | Full

type t
(** One bench session: the mode, where the cells run, where output goes,
    and Table 1's min-heap bisection once it has run (Fig. 2 reuses it). *)

val create :
  ?jobs:int ->
  ?backend:Supervisor.backend ->
  ?csv_dir:string ->
  ?charts:bool ->
  ?slo_out:string ->
  mode ->
  t
(** [jobs] (default 1) fans the independent cells of each sweep out over
    that many workers through {!Supervisor.run}. Simulation is
    deterministic in virtual time and every sweep computes its whole
    matrix before printing, so the output is byte-identical whatever the
    count. [backend] is as in {!Supervisor.run}: left unset, sweeps run
    inline at one job and fork wider. A quarantined plan prints as
    {!Supervisor.failed_outcome}. [csv_dir] also writes each figure
    series, and the [trace] target's Chrome JSON and event CSV, into
    that directory, creating it when missing. [charts] prints an ASCII
    chart ({!Chart}) under each series. [slo_out] is where the [slo]
    target writes its self-validated ["bcgc-slo-report/1"] JSON report.
    @raise Invalid_argument when [jobs < 1]. *)

val targets : (string * (t -> unit)) list
(** Every target by name: the paper entries [table1] to [faults], then
    [control], [trace], [slo] and [all], which runs the paper entries in
    that order. *)

val find : string -> (t -> unit) option
(** The target of that name; [fig4] and [fig5] both name [fig45]. *)
