(** ASCII tables and data series for the experiment output. *)

val print_table : header:string list -> rows:string list list -> unit
(** Aligned, pipe-separated table on stdout. *)

val print_series :
  csv_dir:string option ->
  charts:bool ->
  title:string ->
  x_label:string ->
  columns:string list ->
  rows:(string * float option list) list ->
  unit
(** A figure as a data table: one row per x value; [None] cells (failed
    runs) print as "-". With [csv_dir], the series is also written to
    [<csv_dir>/<slug-of-title>.csv] for plotting, creating the directory
    when missing; with [charts], an ASCII chart ({!Chart}) is printed
    under the table. *)

val fmt_seconds : float -> string

val fmt_ms : float -> string

val fmt_bytes : int -> string
(** Human-readable KB/MB. *)
