(** The workload registry: a uniform, typed catalogue over both
    workload families, mirroring the collector registry
    ({!Harness.Registry}).

    Batch workloads are the nine Table 1 specs; serving workloads are
    the request-serving family, one per load shape. Lookups return
    options — no bare [Not_found]. *)

type family = Batch | Serving

type params = Batch_spec of Spec.t | Serving_spec of Request.spec

type info = {
  name : string;
  family : family;
  doc : string;
  params : params;
}

val family_of_params : params -> family

val params_name : params -> string

val scale : int
(** The denominator applied to the paper's byte quantities (8). *)

val scale_volume : params -> float -> params
(** Batch: scale the allocation volume. Serving: stretch the arrival
    window. Neither touches the live set. *)

val base_heap_bytes : params -> int
(** The unit for relative-heap-size sweeps: Table 1's minimum heap for
    batch, the calibrated baseline for serving. *)

val with_shape : Shapes.t -> params -> params
(** Override a serving workload's load shape (the campaign grammar's
    [name\@shape]); raises [Invalid_argument] on a batch workload. *)

val driver :
  ?sink:Telemetry.Sink.t -> params -> Gc_common.Collector.t -> Driver.t
(** The machine-facing {!Driver}: the workload instantiated over a
    collector; [sink] receives per-request telemetry (serving only). *)

(** {1 The registered workloads} *)

val srv_fixed : Request.spec

val srv_shaped : Request.spec

val srv_flash : Request.spec

val all : info list
(** The nine Table 1 batch specs (in Table 1 order), then the serving
    family. *)

val find_opt : string -> info option

val names : unit -> string list

val batch_specs : Spec.t list

val serving_specs : Request.spec list

val pp : Format.formatter -> info -> unit
