(* The workload registry: one uniform, typed catalogue over both
   families — the nine Table 1 batch specs and the request-serving
   workloads — mirroring the collector registry's info records. *)

type family = Batch | Serving

type params = Batch_spec of Spec.t | Serving_spec of Request.spec

type info = {
  name : string;
  family : family;
  doc : string;
  params : params;
}

let family_name = function Batch -> "batch" | Serving -> "serving"

let family_of_params = function
  | Batch_spec _ -> Batch
  | Serving_spec _ -> Serving

let params_name = function
  | Batch_spec s -> s.Spec.name
  | Serving_spec s -> s.Request.name

let scale = Benchmarks.scale

let scale_volume p factor =
  match p with
  | Batch_spec s -> Batch_spec (Spec.scale_volume s factor)
  | Serving_spec s -> Serving_spec (Request.scale_volume s factor)

let base_heap_bytes = function
  | Batch_spec s -> s.Spec.paper_min_heap_bytes
  | Serving_spec s -> s.Request.base_heap_bytes

let with_shape shape = function
  | Serving_spec s -> Serving_spec { s with Request.shape }
  | Batch_spec _ ->
      invalid_arg "Catalog.with_shape: batch workloads have no load shape"

let driver ?sink p collector =
  match p with
  | Batch_spec s ->
      ignore sink;
      Driver.of_mutator (Mutator.create s collector)
  | Serving_spec s -> Driver.of_request (Request.create ?sink s collector)

let make ?(doc = "") params =
  {
    name = params_name params;
    family = family_of_params params;
    doc;
    params;
  }

let of_batch ?doc s = make ?doc (Batch_spec s)

let of_serving ?doc s = make ?doc (Serving_spec s)

(* ------------------------------------------------------------------ *)
(* The serving family: one workload per load shape, sharing the same
   cache/request demographics so only the arrival envelope differs.
   Calibration: ~260 allocations per request puts the healthy service
   time near 50 us, so the shapes' 1.5-3k rps leave headroom — tail
   latency then measures scheduler queueing behind GC pauses, not
   saturation. *)

let serving_base =
  {
    Request.name = "srv_base";
    shape = Shapes.Fixed { rps = 1500.0 };
    duration_ns = 2_000_000_000;
    req_alloc_bytes = 16_384;
    req_mean_size = 64;
    session_frac = 0.2;
    cache_bytes = 1_572_864;
    cache_entry_size = 96;
    cache_reads = 4;
    slo_ns = 10_000_000;
    window_ns = 100_000_000;
    base_heap_bytes = 6 * 1024 * 1024;
    seed = 0;
  }

let srv_fixed =
  {
    serving_base with
    Request.name = "srv_fixed";
    shape = Shapes.Fixed { rps = 1500.0 };
    seed = 201;
  }

let srv_rampup =
  {
    serving_base with
    Request.name = "srv_rampup";
    shape = Shapes.Rampup { from_rps = 200.0; to_rps = 2500.0; over_s = 1.5 };
    seed = 202;
  }

let srv_pausing =
  {
    serving_base with
    Request.name = "srv_pausing";
    shape = Shapes.Pausing { rps = 2000.0; on_s = 0.25; off_s = 0.25 };
    seed = 203;
  }

let srv_shaped =
  {
    serving_base with
    Request.name = "srv_shaped";
    shape =
      Shapes.Shaped
        {
          points =
            [ (0.0, 300.0); (0.5, 1800.0); (1.0, 600.0); (1.5, 2200.0);
              (2.0, 400.0) ];
        };
    seed = 204;
  }

let srv_diurnal =
  {
    serving_base with
    Request.name = "srv_diurnal";
    shape =
      Shapes.Diurnal { base_rps = 400.0; peak_rps = 2200.0; period_s = 1.0 };
    seed = 205;
  }

let srv_flash =
  {
    serving_base with
    Request.name = "srv_flash";
    shape =
      Shapes.Flash
        { base_rps = 600.0; spike_rps = 3000.0; at_s = 0.8; for_s = 0.4 };
    seed = 206;
  }

let all =
  [
    of_batch ~doc:"SPECjvm98 compression: few large array-heavy buffers"
      Benchmarks.compress;
    of_batch ~doc:"SPECjvm98 expert system: many tiny short-lived facts"
      Benchmarks.jess;
    of_batch ~doc:"SPECjvm98 ray tracer" Benchmarks.raytrace;
    of_batch ~doc:"SPECjvm98 in-memory database: big hot live set"
      Benchmarks.db;
    of_batch ~doc:"SPECjvm98 compiler: large long-lived ASTs"
      Benchmarks.javac;
    of_batch ~doc:"SPECjvm98 parser generator" Benchmarks.jack;
    of_batch ~doc:"XML query engine: bursts of short-lived tree nodes"
      Benchmarks.ipsixql;
    of_batch ~doc:"Python interpreter: extreme allocation rate"
      Benchmarks.jython;
    of_batch ~doc:"SPECjbb2000 port: immortal start-up, then short-lived"
      Benchmarks.pseudojbb;
    of_serving ~doc:"serving under a constant request rate" srv_fixed;
    of_serving ~doc:"serving under a linear user ramp-up" srv_rampup;
    of_serving ~doc:"serving under on/off request bursts" srv_pausing;
    of_serving ~doc:"serving under a custom piecewise load envelope"
      srv_shaped;
    of_serving ~doc:"serving under a sinusoidal day/night cycle" srv_diurnal;
    of_serving ~doc:"serving through a flash crowd" srv_flash;
  ]

let find_opt name =
  List.find_opt (fun info -> info.name = name) all

let names () = List.map (fun info -> info.name) all

let batch_specs =
  List.filter_map
    (fun info ->
      match info.params with Batch_spec s -> Some s | Serving_spec _ -> None)
    all

let serving_specs =
  List.filter_map
    (fun info ->
      match info.params with Serving_spec s -> Some s | Batch_spec _ -> None)
    all

let pp ppf info =
  Format.fprintf ppf "%-14s %-8s %s" info.name (family_name info.family)
    info.doc
