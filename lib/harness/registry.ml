module Gc_config = Gc_common.Gc_config

let fixed_nursery_bytes = 4 * 1024 * 1024 / Workload.Benchmarks.scale

(* One registry entry. The old parallel string lists ([names],
   [ablation_names]) are derived from [all] below; [create]/[config_for]
   go through [find]. *)
type info = {
  name : string;  (** unique registry key, e.g. ["BC-fixed"] *)
  family : string;  (** base collector, e.g. ["BC"] *)
  variant : string option;  (** [None] for the canonical configuration *)
  ablation : bool;  (** BC ablation (bench-only), not a headline entry *)
  doc : string;  (** one-line description for [bcgc list] *)
  config : heap_bytes:int -> Gc_config.t;
  factory : Gc_common.Collector.factory;
}

let plain ~heap_bytes = Gc_config.make ~heap_bytes ()

let fixed_nursery ~heap_bytes =
  Gc_config.make ~heap_bytes ~nursery:(Gc_config.Fixed fixed_nursery_bytes) ()

let bc_opts f ~heap_bytes =
  Gc_config.make ~heap_bytes ~bc:(f Gc_config.default_bc_opts) ()

(* Entries are built from the implementation modules themselves
   ({!Gc_common.Collector.S}): the family name, the default doc line and
   the factory all come from the module, so an entry only states what is
   special about it (variant tag, config tweak, overriding doc). *)
let entry ?variant ?(ablation = false) ?doc ~config
    (module C : Gc_common.Collector.S) =
  let family = C.name in
  let name =
    match variant with None -> family | Some v -> family ^ "-" ^ v
  in
  let doc = match doc with Some d -> d | None -> C.doc in
  { name; family; variant; ablation; doc; config; factory = C.factory }

let bc = (module Bookmarking.Bc : Gc_common.Collector.S)

let all =
  [
    entry ~config:plain bc;
    entry ~variant:"resize" ~doc:"BC with bookmarks disabled: heap resizing only"
      ~config:
        (bc_opts (fun o -> { o with Gc_config.bookmarks_enabled = false }))
      bc;
    entry ~variant:"fixed" ~doc:"BC with the fixed nursery"
      ~config:fixed_nursery bc;
    entry ~config:plain (module Baselines.Gen_ms);
    entry ~variant:"fixed" ~doc:"GenMS with the fixed nursery"
      ~config:fixed_nursery
      (module Baselines.Gen_ms);
    entry ~variant:"coop"
      ~doc:"GenMS with Cooper-style discard-only cooperation (§6)"
      ~config:(fun ~heap_bytes ->
        Gc_config.make ~heap_bytes ~cooperative_discard:true ())
      (module Baselines.Gen_ms);
    entry ~config:plain (module Baselines.Gen_copy);
    entry ~variant:"fixed" ~doc:"GenCopy with the fixed nursery"
      ~config:fixed_nursery
      (module Baselines.Gen_copy);
    entry ~config:plain (module Baselines.Gen_ms.Copy_ms);
    entry ~config:plain (module Baselines.Mark_sweep);
    entry ~config:plain (module Baselines.Semi_space);
    (* BC ablations (bench targets only) *)
    entry ~variant:"noaggr" ~ablation:true
      ~doc:"BC without aggressive empty-page discards"
      ~config:
        (bc_opts (fun o -> { o with Gc_config.aggressive_discard = false }))
      bc;
    entry ~variant:"nocons" ~ablation:true
      ~doc:"BC without conservative page bookmarks"
      ~config:
        (bc_opts (fun o -> { o with Gc_config.conservative_clear = false }))
      bc;
    entry ~variant:"nocompact" ~ablation:true
      ~doc:"BC with the compacting collection disabled"
      ~config:
        (bc_opts (fun o -> { o with Gc_config.compaction_enabled = false }))
      bc;
    entry ~variant:"reserve0" ~ablation:true ~doc:"BC with no reserve pages"
      ~config:(bc_opts (fun o -> { o with Gc_config.reserve_pages = 0 }))
      bc;
    entry ~variant:"reserve32" ~ablation:true ~doc:"BC with a 32-page reserve"
      ~config:(bc_opts (fun o -> { o with Gc_config.reserve_pages = 32 }))
      bc;
    entry ~variant:"ptraware" ~ablation:true
      ~doc:"BC with pointer-aware victim selection (8 candidates)"
      ~config:
        (bc_opts (fun o -> { o with Gc_config.pointer_aware_victims = 8 }))
      bc;
    entry ~variant:"noregrow" ~ablation:true
      ~doc:"BC that never regrows the heap after pressure lifts"
      ~config:(bc_opts (fun o -> { o with Gc_config.regrow = false }))
      bc;
  ]

let find name = List.find_opt (fun i -> i.name = name) all

(* Thin derivations keeping the old API shape. *)
let names =
  List.filter_map (fun i -> if i.ablation then None else Some i.name) all

let ablation_names =
  List.filter_map (fun i -> if i.ablation then Some i.name else None) all

let unknown name =
  invalid_arg (Printf.sprintf "Registry: unknown collector %S" name)

let config_for ~name ~heap_bytes =
  match find name with Some i -> i.config ~heap_bytes | None -> unknown name

let create ~name ~heap_bytes heap =
  match find name with
  | Some i -> i.factory (i.config ~heap_bytes) heap
  | None -> unknown name

(* The typed instantiation path: callers resolve an [info] once (or hold
   one statically) and apply it to a machine process — no second
   string lookup between "which collector" and "build it". *)
let instantiate i proc =
  let c =
    i.factory
      (i.config ~heap_bytes:(Machine.heap_bytes proc))
      (Machine.heap proc)
  in
  Machine.set_collector proc c;
  c

let instantiate_name ~name proc =
  match find name with Some i -> instantiate i proc | None -> unknown name
