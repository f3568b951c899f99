type t = {
  name : string;
  total_alloc_bytes : int;
  immortal_bytes : int;
  window_bytes : int;
  long_frac : float;
  mean_size : int;
  max_size : int;
  large_frac : float;
  array_frac : float;
  nrefs_mean : int;
  mutation_rate : float;
  access_rate : float;
  cold_access_frac : float;
  paper_min_heap_bytes : int;
  seed : int;
}

let scale_volume t factor =
  {
    t with
    total_alloc_bytes =
      max t.immortal_bytes
        (int_of_float (float_of_int t.total_alloc_bytes *. factor));
  }

let live_estimate_bytes t = t.immortal_bytes + t.window_bytes

let pp ppf t =
  Format.fprintf ppf "%s: alloc=%dB live~%dB min-heap=%dB" t.name
    t.total_alloc_bytes (live_estimate_bytes t) t.paper_min_heap_bytes

let default_for_file =
  {
    name = "custom";
    total_alloc_bytes = 8 * 1024 * 1024;
    immortal_bytes = 500_000;
    window_bytes = 250_000;
    long_frac = 0.03;
    mean_size = 48;
    max_size = 1024;
    large_frac = 0.0;
    array_frac = 0.25;
    nrefs_mean = 2;
    mutation_rate = 0.3;
    access_rate = 2.0;
    cold_access_frac = 0.03;
    paper_min_heap_bytes = 2 * 1024 * 1024;
    seed = 1;
  }

let apply_key spec key value =
  let key = String.trim key in
  let int () =
    match int_of_string_opt (String.trim value) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Spec.of_file: %s wants an integer" key)
  in
  let positive () =
    let v = int () in
    if v <= 0 then
      failwith (Printf.sprintf "Spec.of_file: %s wants a positive integer" key);
    v
  in
  let fl () =
    match float_of_string_opt (String.trim value) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Spec.of_file: %s wants a float" key)
  in
  match key with
  | "name" -> { spec with name = String.trim value }
  | "total_alloc_bytes" -> { spec with total_alloc_bytes = int () }
  | "immortal_bytes" -> { spec with immortal_bytes = int () }
  | "window_bytes" -> { spec with window_bytes = int () }
  | "long_frac" -> { spec with long_frac = fl () }
  | "mean_size" -> { spec with mean_size = int () }
  | "max_size" -> { spec with max_size = positive () }
  | "large_frac" -> { spec with large_frac = fl () }
  | "array_frac" -> { spec with array_frac = fl () }
  | "nrefs_mean" -> { spec with nrefs_mean = int () }
  | "mutation_rate" -> { spec with mutation_rate = fl () }
  | "access_rate" -> { spec with access_rate = fl () }
  | "cold_access_frac" -> { spec with cold_access_frac = fl () }
  | "paper_min_heap_bytes" -> { spec with paper_min_heap_bytes = int () }
  | "seed" -> { spec with seed = int () }
  | other -> failwith (Printf.sprintf "Spec.of_file: unknown key %S" other)

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let spec = ref default_for_file in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             match String.index_opt line '=' with
             | None ->
                 failwith
                   (Printf.sprintf "Spec.of_file: malformed line %S" line)
             | Some i ->
                 spec :=
                   apply_key !spec
                     (String.sub line 0 i)
                     (String.sub line (i + 1) (String.length line - i - 1))
         done
       with End_of_file -> ());
      !spec)

let to_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "name = %s\ntotal_alloc_bytes = %d\nimmortal_bytes = %d\n\
         window_bytes = %d\nlong_frac = %f\nmean_size = %d\nmax_size = %d\n\
         large_frac = %f\narray_frac = %f\nnrefs_mean = %d\n\
         mutation_rate = %f\naccess_rate = %f\ncold_access_frac = %f\n\
         paper_min_heap_bytes = %d\nseed = %d\n"
        t.name t.total_alloc_bytes t.immortal_bytes t.window_bytes t.long_frac
        t.mean_size t.max_size t.large_frac t.array_frac t.nrefs_mean
        t.mutation_rate t.access_rate t.cold_access_frac
        t.paper_min_heap_bytes t.seed)
