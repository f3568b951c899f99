(* Load shapes for the request-serving workloads: a deterministic
   requests-per-second envelope over virtual time. The first four are
   adapted from Clue2's workload catalogue (shaped / rampup / pausing /
   fixed); diurnal and flash model the two crowd patterns a public
   service actually sees. *)

type t =
  | Fixed of { rps : float }
  | Rampup of { from_rps : float; to_rps : float; over_s : float }
  | Pausing of { rps : float; on_s : float; off_s : float }
  | Shaped of { points : (float * float) list }
  | Diurnal of { base_rps : float; peak_rps : float; period_s : float }
  | Flash of { base_rps : float; spike_rps : float; at_s : float; for_s : float }

let pi = 4.0 *. atan 1.0

let validate = function
  | Fixed { rps } -> if rps < 0.0 then invalid_arg "Shapes: fixed rps < 0"
  | Rampup { from_rps; to_rps; over_s } ->
      if from_rps < 0.0 || to_rps < 0.0 then
        invalid_arg "Shapes: rampup rps < 0";
      if over_s <= 0.0 then invalid_arg "Shapes: rampup over_s <= 0"
  | Pausing { rps; on_s; off_s } ->
      if rps < 0.0 then invalid_arg "Shapes: pausing rps < 0";
      if on_s <= 0.0 || off_s < 0.0 then invalid_arg "Shapes: pausing period"
  | Shaped { points } ->
      if points = [] then invalid_arg "Shapes: shaped needs >= 1 point";
      List.iter
        (fun (at, rps) ->
          if at < 0.0 || rps < 0.0 then invalid_arg "Shapes: shaped point")
        points;
      let rec ordered = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if b <= a then invalid_arg "Shapes: shaped points not increasing";
            ordered rest
        | _ -> ()
      in
      ordered points
  | Diurnal { base_rps; peak_rps; period_s } ->
      if base_rps < 0.0 || peak_rps < base_rps then
        invalid_arg "Shapes: diurnal needs peak >= base >= 0";
      if period_s <= 0.0 then invalid_arg "Shapes: diurnal period <= 0"
  | Flash { base_rps; spike_rps; at_s; for_s } ->
      if base_rps < 0.0 || spike_rps < 0.0 then
        invalid_arg "Shapes: flash rps < 0";
      if at_s < 0.0 || for_s <= 0.0 then invalid_arg "Shapes: flash window"

(* Requests per (virtual) second at [at_s] seconds into the run. *)
let rate t ~at_s =
  let at_s = max 0.0 at_s in
  match t with
  | Fixed { rps } -> rps
  | Rampup { from_rps; to_rps; over_s } ->
      if at_s >= over_s then to_rps
      else from_rps +. ((to_rps -. from_rps) *. at_s /. over_s)
  | Pausing { rps; on_s; off_s } ->
      let period = on_s +. off_s in
      let phase = Float.rem at_s period in
      if phase < on_s then rps else 0.0
  | Shaped { points } -> (
      match points with
      | [] -> 0.0
      | (t0, r0) :: _ when at_s <= t0 -> r0
      | points ->
          let rec interp = function
            | [ (_, r) ] -> r
            | (t0, r0) :: (((t1, r1) :: _) as rest) ->
                if at_s <= t1 then
                  r0 +. ((r1 -. r0) *. (at_s -. t0) /. (t1 -. t0))
                else interp rest
            | [] -> 0.0
          in
          interp points)
  | Diurnal { base_rps; peak_rps; period_s } ->
      base_rps
      +. (peak_rps -. base_rps)
         *. 0.5
         *. (1.0 -. cos (2.0 *. pi *. at_s /. period_s))
  | Flash { base_rps; spike_rps; at_s = spike_at; for_s } ->
      if at_s >= spike_at && at_s < spike_at +. for_s then spike_rps
      else base_rps

(* An upper bound on [rate] over all time — the thinning envelope for
   the arrival sampler. *)
let peak_rate = function
  | Fixed { rps } -> rps
  | Rampup { from_rps; to_rps; _ } -> Float.max from_rps to_rps
  | Pausing { rps; _ } -> rps
  | Shaped { points } ->
      List.fold_left (fun acc (_, r) -> Float.max acc r) 0.0 points
  | Diurnal { peak_rps; _ } -> peak_rps
  | Flash { base_rps; spike_rps; _ } -> Float.max base_rps spike_rps

(* Canonical text, stable under round-trip: the grammar the campaign
   spec and [Run.Plan.canonical] both use. *)
let fs f =
  (* shortest representation that round-trips for grammar-sized floats *)
  let s = Printf.sprintf "%.12g" f in
  s

let to_string = function
  | Fixed { rps } -> Printf.sprintf "fixed:%s" (fs rps)
  | Rampup { from_rps; to_rps; over_s } ->
      Printf.sprintf "rampup:%s:%s:%s" (fs from_rps) (fs to_rps) (fs over_s)
  | Pausing { rps; on_s; off_s } ->
      Printf.sprintf "pausing:%s:%s:%s" (fs rps) (fs on_s) (fs off_s)
  | Shaped { points } ->
      Printf.sprintf "shaped:%s"
        (String.concat ","
           (List.map (fun (at, r) -> Printf.sprintf "%s=%s" (fs at) (fs r)) points))
  | Diurnal { base_rps; peak_rps; period_s } ->
      Printf.sprintf "diurnal:%s:%s:%s" (fs base_rps) (fs peak_rps)
        (fs period_s)
  | Flash { base_rps; spike_rps; at_s; for_s } ->
      Printf.sprintf "flash:%s:%s:%s:%s" (fs base_rps) (fs spike_rps) (fs at_s)
        (fs for_s)

let failf fmt = Printf.ksprintf failwith fmt

let float_of s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> failf "load shape: bad number %S" s

let of_string s =
  let t =
    match String.index_opt s ':' with
    | None -> failf "load shape %S: expected KIND:ARGS" s
    | Some i -> (
        let kind = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let args () = String.split_on_char ':' rest in
        match (kind, args ()) with
        | "fixed", [ rps ] -> Fixed { rps = float_of rps }
        | "rampup", [ from_rps; to_rps; over_s ] ->
            Rampup
              {
                from_rps = float_of from_rps;
                to_rps = float_of to_rps;
                over_s = float_of over_s;
              }
        | "pausing", [ rps; on_s; off_s ] ->
            Pausing
              {
                rps = float_of rps;
                on_s = float_of on_s;
                off_s = float_of off_s;
              }
        | "shaped", [ pts ] ->
            let point p =
              match String.split_on_char '=' p with
              | [ at; r ] -> (float_of at, float_of r)
              | _ -> failf "load shape: bad shaped point %S" p
            in
            Shaped
              { points = List.map point (String.split_on_char ',' pts) }
        | "diurnal", [ base_rps; peak_rps; period_s ] ->
            Diurnal
              {
                base_rps = float_of base_rps;
                peak_rps = float_of peak_rps;
                period_s = float_of period_s;
              }
        | "flash", [ base_rps; spike_rps; at_s; for_s ] ->
            Flash
              {
                base_rps = float_of base_rps;
                spike_rps = float_of spike_rps;
                at_s = float_of at_s;
                for_s = float_of for_s;
              }
        | kind, _ ->
            failf
              "load shape %S: unknown kind %S (expected \
               fixed|rampup|pausing|shaped|diurnal|flash)"
              s kind)
  in
  (try validate t with Invalid_argument m -> failwith m);
  t
