let pad width cell =
  let n = String.length cell in
  if n >= width then cell else cell ^ String.make (width - n) ' '

let print_table ~header ~rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell ->
         widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let line row =
    row
    |> List.mapi (fun i cell -> pad widths.(i) cell)
    |> String.concat " | "
  in
  print_endline (line header);
  print_endline
    (String.concat "-+-"
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter (fun row -> print_endline (line row)) rows

let fmt_seconds s = Printf.sprintf "%.3f" s

let fmt_ms ms = Printf.sprintf "%.2f" ms

let fmt_bytes b =
  if b >= 1_048_576 then Printf.sprintf "%.2fMB" (float_of_int b /. 1_048_576.)
  else Printf.sprintf "%dKB" (b / 1024)

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
      | _ -> '_')
    (String.lowercase_ascii title)

let write_csv ~dir ~title ~header ~body =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (slug title ^ ".csv") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," header ^ "\n");
      List.iter
        (fun row -> output_string oc (String.concat "," row ^ "\n"))
        body)

let print_series ~csv_dir ~charts ~title ~x_label ~columns ~rows =
  Printf.printf "\n== %s ==\n" title;
  let header = x_label :: columns in
  let body =
    List.map
      (fun (x, cells) ->
        x
        :: List.map
             (function Some v -> Printf.sprintf "%.3f" v | None -> "-")
             cells)
      rows
  in
  Option.iter (fun dir -> write_csv ~dir ~title ~header ~body) csv_dir;
  print_table ~header ~rows:body;
  if charts then Chart.print ~title ~columns ~rows ()
