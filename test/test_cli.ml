(* End-to-end checks of the bcgc command-line interface: each subcommand
   runs against the built binary. *)

let bcgc ?(stderr = "/dev/null") args =
  (* resolve the binary relative to this test executable, so the test
     works regardless of the invocation directory *)
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "bcgc.exe"))
  in
  Sys.command
    (Filename.quote_command exe args ~stdout:"/dev/null" ~stderr)

let check = Alcotest.check

let test_list () = check Alcotest.int "list" 0 (bcgc [ "list" ])

let test_run () =
  check Alcotest.int "run" 0
    (bcgc
       [ "run"; "-c"; "BC"; "-w"; "_202_jess"; "--heap-kb"; "2048"; "--volume"; "0.02" ])

let test_run_pressure () =
  check Alcotest.int "run with pin" 0
    (bcgc
       [
         "run"; "-c"; "GenMS"; "-w"; "_202_jess"; "--heap-kb"; "4096";
         "--volume"; "0.05"; "--frames"; "1200"; "--pin"; "800"; "-v";
       ])

let test_minheap () =
  check Alcotest.int "minheap" 0
    (bcgc [ "minheap"; "-c"; "GenMS"; "-w"; "_202_jess"; "--volume"; "0.02" ])

let test_trace_roundtrip () =
  let tmp = Filename.temp_file "bcgc" ".trace" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      check Alcotest.int "trace-record" 0
        (bcgc
           [ "trace-record"; "-w"; "_202_jess"; "--volume"; "0.01";
             "--heap-kb"; "4096"; "-o"; tmp ]);
      check Alcotest.int "trace-replay" 0
        (bcgc [ "trace-replay"; "-c"; "BC"; "-i"; tmp; "--heap-kb"; "2048" ]))

let stderr_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* An unknown collector name is resolved before any work: exit 1 and one
   stderr line naming it, whichever subcommand or flag carried it. *)
let test_unknown_collector_fails () =
  check Alcotest.bool "unknown collector rejected" true
    (bcgc [ "run"; "-c"; "NoSuchGC" ] <> 0);
  let err = Filename.temp_file "bcgc" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      List.iter
        (fun args ->
          let label = String.concat " " args in
          check Alcotest.int (label ^ ": exit 1") 1 (bcgc ~stderr:err args);
          match stderr_lines err with
          | [ line ] ->
              check Alcotest.bool line true
                (String.starts_with ~prefix:"unknown collector \"NoSuchGC\""
                   line)
          | lines ->
              Alcotest.failf "%s: %d lines on stderr" label
                (List.length lines))
        [
          [ "minheap"; "-c"; "NoSuchGC"; "-w"; "_201_compress" ];
          [ "run"; "--coworker"; "NoSuchGC" ];
        ])

(* A mistyped bench target is a usage error, not a run of every target. *)
let test_bench_unknown_target () =
  check Alcotest.int "exit 2" 2 (bcgc [ "bench"; "no-such-target" ])

(* An exception that escapes a subcommand gets bcgc's own one-line
   diagnosis and exit 1, not a multi-line internal error. *)
let test_escaped_exception_one_line () =
  let err = Filename.temp_file "bcgc" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      check Alcotest.int "exit 1" 1
        (bcgc ~stderr:err [ "trace-replay"; "-i"; "/nonexistent/x" ]);
      match stderr_lines err with
      | [ line ] ->
          check Alcotest.bool line true
            (String.starts_with ~prefix:"bcgc: Sys_error(" line)
      | lines -> Alcotest.failf "%d lines on stderr" (List.length lines))

(* `bench trace --csv DIR` creates DIR, as the figure series do, and
   writes a Chrome JSON and an event CSV per collector. *)
let test_bench_trace_creates_dir () =
  let parent = Filename.temp_dir "bcgc-test-trace" "" in
  let dir = Filename.concat parent "fresh" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end;
      Sys.rmdir parent)
    (fun () ->
      check Alcotest.int "bench trace" 0
        (bcgc [ "bench"; "trace"; "--csv"; dir ]);
      check
        Alcotest.(list string)
        "files"
        [
          "trace-BC-40.csv"; "trace-BC-40.json"; "trace-GenMS-40.csv";
          "trace-GenMS-40.json";
        ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))

let () =
  Alcotest.run "cli"
    [
      ( "bcgc",
        [
          Alcotest.test_case "list" `Quick test_list;
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "run under pressure" `Quick test_run_pressure;
          Alcotest.test_case "minheap" `Quick test_minheap;
          Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "unknown collector" `Quick
            test_unknown_collector_fails;
          Alcotest.test_case "unknown bench target" `Quick
            test_bench_unknown_target;
          Alcotest.test_case "escaped exception" `Quick
            test_escaped_exception_one_line;
          Alcotest.test_case "bench trace creates its dir" `Quick
            test_bench_trace_creates_dir;
        ] );
    ]
