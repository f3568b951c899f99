type backend = [ `Fork | `Domains | `Seq ]

type failure =
  | Raised of { exn_name : string; reason : string; backtrace : string }
  | Crashed of { status : Unix.process_status }
  | Hung of { deadline_s : float }
  | Truncated

type 'a cell =
  | Done of { value : 'a; attempts : int; failures : failure list }
  | Quarantined of { attempts : int; failures : failure list }

type chaos = { chaos_seed : int; kill_prob : float; max_kills : int }

type stats = {
  retried : int;
  quarantined : int;
  chaos_kills : int;
  workers_lost : int;
}

let signal_name =
  let names =
    [
      (Sys.sigabrt, "SIGABRT");
      (Sys.sigalrm, "SIGALRM");
      (Sys.sigfpe, "SIGFPE");
      (Sys.sighup, "SIGHUP");
      (Sys.sigill, "SIGILL");
      (Sys.sigint, "SIGINT");
      (Sys.sigkill, "SIGKILL");
      (Sys.sigpipe, "SIGPIPE");
      (Sys.sigquit, "SIGQUIT");
      (Sys.sigsegv, "SIGSEGV");
      (Sys.sigterm, "SIGTERM");
      (Sys.sigusr1, "SIGUSR1");
      (Sys.sigusr2, "SIGUSR2");
      (Sys.sigstop, "SIGSTOP");
      (Sys.sigtstp, "SIGTSTP");
      (Sys.sigxcpu, "SIGXCPU");
      (Sys.sigxfsz, "SIGXFSZ");
    ]
  in
  fun s ->
    match List.assoc_opt s names with
    | Some n -> n
    | None -> Printf.sprintf "signal %d" s

let string_of_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

let describe_failure = function
  | Raised { exn_name; reason; backtrace } ->
      if backtrace = "" then Printf.sprintf "raised %s: %s" exn_name reason
      else
        Printf.sprintf "raised %s: %s\n%s" exn_name reason
          (String.trim backtrace)
  | Crashed { status } ->
      Printf.sprintf "worker %s while running this cell"
        (string_of_status status)
  | Hung { deadline_s } ->
      Printf.sprintf
        "worker blew the %.3gs cell deadline and was SIGKILLed" deadline_s
  | Truncated -> "worker died mid-record: truncated result stream"

let describe_failures = function
  | [] -> "worker lost before returning this result"
  | fs ->
      (* most recent first: that's the attempt that exhausted the budget *)
      let newest_first = List.rev fs in
      let head = describe_failure (List.hd newest_first) in
      let earlier =
        List.mapi
          (fun i f ->
            Printf.sprintf "  (earlier attempt %d: %s)"
              (List.length newest_first - 1 - i)
              (describe_failure f))
          (List.tl newest_first)
      in
      String.concat "\n" (head :: earlier)

(* A quarantined cell as a matrix cell: the last attempt's exception,
   or the way its worker was lost, names it. *)
let failed_outcome failures =
  let exn_name =
    match List.rev failures with
    | Raised { exn_name; _ } :: _ -> exn_name
    | Crashed _ :: _ -> "Supervisor.Crashed"
    | Hung _ :: _ -> "Supervisor.Hung"
    | Truncated :: _ -> "Supervisor.Truncated"
    | [] -> "Supervisor.Quarantined"
  in
  Metrics.Failed
    {
      Metrics.reason = describe_failures failures;
      exn_name;
      fault_stats = None;
      partial = None;
    }

let failure_of_exn e backtrace =
  Raised
    {
      exn_name = Printexc.exn_slot_name e;
      reason = Printexc.to_string e;
      backtrace;
    }

let default_jobs () = Domain.recommended_domain_count ()

let default_backoff_s = 0.1

(* The one retry delay, wherever the retry happens: [backoff_s] after
   the first failed attempt, doubled per further failure, capped at 8x. *)
let backoff_delay ~backoff_s attempt =
  Float.min
    (backoff_s *. Float.pow 2.0 (float_of_int (attempt - 1)))
    (backoff_s *. 8.0)

(* The one retry loop, for the backends whose cells can retry where they
   run ([`Seq] in this domain, [`Domains] on a pooled one), so a cell's
   whole attempt history stays with the domain that ran it. A forked
   worker that dies cannot retry its own cell: the fork coordinator
   re-queues instead, with the same delay. *)
let with_retries ~attempts ~backoff_s f x =
  let rec go attempt failures =
    match f x with
    | v -> Done { value = v; attempts = attempt; failures = List.rev failures }
    | exception e ->
        let fl = failure_of_exn e (Printexc.get_backtrace ()) in
        let failures = fl :: failures in
        if attempt >= attempts then
          Quarantined { attempts = attempt; failures = List.rev failures }
        else begin
          Unix.sleepf (backoff_delay ~backoff_s attempt);
          go (attempt + 1) failures
        end
  in
  go 1 []

(* Every backend's statistics, tallied once from the settled cells: each
   charged attempt before a cell's last one failed and was retried. *)
let settle ?(chaos_kills = 0) ?(workers_lost = 0) cells =
  let retried, quarantined =
    Array.fold_left
      (fun (r, q) -> function
        | Done { attempts; _ } -> (r + attempts - 1, q)
        | Quarantined { attempts; _ } -> (r + attempts - 1, q + 1))
      (0, 0) cells
  in
  (cells, { retried; quarantined; chaos_kills; workers_lost })

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

(* Leases arrive as ASCII "N\n" lines; EOF (or a negative lease) means
   shut down. Each result goes back as one raw Marshal record — its own
   header carries the payload length, so the parent can reframe the
   byte stream without any blocking read. *)
let child_loop work_rd res_wr f (items : 'a array) =
  Printexc.record_backtrace true;
  let ic = Unix.in_channel_of_descr work_rd in
  let oc = Unix.out_channel_of_descr res_wr in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
        match int_of_string_opt (String.trim line) with
        | None -> ()
        | Some idx when idx < 0 -> ()
        | Some idx ->
            let r : ('b, failure) result =
              match f items.(idx) with
              | v -> Ok v
              | exception e ->
                  Error (failure_of_exn e (Printexc.get_backtrace ()))
            in
            Marshal.to_channel oc (idx, r) [];
            flush oc;
            loop ())
  in
  (try loop () with _ -> ());
  try flush oc with _ -> ()

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)

type worker = {
  pid : int;
  work_wr : Unix.file_descr;
  res_rd : Unix.file_descr;
  pending : Buffer.t;  (* bytes read but not yet a whole record *)
  mutable in_flight : int option;
  mutable deadline : float;  (* wall clock; infinity when idle/no limit *)
}

type decoded = Records of (int * (Obj.t, failure) result) list | Corrupt

(* Pull every complete Marshal record out of the worker's byte buffer,
   leaving any partial tail in place. *)
let decode_pending w : decoded =
  let s = Buffer.contents w.pending in
  let b = Bytes.unsafe_of_string s in
  let len = String.length s in
  let pos = ref 0 in
  let out = ref [] in
  let corrupt = ref false in
  (try
     while (not !corrupt) && len - !pos >= Marshal.header_size do
       match Marshal.data_size b !pos with
       | exception Failure _ -> corrupt := true
       | dsize ->
           if len - !pos >= Marshal.header_size + dsize then begin
             (match Marshal.from_bytes b !pos with
             | v -> out := v :: !out
             | exception _ -> corrupt := true);
             pos := !pos + Marshal.header_size + dsize
           end
           else raise Exit
     done
   with Exit -> ());
  if !corrupt then Corrupt
  else begin
    if !pos > 0 then begin
      Buffer.clear w.pending;
      Buffer.add_substring w.pending s !pos (len - !pos)
    end;
    Records (List.rev !out)
  end

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Supervised forked execution                                         *)

let run_forked ~jobs ~deadline_s ~attempts:max_attempts ~backoff_s ~chaos
    ~on_result f items =
  let n = Array.length items in
  let chaos_kills = ref 0 and workers_lost = ref 0 in
  let results : 'b cell option array = Array.make n None in
  let tried = Array.make n 0 in
  let failures : failure list array = Array.make n [] in
  let queue = Queue.create () in
  Array.iteri (fun i _ -> Queue.add i queue) items;
  let retry_at = ref ([] : (float * int) list) in
  let remaining = ref n in
  let workers = ref ([] : worker list) in
  let chaos_rng = Option.map (fun c -> Random.State.make [| c.chaos_seed |]) chaos in
  let chaos_budget =
    ref (match chaos with Some c -> c.max_kills | None -> 0)
  in
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let now () = Unix.gettimeofday () in

  let finalize idx cell =
    results.(idx) <- Some cell;
    decr remaining;
    on_result idx cell
  in
  let insert_retry at idx =
    let rec ins = function
      | [] -> [ (at, idx) ]
      | (a, _) :: _ as l when at < a -> (at, idx) :: l
      | x :: tl -> x :: ins tl
    in
    retry_at := ins !retry_at
  in
  let record_failure idx fl =
    failures.(idx) <- fl :: failures.(idx);
    if tried.(idx) >= max_attempts then
      finalize idx
        (Quarantined
           { attempts = tried.(idx); failures = List.rev failures.(idx) })
    else insert_retry (now () +. backoff_delay ~backoff_s tried.(idx)) idx
  in
  let record_done idx v =
    finalize idx
      (Done
         { value = v; attempts = tried.(idx); failures = List.rev failures.(idx) })
  in

  let spawn () =
    flush stdout;
    flush stderr;
    let work_rd, work_wr = Unix.pipe ~cloexec:false () in
    let res_rd, res_wr = Unix.pipe ~cloexec:false () in
    (* the parent-side ends of every live sibling, to close in the child:
       a leaked work_wr copy would keep a sibling from ever seeing EOF *)
    let inherited =
      List.concat_map (fun w -> [ w.work_wr; w.res_rd ]) !workers
    in
    match Unix.fork () with
    | exception Failure _ ->
        (* OCaml 5 refuses fork for good once any domain has been spawned,
           joined or not, so this is the first spawn: no worker exists and
           no cell has run *)
        List.iter close_noerr [ work_rd; work_wr; res_rd; res_wr ];
        ignore (Sys.signal Sys.sigpipe old_sigpipe);
        invalid_arg
          "Supervisor: the fork backend is unavailable — a domain pool was \
           already created in this process, and the OCaml runtime forbids \
           Unix.fork from then on; run fork-backend work first or use \
           --backend domains"
    | 0 ->
        close_noerr work_wr;
        close_noerr res_rd;
        List.iter close_noerr inherited;
        child_loop work_rd res_wr f items;
        (* _exit, not exit: no at_exit, and the parent's stdio buffers
           inherited by the fork must not be flushed a second time *)
        Unix._exit 0
    | pid ->
        close_noerr work_rd;
        close_noerr res_wr;
        let w =
          {
            pid;
            work_wr;
            res_rd;
            pending = Buffer.create 256;
            in_flight = None;
            deadline = infinity;
          }
        in
        workers := !workers @ [ w ];
        w
  in
  let remove_worker w =
    close_noerr w.work_wr;
    close_noerr w.res_rd;
    workers := List.filter (fun x -> x.pid <> w.pid) !workers;
    incr workers_lost
  in
  let reap w =
    match Unix.waitpid [] w.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
        match Unix.waitpid [] w.pid with _, status -> status)
  in
  (* Kill a worker we have decided against; classify its in-flight cell. *)
  let kill_worker w how =
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let status = reap w in
    remove_worker w;
    match (w.in_flight, how) with
    | None, _ -> ()
    | Some idx, `Chaos ->
        incr chaos_kills;
        (* our own fault: re-queue without charging an attempt *)
        tried.(idx) <- tried.(idx) - 1;
        Queue.add idx queue
    | Some idx, `Deadline d ->
        record_failure idx (Hung { deadline_s = d })
    | Some idx, `Corrupt ->
        ignore status;
        record_failure idx Truncated
  in
  let worker_eof w =
    let status = reap w in
    let partial = Buffer.length w.pending > 0 in
    let in_flight = w.in_flight in
    remove_worker w;
    match in_flight with
    | None -> ()
    | Some idx ->
        if partial then record_failure idx Truncated
        else record_failure idx (Crashed { status })
  in
  let read_buf = Bytes.create 65536 in
  let handle_readable w =
    match Unix.read w.res_rd read_buf 0 (Bytes.length read_buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 -> worker_eof w
    | k -> (
        Buffer.add_subbytes w.pending read_buf 0 k;
        match decode_pending w with
        | Corrupt -> kill_worker w `Corrupt
        | Records rs ->
            List.iter
              (fun (idx, r) ->
                if w.in_flight = Some idx then begin
                  w.in_flight <- None;
                  w.deadline <- infinity
                end;
                match r with
                | Ok v -> record_done idx (Obj.obj v)
                | Error fl -> record_failure idx fl)
              rs)
  in
  let write_lease w idx =
    let line = Bytes.of_string (string_of_int idx ^ "\n") in
    let rec put off =
      if off < Bytes.length line then
        let k = Unix.write w.work_wr line off (Bytes.length line - off) in
        put (off + k)
    in
    put 0
  in
  let idle_worker () = List.find_opt (fun w -> w.in_flight = None) !workers in
  let dispatch () =
    let continue = ref true in
    while !continue && not (Queue.is_empty queue) do
      let candidate =
        match idle_worker () with
        | Some w -> Some w
        | None -> if List.length !workers < jobs then Some (spawn ()) else None
      in
      match candidate with
      | None -> continue := false
      | Some w -> (
          let idx = Queue.peek queue in
          tried.(idx) <- tried.(idx) + 1;
          match write_lease w idx with
          | () ->
              ignore (Queue.pop queue);
              w.in_flight <- Some idx;
              w.deadline <-
                (match deadline_s with
                | None -> infinity
                | Some d -> now () +. d);
              (* self-chaos: maybe SIGKILL the worker we just leased to *)
              (match (chaos, chaos_rng) with
              | Some c, Some rng
                when !chaos_budget > 0 && Random.State.float rng 1.0 < c.kill_prob
                ->
                  decr chaos_budget;
                  kill_worker w `Chaos
              | _ -> ())
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
              (* died while idle: not this cell's fault — un-charge it *)
              tried.(idx) <- tried.(idx) - 1;
              ignore (reap w);
              remove_worker w)
    done
  in
  while !remaining > 0 do
    (* promote due retries into the work queue *)
    let t = now () in
    let due, later = List.partition (fun (at, _) -> at <= t) !retry_at in
    retry_at := later;
    List.iter (fun (_, idx) -> Queue.add idx queue) due;
    dispatch ();
    if !remaining > 0 then begin
      let busy = List.filter (fun w -> w.in_flight <> None) !workers in
      if busy = [] then begin
        (* nothing in flight: we must be waiting out a retry backoff *)
        match !retry_at with
        | [] -> if Queue.is_empty queue then assert false
        | (at, _) :: _ ->
            let dt = at -. now () in
            if dt > 0.0 then Unix.sleepf (Float.min dt 0.05)
      end
      else begin
        let next_deadline =
          List.fold_left (fun acc w -> Float.min acc w.deadline) infinity busy
        in
        let next_retry =
          match !retry_at with [] -> infinity | (at, _) :: _ -> at
        in
        let timeout =
          let next = Float.min next_deadline next_retry in
          if next = infinity then -1.0 else Float.max 0.0 (next -. now ())
        in
        (match Unix.select (List.map (fun w -> w.res_rd) busy) [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
            List.iter
              (fun w -> if List.mem w.res_rd readable then handle_readable w)
              busy);
        (* deadline sweep: anyone still in flight past their budget dies *)
        let t = now () in
        List.iter
          (fun w ->
            if
              List.exists (fun x -> x.pid = w.pid) !workers
              && w.in_flight <> None && w.deadline <= t
            then
              kill_worker w
                (`Deadline (Option.value deadline_s ~default:infinity)))
          busy
      end
    end
  done;
  (* orderly shutdown: EOF on every lease pipe, then reap *)
  List.iter (fun w -> close_noerr w.work_wr) !workers;
  List.iter
    (fun w ->
      (try ignore (Unix.waitpid [] w.pid)
       with Unix.Unix_error _ -> ());
      close_noerr w.res_rd)
    !workers;
  ignore (Sys.signal Sys.sigpipe old_sigpipe);
  settle ~chaos_kills:!chaos_kills ~workers_lost:!workers_lost
    (Array.map (function Some c -> c | None -> assert false) results)

let run ~jobs ?backend ?deadline_s ?(attempts = 1)
    ?(backoff_s = default_backoff_s) ?chaos ?(on_result = fun _ _ -> ()) f
    items =
  if attempts < 1 then invalid_arg "Supervisor.run: attempts";
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Supervisor.run: jobs must be >= 1 (got %d)" jobs);
  let jobs = min jobs (Array.length items) in
  let cell = with_retries ~attempts ~backoff_s f in
  if jobs = 0 then settle [||]
  else
    match Option.value backend ~default:(if jobs = 1 then `Seq else `Fork) with
    | `Seq ->
        let prev = Printexc.backtrace_status () in
        Printexc.record_backtrace true;
        let cells =
          Array.mapi
            (fun i x ->
              let c = cell x in
              on_result i c;
              c)
            items
        in
        Printexc.record_backtrace prev;
        settle cells
    | `Domains ->
        if chaos <> None then
          invalid_arg
            "Supervisor.run: chaos requires the fork backend (only a worker \
             process can be SIGKILLed)";
        (* [cell] catches whatever [f] raises: a pool-level Error means the
           retry loop itself raised, and counts as a first-attempt
           quarantine rather than a crash *)
        let to_cell = function
          | Ok c -> c
          | Error (e, backtrace) ->
              Quarantined
                { attempts = 1; failures = [ failure_of_exn e backtrace ] }
        in
        Domain_pool.run (Domain_pool.get ~jobs)
          ~on_result:(fun i r -> on_result i (to_cell r))
          cell items
        |> Array.map to_cell |> settle
    | `Fork ->
        run_forked ~jobs ~deadline_s ~attempts ~backoff_s ~chaos ~on_result f
          items
