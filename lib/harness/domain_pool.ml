(* Persistent pool of OCaml 5 domains executing experiment cells in
   shared memory. The backend under Supervisor's [`Domains]: no fork, no
   Marshal, results are ordinary heap values.

   Execution is round-based. The coordinator (the domain that calls
   [run]) waits until every worker is parked, publishes the round — the
   cell closure, the batch size and a fresh claim cursor — then bumps
   the epoch and broadcasts. A worker that sees the new epoch reads
   [t.round] under the mutex and claims cells with one fetch-and-add
   each until the cursor passes the end. Rounds are closed (cells do not
   spawn cells), so an exhausted cursor is conclusive. Claims run from
   the end of the batch: sweeps put their longest cells last (a
   campaign's jython block closes each collector), and starting there
   keeps a long cell from being the one left running alone at the end.

   Completions stream back to the coordinator through a mutex-protected
   queue, so the [on_result] callback (the campaign journal's append
   point) always runs in the coordinating domain, in completion order —
   single writer, same as the fork supervisor's select loop. Results
   land in a spec-order array: slot [i] is written by whichever worker
   ran cell [i], and the completion handshake through the mutex orders
   that write before the coordinator's read.

   The round is dropped once every worker has parked again: its closure
   captures the whole item and result arrays, and all domains share one
   major heap, so a pool that kept it would pin the last sweep for the
   rest of the process. *)

type stats = { steals : int; executed : int array }

type round = {
  cell : int -> unit;  (* run cell [i], record its result, report it *)
  n : int;
  next : int Atomic.t;  (* cells claimed so far; cell [n-1-k] is claim [k] *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (* workers: new epoch or shutdown *)
  progress : Condition.t;  (* coordinator: completion landed / worker parked *)
  mutable epoch : int;
  mutable round : round option;  (* published while [run] is in progress *)
  mutable live_tasks : int;  (* cells not yet finished this round *)
  mutable idle : int;  (* workers parked awaiting an epoch *)
  mutable stopping : bool;
  mutable in_run : bool;
  completions : int Queue.t;  (* finished cell indices, completion order *)
  steals : int Atomic.t;
  executed : int array;  (* per-worker cells run this round; owner-written *)
  mutable domains : unit Domain.t list;
}

(* --- worker side --------------------------------------------------- *)

let drain t me r =
  let rec claim () =
    let k = Atomic.fetch_and_add r.next 1 in
    if k < r.n then begin
      let i = r.n - 1 - k in
      if i mod t.jobs <> me then Atomic.incr t.steals;
      t.executed.(me) <- t.executed.(me) + 1;
      r.cell i;
      claim ()
    end
  in
  claim ()

let worker t me () =
  (* backtrace recording is domain-local state *)
  Printexc.record_backtrace true;
  let seen = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock t.mutex;
    t.idle <- t.idle + 1;
    if t.idle = t.jobs then Condition.signal t.progress;
    while t.epoch = !seen && not t.stopping do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      live := false
    end
    else begin
      seen := t.epoch;
      t.idle <- t.idle - 1;
      (* None when this worker woke only after the round it was
         signalled for had already finished without it *)
      let round = t.round in
      Mutex.unlock t.mutex;
      Option.iter (drain t me) round
    end
  done

(* --- coordinator side ---------------------------------------------- *)

let create ~jobs =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Domain_pool.create: jobs must be >= 1 (got %d)" jobs);
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      progress = Condition.create ();
      epoch = 0;
      round = None;
      live_tasks = 0;
      idle = 0;
      stopping = false;
      in_run = false;
      completions = Queue.create ();
      steals = Atomic.make 0;
      executed = Array.make jobs 0;
      domains = [];
    }
  in
  t.domains <- List.init jobs (fun me -> Domain.spawn (worker t me));
  t

let complete t idx =
  Mutex.lock t.mutex;
  Queue.add idx t.completions;
  t.live_tasks <- t.live_tasks - 1;
  Condition.signal t.progress;
  Mutex.unlock t.mutex

let await_parked t =
  while t.idle < t.jobs do
    Condition.wait t.progress t.mutex
  done

let run t ?on_result f xs =
  let n = Array.length xs in
  let results = Array.make n None in
  if n > 0 then begin
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.run: pool is shut down"
    end;
    if t.in_run then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.run: reentrant run on the same pool"
    end;
    t.in_run <- true;
    (* publish only while every worker is parked: none may still be
       counting into the statistics reset below *)
    await_parked t;
    Atomic.set t.steals 0;
    Array.fill t.executed 0 t.jobs 0;
    Queue.clear t.completions;
    let cell i =
      (match f xs.(i) with
      | v -> results.(i) <- Some (Ok v)
      | exception e ->
          let bt = Printexc.get_backtrace () in
          results.(i) <- Some (Error (e, bt)));
      complete t i
    in
    t.round <- Some { cell; n; next = Atomic.make 0 };
    t.live_tasks <- n;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    (* completion pump: deliver on_result here, in the coordinating
       domain, in completion order — the single-writer append point *)
    let delivered = ref 0 in
    while !delivered < n do
      while Queue.is_empty t.completions && t.live_tasks > 0 do
        Condition.wait t.progress t.mutex
      done;
      while not (Queue.is_empty t.completions) do
        let idx = Queue.pop t.completions in
        incr delivered;
        match on_result with
        | None -> ()
        | Some g ->
            (* the callback may append+fsync a journal: don't hold the
               pool lock over it *)
            Mutex.unlock t.mutex;
            (match results.(idx) with
            | Some r -> g idx r
            | None -> assert false);
            Mutex.lock t.mutex
      done
    done;
    await_parked t;
    t.round <- None;
    t.in_run <- false;
    Mutex.unlock t.mutex
  end;
  Array.map (function Some r -> r | None -> assert false) results

let last_stats t =
  { steals = Atomic.get t.steals; executed = Array.copy t.executed }

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else if t.in_run then begin
    Mutex.unlock t.mutex;
    invalid_arg "Domain_pool.shutdown: pool is mid-run"
  end
  else begin
    t.stopping <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* --- shared pool ---------------------------------------------------- *)

(* One process-wide pool reused across rounds so repeated sweeps (bench
   matrices, campaigns) don't pay domain spawns per call. Coordinator-
   only state: rounds are driven from one coordinating domain at a time
   ([run] rejects reentrancy). *)
let global : t option ref = ref None

let get ~jobs =
  match !global with
  | Some p when p.jobs = jobs && not p.stopping -> p
  | prior ->
      Option.iter (fun p -> if not p.stopping then shutdown p) prior;
      let p = create ~jobs in
      global := Some p;
      p

let shutdown_global () =
  Option.iter shutdown !global;
  global := None
