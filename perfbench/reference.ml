(* A fixed reference computation that measures how fast the host runs
   right now, so that host times can be scaled to a quiet machine.

   On a small shared machine other tenants slow this process by up to
   1.7x for minutes at a time — longer than a run, so no statistic over
   one run's rounds can remove it — and they slow every cell by about
   the same factor (METRICS.md, "Steadiness"). The benchmark times a
   pass of this kernel in a process of its own, forked like a cell's,
   before each cell and after the last; a cell's time divided by the
   mean of the passes on either side of it and multiplied by
   [nominal_ns] is its time on a quiet machine. The kernel lives in the
   benchmark, so no change to the simulator moves it. It does what the
   drift slows most in the simulator's host time: hashing, pointer
   chasing through buckets and lists, and allocation that the host GC
   promotes to its major heap (a kernel that stays in the minor heap
   hardly slows when cells do). *)

let keys = 1 lsl 13

let steps = 40_000

let pass () =
  let h = Hashtbl.create 1024 in
  let x = ref 0x2545F491 in
  for i = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land (keys - 1) in
    match Hashtbl.find_opt h k with
    | Some l -> Hashtbl.replace h k (i :: l)
    | None -> Hashtbl.add h k [ i ]
  done;
  Hashtbl.fold (fun _ l acc -> acc + List.length l) h 0

(* [pass ()] always returns [steps]; keeping the result makes sure the
   work is done. *)
let sink = ref 0

(* Host ns of one pass, started on an empty minor heap. *)
let time_ns now =
  Gc.minor ();
  let t0 = now () in
  sink := !sink + pass ();
  now () - t0

(* One pass on a quiet host (2-vCPU 2.1 GHz Xeon VM, OCaml 5.1.1). *)
let nominal_ns = 5_000_000.0

(* [ns] of host time, taken between reference passes of [before] and
   [after] ns, as ns on a quiet host. *)
let scale ~before ~after ns =
  float_of_int ns *. nominal_ns /. (float_of_int (before + after) /. 2.0)
