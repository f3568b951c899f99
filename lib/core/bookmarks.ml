module Vec = Repro_util.Vec

(* What one eviction scan added, each array in the order the scan made
   its records. *)
type entry = {
  counted : int array;  (* containers counted, once each *)
  targets : Heapsim.Obj_id.t array;  (* resident targets covered *)
  self : Heapsim.Obj_id.t array;  (* the page's own objects, covered *)
}

type container = {
  mutable count : int;  (* evicted pages pointing in *)
  mutable deferred : Heapsim.Obj_id.t array list;
      (* self-covers of reloaded pages, one array per page, latest first *)
  mutable stamp : int;  (* the last scan that counted it; 0 before any *)
}

type t = {
  objects : Heapsim.Object_table.t;
  conservative_clear : bool;
  covers : (Heapsim.Obj_id.t, int) Hashtbl.t;
      (* object -> its positive cover count; absent when uncovered *)
  ledger : (int, entry) Hashtbl.t;  (* evicted page -> its scan's entry *)
  containers : container Vec.t;  (* [other], then superpage 0, 1, ... *)
  mutable scans : int;  (* scans begun so far; the current one's stamp *)
  scan_containers : int Vec.t;
  scan_targets : Heapsim.Obj_id.t Vec.t;
  scan_self : Heapsim.Obj_id.t Vec.t;
      (* the current scan's records, copied into its entry by [record] *)
}

let other = -1

let create objects ~conservative_clear =
  {
    objects;
    conservative_clear;
    covers = Hashtbl.create ~random:false 64;
    ledger = Hashtbl.create ~random:false 64;
    containers = Vec.create ();
    scans = 0;
    scan_containers = Vec.create ();
    scan_targets = Vec.create ();
    scan_self = Vec.create ();
  }

(* Container [c]'s record, made with those below it on first use. *)
let container t c =
  while Vec.length t.containers <= c + 1 do
    Vec.push t.containers { count = 0; deferred = []; stamp = 0 }
  done;
  Vec.get t.containers (c + 1)

let incoming t c = (container t c).count

let pointed_into t c = incoming t c > 0

(* The lookups catch [Not_found] rather than box a [find_opt] result. *)
let find0 table key =
  match Hashtbl.find table key with n -> n | exception Not_found -> 0

let cover_count t id = find0 t.covers id

let covered t = Hashtbl.length t.covers

(* ------------------------------------------------------------------ *)
(* Covers                                                              *)

let uncover t id =
  if Heapsim.Object_table.is_live t.objects id then
    match Hashtbl.find t.covers id with
    | n when n > 1 -> Hashtbl.replace t.covers id (n - 1)
    | _ ->
        Hashtbl.remove t.covers id;
        Heapsim.Object_table.set_bookmarked t.objects id false
    | exception Not_found -> ()

let uncover_all t ids =
  for i = 0 to Array.length ids - 1 do
    uncover t ids.(i)
  done

let rec uncover_deferred t = function
  | [] -> ()
  | ids :: rest ->
      uncover_all t ids;
      uncover_deferred t rest

(* ------------------------------------------------------------------ *)
(* An eviction scan                                                    *)

let begin_scan t =
  t.scans <- t.scans + 1;
  Vec.clear t.scan_containers;
  Vec.clear t.scan_targets;
  Vec.clear t.scan_self

let count t c =
  let r = container t c in
  if r.stamp <> t.scans then begin
    r.stamp <- t.scans;
    Vec.push t.scan_containers c;
    r.count <- r.count + 1
  end

let cover t id ~self =
  let n = cover_count t id in
  Hashtbl.replace t.covers id (n + 1);
  Vec.push (if self then t.scan_self else t.scan_targets) id;
  if n = 0 then Heapsim.Object_table.set_bookmarked t.objects id true;
  n = 0

(* Release what one entry's scan added. Only counts fall, and a
   [Hashtbl.replace] of a present key updates it in place while a
   [remove] never resizes, so the order of the releases cannot reach
   either table's fold order. *)
let release_entry t e ~own =
  let consistent = ref true in
  for i = 0 to Array.length e.counted - 1 do
    let r = container t e.counted.(i) in
    if r.count > 0 then r.count <- r.count - 1 else consistent := false;
    if r.count = 0 then begin
      let deferred = r.deferred in
      r.deferred <- [];
      uncover_deferred t deferred
    end
  done;
  uncover_all t e.targets;
  if t.conservative_clear then begin
    let r = container t own in
    if r.count = 0 then uncover_all t e.self
    else r.deferred <- e.self :: r.deferred
  end;
  !consistent

let record t page ~own =
  let entry =
    {
      counted = Vec.to_array t.scan_containers;
      targets = Vec.to_array t.scan_targets;
      self = Vec.to_array t.scan_self;
    }
  in
  let consistent =
    match Hashtbl.find t.ledger page with
    | stale -> release_entry t stale ~own
    | exception Not_found -> true
  in
  Hashtbl.replace t.ledger page entry;
  consistent

let release t page ~own =
  match Hashtbl.find t.ledger page with
  | entry ->
      Hashtbl.remove t.ledger page;
      release_entry t entry ~own
  | exception Not_found -> true

(* ------------------------------------------------------------------ *)
(* Collections                                                         *)

let iter_roots t f =
  if Hashtbl.length t.covers > 0 then Hashtbl.iter (fun id _ -> f id) t.covers

let fold_pages t f acc =
  Hashtbl.fold (fun page _ acc -> f page acc) t.ledger acc

let forget t =
  let objects = t.objects in
  Heapsim.Object_table.iter_live objects (fun id ->
      Heapsim.Object_table.set_bookmarked objects id false);
  Hashtbl.reset t.covers;
  Vec.iter
    (fun r ->
      r.count <- 0;
      r.deferred <- [])
    t.containers;
  Hashtbl.reset t.ledger

let drop_count t c =
  let r = container t c in
  if r.count > 0 then r.count <- r.count - 1

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let incoming_total t = Vec.fold_left (fun n r -> n + r.count) 0 t.containers

let ledger_total t =
  Hashtbl.fold (fun _ e acc -> acc + Array.length e.counted) t.ledger 0

let check t ~resident =
  let fail fmt = Printf.ksprintf failwith ("Bookmarks: " ^^ fmt) in
  let want_count = Array.make (Vec.length t.containers) 0 in
  let want = Hashtbl.create 64 in
  let add id = Hashtbl.replace want id (1 + find0 want id) in
  Hashtbl.iter
    (fun page e ->
      if resident page then fail "ledger page %d is resident" page;
      Array.iter (fun c -> want_count.(c + 1) <- want_count.(c + 1) + 1)
        e.counted;
      Array.iter add e.targets;
      Array.iter add e.self)
    t.ledger;
  Vec.iteri
    (fun i r ->
      if r.count <> want_count.(i) then
        fail "container %d count %d but the ledger says %d" (i - 1) r.count
          want_count.(i);
      if r.count = 0 && r.deferred <> [] then
        fail "container %d defers covers at count 0" (i - 1);
      List.iter (Array.iter add) r.deferred)
    t.containers;
  (* without conservative clearing, self-covers are never released *)
  let matches id =
    let n = find0 t.covers id and w = find0 want id in
    if n <> w && (t.conservative_clear || n < w) then
      fail "object #%d cover count %d but the records say %d" id n w
  in
  Hashtbl.iter
    (fun id _ ->
      if not (Heapsim.Object_table.is_live t.objects id) then
        fail "dead object #%d is covered" id;
      matches id)
    t.covers;
  Hashtbl.iter (fun id _ -> matches id) want;
  Heapsim.Object_table.iter_live t.objects (fun id ->
      let bit = Heapsim.Object_table.bookmarked t.objects id in
      if bit <> Hashtbl.mem t.covers id then
        fail "object #%d bit=%b but cover count %d" id bit (cover_count t id))
