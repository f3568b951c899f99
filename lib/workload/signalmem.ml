module Vec = Repro_util.Vec

type t = {
  vmm : Vmsim.Vmm.t;
  address_space : Heapsim.Address_space.t;
  proc : Vmsim.Process.t;
  pinned : int Vec.t;
}

let create vmm address_space =
  {
    vmm;
    address_space;
    proc = Vmsim.Vmm.create_process vmm ~name:"signalmem";
    pinned = Vec.create ();
  }

(* One Pressure_step event per pin/unpin batch: new pinned total plus the
   signed delta. No sink, no work. *)
let step_event t ~delta =
  if delta <> 0 then
    match Vmsim.Vmm.trace t.vmm with
    | None -> ()
    | Some sink ->
        Telemetry.Sink.emit sink
          ~ts_ns:(Vmsim.Clock.now (Vmsim.Vmm.clock t.vmm))
          Telemetry.Event.Pressure_step (Vec.length t.pinned) delta

let pin_pages t n =
  if n > 0 then begin
    let first_page = Heapsim.Address_space.reserve t.address_space ~npages:n in
    Vmsim.Vmm.map_range t.vmm t.proc ~first_page ~npages:n;
    for page = first_page to first_page + n - 1 do
      Vmsim.Vmm.touch t.vmm ~write:true page;
      Vmsim.Vmm.mlock t.vmm page;
      Vec.push t.pinned page
    done;
    step_event t ~delta:n
  end

(* A receding burst models a competing process freeing its memory, so the
   frames must actually return to the pool: munlock alone would leave the
   pages resident and the machine permanently short of free frames. *)
let unpin_pages t n =
  let released = min n (Vec.length t.pinned) in
  for _ = 1 to released do
    let page = Vec.pop t.pinned in
    Vmsim.Vmm.munlock t.vmm page;
    Vmsim.Vmm.madvise_dontneed t.vmm page
  done;
  step_event t ~delta:(-released)

let unpin_all t =
  let released = Vec.length t.pinned in
  Vec.iter (fun page -> Vmsim.Vmm.munlock t.vmm page) t.pinned;
  Vec.clear t.pinned;
  step_event t ~delta:(-released)

let pinned_pages t = Vec.length t.pinned
