type write_barrier =
  src:Obj_id.t -> field:int -> old_target:Obj_id.t -> target:Obj_id.t -> unit

type t = {
  vmm : Vmsim.Vmm.t;
  proc : Vmsim.Process.t;
  objects : Object_table.t;
  page_map : Page_map.t;
  address_space : Address_space.t;
  mutable barrier : write_barrier;
  mutable roots : (Obj_id.t -> unit) -> unit;
  grey : Obj_id.t Repro_util.Vec.t;
  mutable tracing : bool;
}

let no_barrier ~src:_ ~field:_ ~old_target:_ ~target:_ = ()

let create_with vmm proc ~address_space =
  {
    vmm;
    proc;
    objects = Object_table.create ();
    page_map = Page_map.create ();
    address_space;
    barrier = no_barrier;
    roots = (fun _ -> ());
    grey = Repro_util.Vec.create ();
    tracing = false;
  }

let create vmm proc = create_with vmm proc ~address_space:(Address_space.create ())

let vmm t = t.vmm

let process t = t.proc

let objects t = t.objects

let page_map t = t.page_map

let address_space t = t.address_space

let clock t = Vmsim.Vmm.clock t.vmm

let costs t = Vmsim.Vmm.costs t.vmm

let grey_stack t = t.grey

let tracing t = t.tracing

let set_tracing t b = t.tracing <- b

(* Page arithmetic is hand-inlined: dev-profile builds pass -opaque, so
   [Vmsim.Page.of_addr] is a real call (with a division by a loaded
   value) on every object access. Addresses are non-negative, so the
   division is a shift. Verified at module init. *)
let () = assert (Vmsim.Page.size = 4096)

let[@inline] page_of_addr addr = addr lsr 12

let first_page t id = Object_table.span_first (Object_table.span t.objects id)

let iter_pages t id f =
  let span = Object_table.span t.objects id in
  for page = Object_table.span_first span to Object_table.span_last span do
    f page
  done

(* An object on an unindexed page lies wholly inside its range, so its
   first page decides for all of them. *)
let place t id ~addr =
  let objs = t.objects in
  assert (Object_table.addr objs id < 0);
  Object_table.set_addr objs id addr;
  let first = page_of_addr addr in
  if Page_map.indexed t.page_map first then
    Page_map.add t.page_map objs id ~first
      ~last:(page_of_addr (addr + Object_table.size objs id - 1))

let displace t id =
  let objs = t.objects in
  let addr = Object_table.addr objs id in
  if addr >= 0 then begin
    let first = page_of_addr addr in
    if Page_map.indexed t.page_map first then
      Page_map.remove t.page_map objs id ~first
        ~last:(page_of_addr (addr + Object_table.size objs id - 1));
    Object_table.set_addr objs id (-1)
  end

let free_object t id =
  displace t id;
  Object_table.free t.objects id

(* Object accesses are the next-hottest path after Vmm.touch. Walk the
   object's pages directly rather than through the [iter_pages] closure;
   almost every object fits on one page. The span is one checked read of
   the row. [~write] goes on as a constant: passing the variable on
   would box a fresh [Some write] per page where -opaque keeps
   [Vmm.touch]'s wrapper from being inlined. *)
let touch_object t ?(write = false) id =
  let span = Object_table.span t.objects id in
  for page = Object_table.span_first span to Object_table.span_last span do
    if write then Vmsim.Vmm.touch t.vmm ~write:true page
    else Vmsim.Vmm.touch t.vmm ~write:false page
  done

let set_write_barrier t barrier = t.barrier <- barrier

let set_roots t roots = t.roots <- roots

let iter_roots t f = t.roots f

let charge_access t = Vmsim.Clock.advance (clock t) (costs t).Vmsim.Costs.access_ns

let read_ref t id field =
  charge_access t;
  touch_object t ~write:false id;
  Object_table.get_ref t.objects id field

let write_ref t id field target =
  charge_access t;
  touch_object t ~write:true id;
  let old_target = Object_table.get_ref t.objects id field in
  t.barrier ~src:id ~field ~old_target ~target;
  Object_table.set_ref t.objects id field target

let access t ?(write = false) id =
  charge_access t;
  touch_object t ~write id
