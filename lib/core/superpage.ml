module Vec = Repro_util.Vec
module Sparse = Repro_util.Sparse

type kind = Scalar | Array

type sp = {
  index : int;
  first_page : int;
  mutable cls : int;
  mutable kind : kind;
  mutable cells_total : int;
  mutable fresh : int;
  free : int Vec.t;
  blocked : int Vec.t;
  mutable on_partial : bool;
  mutable evicted_data_pages : int;
}

let header_bytes = 24

let usable_bytes = Vmsim.Page.superpage_size - header_bytes

(* quad -> superpage, where a page's quad is its superpage-aligned group
   of [pages_per_superpage]: 1024 quads, 4096 pages, per chunk. A slot
   holds the [Some sp] made once at acquisition, so a lookup allocates
   nothing. *)
let quad_shift = 10

let quad_mask = (1 lsl quad_shift) - 1

let fresh_quads () : sp option array = Array.make (1 lsl quad_shift) None

let no_quads = fresh_quads ()

type t = {
  heap : Heapsim.Heap.t;
  mutable on_acquire : sp -> unit;
  sps : sp Vec.t;
  by_quad : sp option array Sparse.t;
  partial : sp Vec.t array;  (* class * 2 + kind *)
  empty_pool : sp Vec.t;
  mutable free_cell_bytes : int;
}

let kind_idx = function Scalar -> 0 | Array -> 1

let partial_idx cls kind = (cls * 2) + kind_idx kind

let create ?(on_acquire = fun _ -> ()) heap =
  {
    heap;
    on_acquire;
    sps = Vec.create ();
    by_quad = Sparse.create ~shift:quad_shift ~sentinel:no_quads;
    partial = Array.init (Gc_common.Size_class.count * 2) (fun _ -> Vec.create ());
    empty_pool = Vec.create ();
    free_cell_bytes = 0;
  }

let set_on_acquire t f = t.on_acquire <- f

let quad page = page / Vmsim.Page.pages_per_superpage

let sp_of_page t page =
  let q = quad page in
  (Sparse.chunk t.by_quad q).(q land quad_mask)

let sp_of_addr t addr = sp_of_page t (Vmsim.Page.of_addr addr)

let owns_page t page = Option.is_some (sp_of_page t page)

let is_header_page t page =
  match sp_of_page t page with
  | Some sp -> sp.first_page = page
  | None -> false

let data_pages sp = [ sp.first_page + 1; sp.first_page + 2; sp.first_page + 3 ]

let iter_sps t f = Vec.iter f t.sps

let sp_count t = Vec.length t.sps

let pages_acquired t = Vec.length t.sps * Vmsim.Page.pages_per_superpage

let free_bytes t =
  t.free_cell_bytes + (Vec.length t.empty_pool * usable_bytes)

let cell_size sp = Gc_common.Size_class.cell_size sp.cls

let base_addr sp = Vmsim.Page.addr_of sp.first_page + header_bytes

let free_count sp = Vec.length sp.free + sp.fresh

(* Carve an empty superpage into cells of the given class and kind. The
   cells are handed out from the [fresh] count, highest address first,
   once [free] is empty: the order a free list filled with every cell in
   address order at carve time would pop them in, with no list. *)
let assign_class t sp cls kind =
  let cell = Gc_common.Size_class.cell_size cls in
  let ncells = usable_bytes / cell in
  sp.cls <- cls;
  sp.kind <- kind;
  sp.cells_total <- ncells;
  sp.fresh <- ncells;
  Vec.clear sp.free;
  Vec.clear sp.blocked;
  t.free_cell_bytes <- t.free_cell_bytes + (ncells * cell)

let acquire t cls kind ~grow =
  if not (Vec.is_empty t.empty_pool) then begin
    let sp = Vec.pop t.empty_pool in
    assign_class t sp cls kind;
    Some sp
  end
  else if grow () then begin
    let first_page =
      Heapsim.Address_space.reserve_aligned
        (Heapsim.Heap.address_space t.heap)
        ~npages:Vmsim.Page.pages_per_superpage
        ~align:Vmsim.Page.pages_per_superpage
    in
    Vmsim.Vmm.map_range (Heapsim.Heap.vmm t.heap)
      (Heapsim.Heap.process t.heap) ~first_page
      ~npages:Vmsim.Page.pages_per_superpage;
    let sp =
      {
        index = Vec.length t.sps;
        first_page;
        cls;
        kind;
        cells_total = 0;
        fresh = 0;
        free = Vec.create ();
        blocked = Vec.create ();
        on_partial = false;
        evicted_data_pages = 0;
      }
    in
    Vec.push t.sps sp;
    let q = quad first_page in
    (Sparse.materialize t.by_quad q fresh_quads).(q land quad_mask) <- Some sp;
    assign_class t sp cls kind;
    t.on_acquire sp;
    Some sp
  end
  else None

(* Whether a superpage of class [cls] with a free cell tops partial list
   [idx], dropping stale entries above it. *)
let rec has_partial t idx cls =
  let v = t.partial.(idx) in
  (not (Vec.is_empty v))
  &&
  let sp = Vec.top v in
  if sp.cls <> cls || partial_idx sp.cls sp.kind <> idx || free_count sp = 0
  then begin
    ignore (Vec.pop v);
    sp.on_partial <- false;
    has_partial t idx cls
  end
  else true

(* Whether [resident] holds for every page from [page] to [last]. *)
let rec pages_ok resident page last =
  page > last || (resident page && pages_ok resident (page + 1) last)

let cell_usable ~resident ~cell addr =
  pages_ok resident (Vmsim.Page.of_addr addr)
    (Vmsim.Page.of_addr (addr + cell - 1))

(* The next free cell: the last one given back, else the highest fresh
   one. *)
let take_cell sp ~cell =
  if Vec.is_empty sp.free then begin
    sp.fresh <- sp.fresh - 1;
    base_addr sp + (sp.fresh * cell)
  end
  else Vec.pop sp.free

(* Pop a free cell whose pages are all usable, parking others on
   [blocked]; -1 once none is left. *)
let rec pop_usable_cell t sp ~resident =
  if free_count sp = 0 then -1
  else begin
    let cell = cell_size sp in
    let addr = take_cell sp ~cell in
    t.free_cell_bytes <- t.free_cell_bytes - cell;
    if cell_usable ~resident ~cell addr then addr
    else begin
      Vec.push sp.blocked addr;
      pop_usable_cell t sp ~resident
    end
  end

(* A cell from the superpages on partial list [idx], acquiring one when
   the list runs dry. *)
let rec alloc_in t idx cls kind ~grow ~resident =
  if has_partial t idx cls then begin
    let sp = Vec.top t.partial.(idx) in
    let addr = pop_usable_cell t sp ~resident in
    if addr >= 0 then addr
    else begin
      (* every remaining free cell was blocked *)
      ignore (Vec.pop t.partial.(idx));
      sp.on_partial <- false;
      alloc_in t idx cls kind ~grow ~resident
    end
  end
  else
    match acquire t cls kind ~grow with
    | None -> -1
    | Some sp ->
        sp.on_partial <- true;
        Vec.push t.partial.(idx) sp;
        alloc_in t idx cls kind ~grow ~resident

let alloc t ~bytes ~kind ~grow ~resident =
  let cls = Gc_common.Size_class.class_of_size bytes in
  if cls < 0 then
    invalid_arg
      (Printf.sprintf "Superpage.alloc: %d bytes belongs in the LOS" bytes);
  alloc_in t (partial_idx cls kind) cls kind ~grow ~resident

let alloc_on t sp ~resident = pop_usable_cell t sp ~resident

let free_cell t sp ~addr =
  Vec.push sp.free addr;
  t.free_cell_bytes <- t.free_cell_bytes + cell_size sp;
  if (not sp.on_partial) && sp.cells_total > 0 then begin
    sp.on_partial <- true;
    Vec.push t.partial.(partial_idx sp.cls sp.kind) sp
  end

let cells_overlapping_page sp page =
  if sp.cells_total = 0 then 0
  else begin
    let cell = cell_size sp in
    let base = base_addr sp in
    let lo = Vmsim.Page.addr_of page in
    let hi = lo + Vmsim.Page.size - 1 in
    let n = ref 0 in
    for i = 0 to sp.cells_total - 1 do
      let a = base + (i * cell) in
      if a <= hi && a + cell - 1 >= lo then incr n
    done;
    !n
  end

(* Turn the fresh cells into [free] entries below the returned ones, in
   address order: the list a carve-time fill would have left. *)
let list_fresh sp ~cell =
  let n = sp.fresh and returned = Vec.length sp.free in
  for _ = 1 to n do
    Vec.push sp.free 0
  done;
  for i = returned - 1 downto 0 do
    Vec.set sp.free (i + n) (Vec.get sp.free i)
  done;
  let base = base_addr sp in
  for i = 0 to n - 1 do
    Vec.set sp.free i (base + (i * cell))
  done;
  sp.fresh <- 0

let note_page_evicted t page =
  match sp_of_page t page with
  | None -> ()
  | Some sp ->
      sp.evicted_data_pages <- sp.evicted_data_pages + 1;
      (* park free cells overlapping the now-evicted page; the fresh
         cells are the lowest [fresh] of the superpage, so they are
         listed only when some of them must be parked *)
      let cell = cell_size sp in
      let lo = Vmsim.Page.addr_of page in
      let hi = lo + Vmsim.Page.size - 1 in
      let base = base_addr sp in
      if sp.fresh > 0 && base <= hi && base + (sp.fresh * cell) - 1 >= lo then
        list_fresh sp ~cell;
      let kept = ref 0 in
      let n = Vec.length sp.free in
      for i = 0 to n - 1 do
        let a = Vec.get sp.free i in
        if a <= hi && a + cell - 1 >= lo then begin
          Vec.push sp.blocked a;
          t.free_cell_bytes <- t.free_cell_bytes - cell
        end
        else begin
          Vec.set sp.free !kept a;
          incr kept
        end
      done;
      Vec.truncate sp.free !kept

let note_page_resident t page ~resident =
  match sp_of_page t page with
  | None -> ()
  | Some sp ->
      if sp.evicted_data_pages > 0 then
        sp.evicted_data_pages <- sp.evicted_data_pages - 1;
      (* un-park blocked cells that are now fully usable *)
      let cell = cell_size sp in
      let kept = ref 0 in
      let n = Vec.length sp.blocked in
      for i = 0 to n - 1 do
        let a = Vec.get sp.blocked i in
        if cell_usable ~resident ~cell a then free_cell t sp ~addr:a
        else begin
          Vec.set sp.blocked !kept a;
          incr kept
        end
      done;
      Vec.truncate sp.blocked !kept

let live_count t sp =
  let page_map = Heapsim.Heap.page_map t.heap in
  let seen = Hashtbl.create 8 in
  let count = ref 0 in
  for page = sp.first_page to sp.first_page + Vmsim.Page.pages_per_superpage - 1
  do
    Heapsim.Page_map.iter_on page_map page (fun id ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          incr count
        end)
  done;
  !count

(* No object is placed on any of the superpage's pages; equivalent to
   [live_count t sp = 0] without building its set of distinct ids. *)
let vacant t sp =
  let page_map = Heapsim.Heap.page_map t.heap in
  let empty = ref true in
  for page = sp.first_page to sp.first_page + Vmsim.Page.pages_per_superpage - 1
  do
    if Heapsim.Page_map.count_on page_map page > 0 then empty := false
  done;
  !empty

let recycle_empty t ~resident ~pointed_into =
  iter_sps t (fun sp ->
      if
        sp.cells_total > 0
        && (not (pointed_into sp))
        && sp.evicted_data_pages = 0
        && vacant t sp
        && pages_ok resident (sp.first_page + 1) (sp.first_page + 3)
      then begin
        t.free_cell_bytes <- t.free_cell_bytes - (free_count sp * cell_size sp);
        Vec.clear sp.free;
        Vec.clear sp.blocked;
        sp.fresh <- 0;
        sp.cells_total <- 0;
        sp.on_partial <- false;
        Vec.push t.empty_pool sp
      end)
