type t = {
  capacity_pages : int option;
  faults : Faults.Fault_plan.t option;
  slots : (int, unit) Hashtbl.t;
  mutable high_water : int;
  mutable reads : int;
}

exception Full
exception Io_error

let create ?capacity_pages ?faults () =
  {
    capacity_pages;
    faults;
    slots = Hashtbl.create 256;
    high_water = 0;
    reads = 0;
  }

let occupancy_pages t = Hashtbl.length t.slots

let write t page =
  (match t.faults with
  | None -> ()
  | Some plan -> (
      match Faults.Fault_plan.on_swap_write plan with
      | Faults.Fault_plan.Proceed -> ()
      | Faults.Fault_plan.Io_error -> raise Io_error
      | Faults.Fault_plan.Device_full -> raise Full));
  if not (Hashtbl.mem t.slots page) then begin
    (match t.capacity_pages with
    | Some cap when occupancy_pages t >= cap -> raise Full
    | Some _ | None -> ());
    Hashtbl.add t.slots page ()
  end;
  if occupancy_pages t > t.high_water then t.high_water <- occupancy_pages t

let read t page =
  if not (Hashtbl.mem t.slots page) then
    invalid_arg (Printf.sprintf "Swap.read: page %d has no swap copy" page);
  (match t.faults with
  | None -> ()
  | Some plan -> (
      match Faults.Fault_plan.on_swap_read plan with
      | Faults.Fault_plan.Proceed | Faults.Fault_plan.Device_full -> ()
      | Faults.Fault_plan.Io_error -> raise Io_error));
  t.reads <- t.reads + 1

let drop t page = Hashtbl.remove t.slots page

let has_copy t page = Hashtbl.mem t.slots page

let high_water_pages t = t.high_water

let reads t = t.reads
