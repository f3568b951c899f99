module Bitset = Repro_util.Bitset

type t = {
  capacity_pages : int option;
  faults : Faults.Fault_plan.t option;
  copies : Bitset.t;  (* pages with a swap copy *)
  mutable occupancy : int;  (* how many *)
  mutable high_water : int;
  mutable reads : int;
}

exception Full
exception Io_error

let create ?capacity_pages ?faults () =
  {
    capacity_pages;
    faults;
    copies = Bitset.create ();
    occupancy = 0;
    high_water = 0;
    reads = 0;
  }

let occupancy_pages t = t.occupancy

let write t page =
  (match t.faults with
  | None -> ()
  | Some plan -> (
      match Faults.Fault_plan.on_swap_write plan with
      | Faults.Fault_plan.Proceed -> ()
      | Faults.Fault_plan.Io_error -> raise Io_error
      | Faults.Fault_plan.Device_full -> raise Full));
  if not (Bitset.mem t.copies page) then begin
    (match t.capacity_pages with
    | Some cap when t.occupancy >= cap -> raise Full
    | Some _ | None -> ());
    Bitset.set t.copies page;
    t.occupancy <- t.occupancy + 1
  end;
  if t.occupancy > t.high_water then t.high_water <- t.occupancy

let read t page =
  if not (Bitset.mem t.copies page) then
    invalid_arg (Printf.sprintf "Swap.read: page %d has no swap copy" page);
  (match t.faults with
  | None -> ()
  | Some plan -> (
      match Faults.Fault_plan.on_swap_read plan with
      | Faults.Fault_plan.Proceed | Faults.Fault_plan.Device_full -> ()
      | Faults.Fault_plan.Io_error -> raise Io_error));
  t.reads <- t.reads + 1

let drop t page =
  if Bitset.mem t.copies page then begin
    Bitset.clear t.copies page;
    t.occupancy <- t.occupancy - 1
  end

let has_copy t page = Bitset.mem t.copies page

let high_water_pages t = t.high_water

let reads t = t.reads
