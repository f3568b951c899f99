module Bitset = Repro_util.Bitset

type t = { bits : Bitset.t; mutable footprint : int }

let create () = { bits = Bitset.create (); footprint = 0 }

let mark_resident t page =
  if not (Bitset.mem t.bits page) then begin
    Bitset.set t.bits page;
    t.footprint <- t.footprint + 1
  end

let mark_evicted t page =
  if Bitset.mem t.bits page then begin
    Bitset.clear t.bits page;
    t.footprint <- t.footprint - 1
  end

let is_resident t page = Bitset.mem t.bits page

let footprint_pages t = t.footprint

let iter_resident t f = Bitset.iter f t.bits

let word_resident t page buf = Bitset.word_members t.bits page buf
