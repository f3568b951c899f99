type t = {
  mutable minor_faults : int;
  mutable major_faults : int;
  mutable protection_faults : int;
  mutable evictions : int;
  mutable discards : int;
  mutable relinquished : int;
  mutable eviction_notices : int;
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable forced_evictions : int;
  mutable swap_retries : int;
  mutable swap_stalls : int;
  mutable resident_pages : int;
  mutable peak_resident_pages : int;
}

let create () =
  {
    minor_faults = 0;
    major_faults = 0;
    protection_faults = 0;
    evictions = 0;
    discards = 0;
    relinquished = 0;
    eviction_notices = 0;
    swap_ins = 0;
    swap_outs = 0;
    forced_evictions = 0;
    swap_retries = 0;
    swap_stalls = 0;
    resident_pages = 0;
    peak_resident_pages = 0;
  }

(* Pages resident right now is a gauge, not a counter: opening a fresh
   measurement window must not zero it (the pages are still mapped), so
   [reset] keeps the gauge and restarts the high-water mark from it. *)
let add_resident t delta =
  t.resident_pages <- t.resident_pages + delta;
  if t.resident_pages > t.peak_resident_pages then
    t.peak_resident_pages <- t.resident_pages

let reset t =
  t.minor_faults <- 0;
  t.major_faults <- 0;
  t.protection_faults <- 0;
  t.evictions <- 0;
  t.discards <- 0;
  t.relinquished <- 0;
  t.eviction_notices <- 0;
  t.swap_ins <- 0;
  t.swap_outs <- 0;
  t.forced_evictions <- 0;
  t.swap_retries <- 0;
  t.swap_stalls <- 0;
  t.peak_resident_pages <- t.resident_pages

let pp ppf t =
  Format.fprintf ppf
    "minor:%d major:%d prot:%d evict:%d discard:%d relinq:%d notices:%d \
     swapin:%d swapout:%d forced:%d retries:%d stalls:%d resident:%d peak:%d"
    t.minor_faults t.major_faults t.protection_faults t.evictions t.discards
    t.relinquished t.eviction_notices t.swap_ins t.swap_outs t.forced_evictions
    t.swap_retries t.swap_stalls t.resident_pages t.peak_resident_pages
