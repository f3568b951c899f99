(* One packed status byte per page, the flag half of the VMM's
   struct-of-arrays page table. Keeping all five booleans in a single
   Bytes.t means the touch fast path reads and writes exactly one byte
   per access instead of dereferencing a boxed record.

   All accessors use unsafe byte access: the VMM guarantees [page] is
   below the table length before calling in (the touch fast path has
   already bounds-checked), and re-checking here would put a second
   branch on the hottest loads in the simulator. *)

type set = Bytes.t

let dirty = 1

let referenced = 2

let protected_ = 4

let pinned = 8

let surrendered = 32

let all = [ dirty; referenced; protected_; pinned; surrendered ]

let create n = Bytes.make n '\000'

let length (b : set) = Bytes.length b

(* Grow to [n] bytes, preserving contents; new pages start all-clear. *)
let grow (b : set) n =
  let b' = Bytes.make n '\000' in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

let[@inline] byte (b : set) page = Char.code (Bytes.unsafe_get b page)

let[@inline] set_byte (b : set) page v =
  Bytes.unsafe_set b page (Char.unsafe_chr v)

let[@inline] get (b : set) page bit = byte b page land bit <> 0

let[@inline] set (b : set) page bit = set_byte b page (byte b page lor bit)

let[@inline] clear (b : set) page bit =
  set_byte b page (byte b page land lnot bit land 0xff)

let[@inline] put (b : set) page bit v =
  if v then set b page bit else clear b page bit
