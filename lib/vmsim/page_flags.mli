(** Packed per-page status flags.

    One byte per page holds the five page-state booleans the VMM tracks
    (dirty, referenced, protected, pinned, surrendered), so the touch
    fast path touches exactly one byte of flag state per access. Whether
    a page has a swap copy is the swap device's record ({!Swap.has_copy}),
    not a flag.

    Accessors use unchecked byte access for speed: callers must keep
    [page] below {!length} (the VMM bounds-checks once at the top of
    [touch] and grows the table in [map_range]). *)

type set = Bytes.t
(** Deliberately transparent: dev-profile builds pass [-opaque], which
    defeats cross-module inlining, so the VMM's touch fast path works on
    the raw bytes directly (it asserts the bit layout at init). Treat it
    as abstract everywhere else. *)

(** {1 Flag bits} *)

val dirty : int

val referenced : int

val protected_ : int

val pinned : int

val surrendered : int

val all : int list
(** Every flag bit, for exhaustive round-trip tests. *)

(** {1 Storage} *)

val create : int -> set
(** [create n] makes flags for [n] pages, all clear. *)

val length : set -> int

val grow : set -> int -> set
(** [grow b n] copies into a fresh [n]-page set; new pages are clear. *)

(** {1 Access} *)

val get : set -> int -> int -> bool
(** [get b page bit] — is [bit] set on [page]? *)

val set : set -> int -> int -> unit

val clear : set -> int -> int -> unit

val put : set -> int -> int -> bool -> unit
(** [put b page bit v] sets or clears. *)

val byte : set -> int -> int
(** The raw packed byte: every flag of the page at once. *)
