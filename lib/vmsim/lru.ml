module Sparse = Repro_util.Sparse

type list_kind = Active | Inactive

(* Intrusive doubly-linked lists over page numbers. -1 is the null link.
   [where_] holds 0 = on no list, 1 = active, 2 = inactive.

   The links are parallel [next]/[prev]/[where_] arrays in 4096-page
   chunks of a [Sparse] table, so page numbers near 2^30 cost memory
   proportional to the pages queued. Never-written chunks read the
   all-empty [sentinel] ([where_] all zero, links all -1): "on no list".
   A push materialises the page's chunk first, and links are only ever
   written for pages already on a list, hence already materialised. *)

let chunk_shift = 12

let chunk_pages = 1 lsl chunk_shift

let chunk_mask = chunk_pages - 1

type chunk = { next : int array; prev : int array; where_ : Bytes.t }

let fresh () =
  {
    next = Array.make chunk_pages (-1);
    prev = Array.make chunk_pages (-1);
    where_ = Bytes.make chunk_pages '\000';
  }

let sentinel = fresh ()

type t = {
  chunks : chunk Sparse.t;
  mutable active_head : int;
  mutable active_tail : int;
  mutable inactive_head : int;
  mutable inactive_tail : int;
  mutable active_size : int;
  mutable inactive_size : int;
}

let create () =
  {
    chunks = Sparse.create ~shift:chunk_shift ~sentinel;
    active_head = -1;
    active_tail = -1;
    inactive_head = -1;
    inactive_tail = -1;
    active_size = 0;
    inactive_size = 0;
  }

let chunk_of t page = Sparse.chunk t.chunks page

let where t page =
  Char.code (Bytes.get (chunk_of t page).where_ (page land chunk_mask))

let prv t page = (chunk_of t page).prev.(page land chunk_mask)

let set_nxt t page v = (chunk_of t page).next.(page land chunk_mask) <- v

let set_prv t page v = (chunk_of t page).prev.(page land chunk_mask) <- v

let membership t page =
  match where t page with
  | 0 -> None
  | 1 -> Some Active
  | 2 -> Some Inactive
  | _ -> assert false

(* Each operation looks the page's own slot, [i] of chunk [c], up once;
   a neighbour's link costs one lookup of its own. *)

let link c i ~prev ~next w =
  c.prev.(i) <- prev;
  c.next.(i) <- next;
  Bytes.set c.where_ i (Char.chr w)

(* The page's chunk, materialised, once the page is known to be on no
   list. *)
let unlisted t page =
  let c = Sparse.materialize t.chunks page fresh in
  if Bytes.get c.where_ (page land chunk_mask) <> '\000' then
    invalid_arg "Lru: page already on a list";
  c

(* Link [page] at the head of the list described by [kind]. *)

let push_head t page ~kind =
  let c = unlisted t page and i = page land chunk_mask in
  match kind with
  | Active ->
      link c i ~prev:(-1) ~next:t.active_head 1;
      if t.active_head >= 0 then set_prv t t.active_head page
      else t.active_tail <- page;
      t.active_head <- page;
      t.active_size <- t.active_size + 1
  | Inactive ->
      link c i ~prev:(-1) ~next:t.inactive_head 2;
      if t.inactive_head >= 0 then set_prv t t.inactive_head page
      else t.inactive_tail <- page;
      t.inactive_head <- page;
      t.inactive_size <- t.inactive_size + 1

let push_active_head t page = push_head t page ~kind:Active

let push_inactive_head t page = push_head t page ~kind:Inactive

let push_inactive_tail t page =
  let c = unlisted t page in
  link c (page land chunk_mask) ~prev:t.inactive_tail ~next:(-1) 2;
  if t.inactive_tail >= 0 then set_nxt t t.inactive_tail page
  else t.inactive_head <- page;
  t.inactive_tail <- page;
  t.inactive_size <- t.inactive_size + 1

(* Unlink [page], at slot [i] of chunk [c], from list [w]. *)
let unlink t c i page w =
  let np = c.next.(i) and pp = c.prev.(i) in
  if pp >= 0 then set_nxt t pp np;
  if np >= 0 then set_prv t np pp;
  begin
    match w with
    | 1 ->
        if t.active_head = page then t.active_head <- np;
        if t.active_tail = page then t.active_tail <- pp;
        t.active_size <- t.active_size - 1
    | 2 ->
        if t.inactive_head = page then t.inactive_head <- np;
        if t.inactive_tail = page then t.inactive_tail <- pp;
        t.inactive_size <- t.inactive_size - 1
    | _ -> assert false
  end;
  link c i ~prev:(-1) ~next:(-1) 0

let remove t page =
  let c = chunk_of t page and i = page land chunk_mask in
  let w = Char.code (Bytes.get c.where_ i) in
  if w = 0 then invalid_arg "Lru.remove: page not on a list";
  unlink t c i page w

(* Remove a page that may or may not be listed in a single [where_]
   probe; the membership-then-remove idiom at call sites paid for that
   lookup twice. *)
let remove_if_present t page =
  let c = chunk_of t page and i = page land chunk_mask in
  let w = Char.code (Bytes.get c.where_ i) in
  w <> 0
  && begin
       unlink t c i page w;
       true
     end

let active_tail t = t.active_tail

let inactive_tail t = t.inactive_tail

let active_size t = t.active_size

let inactive_size t = t.inactive_size

let iter_from_tail tail t f =
  let rec loop p =
    if p >= 0 then begin
      let prev = prv t p in
      f p;
      loop prev
    end
  in
  loop tail

let iter_inactive_from_tail t f = iter_from_tail t.inactive_tail t f

let iter_active_from_tail t f = iter_from_tail t.active_tail t f
