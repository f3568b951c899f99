type t = { mutable brk : int }

let create ?(first_page = 16) () = { brk = first_page }

let reserve t ~npages =
  if npages <= 0 then invalid_arg "Address_space.reserve";
  let first = t.brk in
  t.brk <- t.brk + npages;
  first

let reserve_aligned t ~npages ~align =
  if npages <= 0 || align <= 0 then invalid_arg "Address_space.reserve_aligned";
  let first = (t.brk + align - 1) / align * align in
  t.brk <- first + npages;
  first

