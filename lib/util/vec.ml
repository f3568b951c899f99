type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (len %d)" i v.len)

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

(* Doubling appends the array to itself rather than filling a fresh one
   with [x]: [Array.make] of more than 256 words filled with a young
   block runs a minor collection first, so a vector of records would
   force one at every doubling past 256 slots. [Array.append] copies the
   elements without one. *)
let grow v x =
  if Array.length v.data = 0 then v.data <- Array.make 8 x
  else v.data <- Array.append v.data v.data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let top v =
  if v.len = 0 then invalid_arg "Vec.top: empty";
  v.data.(v.len - 1)

let clear v = v.len <- 0

let truncate v n = if n >= 0 && n < v.len then v.len <- n

let swap_remove v i =
  check v i;
  let x = v.data.(i) in
  v.len <- v.len - 1;
  v.data.(i) <- v.data.(v.len);
  x

let filter_in_place p v =
  let kept = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!kept) <- x;
      incr kept
    end
  done;
  v.len <- !kept

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let to_array v = Array.sub v.data 0 v.len

(* Heapsort of the live prefix, in place, so that it allocates nothing:
   [sift] moves [a.(i)] down the heap of the first [n] slots. *)
let rec sift cmp a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && cmp a.(l + 1) a.(l) > 0 then l + 1 else l in
    if cmp a.(c) a.(i) > 0 then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift cmp a c n
    end
  end

let sort cmp v =
  let a = v.data in
  for i = (v.len / 2) - 1 downto 0 do
    sift cmp a i v.len
  done;
  for n = v.len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(n);
    a.(n) <- x;
    sift cmp a 0 n
  done
