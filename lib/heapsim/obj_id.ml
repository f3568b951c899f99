type t = int

let null = -1

let is_null id = id < 0
