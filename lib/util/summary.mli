(** Summary statistics over float samples. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list. All samples must be positive. *)

val max : float list -> float
(** Maximum; 0 on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0,1\]]: the sorted samples' element at
    index [round (p * (n - 1))]; 0 on the empty list. This is not
    nearest-rank ([ceil (p * n)]): [percentile 0.5 \[1.; 2.; 3.; 4.\]] is
    3, where nearest-rank gives 2. *)

val sum : float list -> float
