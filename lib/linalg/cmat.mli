(** Dense complex matrices, row-major, stored as a flat [float array]
    with interleaved re/im parts (see {!Cvec} for the layout rationale). *)

type t

val create : int -> int -> t

val init : int -> int -> (int -> int -> Cx.t) -> t

val identity : int -> t

val of_real : Mat.t -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> Cx.t

val set : t -> int -> int -> Cx.t -> unit

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t

val mul_vec : t -> Cvec.t -> Cvec.t

val mul_vec_into : t -> Cvec.t -> into:Cvec.t -> unit
(** Allocation-free {!mul_vec}.  [into] must not alias the input
    vector (the product is accumulated row by row). *)

val max_abs_diff : t -> t -> float

val is_hermitian : ?tol:float -> t -> bool

val data : t -> float array
(** The interleaved row-major backing buffer (length
    [2 * rows * cols], not a copy); entry (i,j) lives at index
    [2 * (i * cols + j)]. *)
