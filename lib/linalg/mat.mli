(** Dense real matrices, row-major.

    Sizes are validated on every operation; mismatches raise
    [Invalid_argument].  The representation is exposed read-only through
    accessors; construct with {!create}/{!init}/{!of_arrays}.

    The arithmetic kernels ({!mul}, {!mul_into}, {!add}, {!sub}, {!scale},
    {!transpose}, {!symmetrize}) are bit-faithful: each output entry is
    computed by the same floating-point operations, in the same order,
    as the plain loop that defines it, whatever tiling or loop
    structure computes it. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val identity : int -> t

val diag : float array -> t
(** Square matrix with the given diagonal. *)

val of_arrays : float array array -> t
(** Rows must be non-empty and of equal length. *)

val to_arrays : t -> float array array

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

(** {1 Raw storage} *)

val data : t -> float array
(** The backing row-major buffer (element [(i, j)] at [i * cols + j]).
    Read-only by convention: mutate only through {!set}/{!update}, except
    to fill a matrix the caller has just created (the linear-algebra
    kernels write their fresh results this way). *)

val set : t -> int -> int -> float -> unit

val update : t -> int -> int -> (float -> float) -> unit
(** [update m i j f] sets [m.(i).(j) <- f m.(i).(j)]; used by MNA
    stamping. *)

val copy : t -> t

val transpose : t -> t

val transpose_into : t -> t -> unit
(** [transpose_into m out] writes [transpose m] into [out].  Raises
    [Invalid_argument] on mismatched dimensions or when [out] shares
    its storage with [m]. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product.  Entry [(i, j)] is the sum, from [0.0] and in
    ascending [k], of [a.(i).(k) *. b.(k).(j)] over the [k] with
    [a.(i).(k) <> 0] — bitwise for every finite result and every
    infinity; a NaN result is a NaN, but where two NaNs meet in one sum
    (an [inf *. 0.0] term added to a NaN operand) its sign and payload
    may differ from a plain loop's, which depend on the order the
    hardware sees the operands in.  Rows
    of [a] with no zero inside their nonzero support run in register
    tiles, the others as row axpys over their nonzeros; for rows of
    [a] that are finite, the zero stretches of [b]'s columns or rows
    are skipped too.  Block-triangular and sparse operands such as the
    Van Loan matrix and its powers multiply at a fraction of the dense
    cost.  Classifying the operands costs one test per entry of a
    zero-free finite row of [a] and two loads per column of [b] with no
    zero at either end; only a row with an interior zero or a
    non-finite entry is counted entry by entry. *)

val mul_into : ?rows:int -> t -> t -> t -> unit
(** [mul_into a b c] writes [mul a b] into [c], bit for bit, without
    allocating a matrix: every entry of [c] is overwritten.  With
    [~rows:r] only the first [r] rows of [a] are multiplied: rows
    [0 .. r - 1] of [c] get those of [mul a b], bit for bit, and the
    later rows of [c] are left as they were.  Raises [Invalid_argument]
    on mismatched dimensions, on [r] outside [0 .. rows a], or when [c]
    shares its storage with [a] or [b]. *)

val mul_vec : t -> Vec.t -> Vec.t

val mul_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_vec_into m v out] writes [mul_vec m v] into [out], bit for bit.
    Raises [Invalid_argument] on mismatched dimensions or when [out] is
    [v]. *)

val mul_transpose_vec : t -> Vec.t -> Vec.t
(** [mul_transpose_vec m v] is [mᵀ v] without forming the transpose. *)

val mul_transpose_vec_into : t -> Vec.t -> Vec.t -> unit
(** [mul_transpose_vec_into m v out] writes [mul_transpose_vec m v]
    into [out], bit for bit.  Raises [Invalid_argument] on mismatched
    dimensions or when [out] is [v]. *)

val row : t -> int -> Vec.t

val col : t -> int -> Vec.t

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val norm_fro : t -> float

val max_abs : t -> float

val max_abs_diff : t -> t -> float

val is_square : t -> bool

val symmetrize : t -> t
(** [(m + mᵀ)/2]; used to keep covariance propagation symmetric against
    numerical drift. *)

val submatrix : t -> rows:int list -> cols:int list -> t
(** Extract the submatrix with the given row/column index lists (order is
    preserved, duplicates allowed). *)

val hcat : t -> t -> t

val vcat : t -> t -> t
