(** Matrix exponential by Padé(13) approximation with scaling and
    squaring (Higham 2005).

    Exact (to rounding) for the phase-wise-constant state matrices of
    switched-capacitor circuits, which is what makes the MFT monodromy
    computation robust against stiffness.  {!expm} serves whole
    matrices ([Pwl.monodromy]).  The Van Loan exponential of
    [[-A, Q], [0, Aᵀ]] runs the same Padé on its three n×n blocks
    ({!Vanloan.discretize}) through the pieces exported below — the
    scaling exponent, the per-entry loops of U and V, the call counter
    — so that it keeps the float operations of this whole-matrix form
    entry by entry. *)

val expm : Mat.t -> Mat.t
(** [expm a] is [e^a] for a square matrix.  Raises [Invalid_argument] if
    [a] is not square. *)

type pade = {
  lhs : Mat.t;  (** [V − U] *)
  rhs : Mat.t;  (** [V + U] *)
  squarings : int;  (** [s] *)
}
(** The order-13 Padé system behind {!expm}: with [a] scaled by
    [2^−s], [expm a] is [(lhs⁻¹ rhs)^(2^s)]. *)

val pade13 : Mat.t -> pade
(** The system {!expm} solves for a nonempty square matrix, bit for bit
    (for kernel tests and benchmarks on real operands).  U and V are
    formed by per-entry loops ({!poly_inner}, {!poly_tail}) that apply
    the float operations of the whole-matrix composition, in its order,
    with no identity matrix and no temporaries:
    [U = A (A6 (b13 A6 + b11 A4 + b9 A2) + (b7 A6 + b5 A4) + (b3 A2 + b1 I))],
    [V = A6 (b12 A6 + b10 A4 + b8 A2) + (b6 A6 + b4 A4) + (b2 A2 + b0 I)].  Raises [Invalid_argument] if
    [a] is not square or is empty. *)

val squarings : float -> int
(** [squarings norm] is the scaling exponent [s] that {!pade13} takes
    for an operand of infinity norm [norm]: the least [s ≥ 0] with
    [norm / 2^s ≤ θ13]. *)

val poly_inner :
  odd:bool -> float array -> x6:float array -> x4:float array ->
  x2:float array -> off:int -> dim:int -> unit
(** [poly_inner ~odd dst ~x6 ~x4 ~x2 ~off ~dim] writes
    [(b13 x6 + b11 x4) + b9 x2] ([odd]) or [(b12 x6 + b10 x4) + b8 x2]
    into [dst], entry by entry, over the [dim × dim] square stored
    row-major from [off] in every array.  Raises [Invalid_argument]
    when the square does not fit an array. *)

val poly_tail :
  odd:bool -> float array -> x6:float array -> x4:float array ->
  x2:float array -> off:int -> dim:int -> diag:bool -> unit
(** [poly_tail ~odd dst ~x6 ~x4 ~x2 ~off ~dim ~diag] adds
    [(b7 x6 + b5 x4) + (b3 x2 + b1 id)] ([odd]) or
    [(b6 x6 + b4 x4) + (b2 x2 + b0 id)] to [dst] in place over the same
    square, where [id] is [1.0] on the square's diagonal when [diag]
    and [0.0] everywhere else — the identity's entries on a diagonal
    block, its zeros off it ([x + 0.0] turns [-0.0] into [+0.0]).
    Raises [Invalid_argument] when the square does not fit an array. *)

val count_call : unit -> unit
(** Advances the [expm_calls] counter: one per exponential taken,
    whole-matrix or block-structured. *)

val expm_scaled : Mat.t -> float -> Mat.t
(** [expm_scaled a t] is [e^(a t)]. *)
