(** Matrix exponential by Padé(13) approximation with scaling and
    squaring (Higham 2005).

    Exact (to rounding) for the phase-wise-constant state matrices of
    switched-capacitor circuits, which is what makes the Van Loan
    discretisation and the MFT monodromy computation robust against
    stiffness. *)

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
    formed by per-entry loops that apply the float operations of the
    whole-matrix composition, in its order, with no identity matrix and
    no temporaries:
    [U = A (A6 (b13 A6 + b11 A4 + b9 A2) + (b7 A6 + b5 A4) + (b3 A2 + b1 I))],
    [V = A6 (b12 A6 + b10 A4 + b8 A2) + (b6 A6 + b4 A4) + (b2 A2 + b0 I)].  Raises [Invalid_argument] if
    [a] is not square or is empty. *)

val expm_scaled : Mat.t -> float -> Mat.t
(** [expm_scaled a t] is [e^(a t)]. *)
