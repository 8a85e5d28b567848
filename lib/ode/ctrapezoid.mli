(** Trapezoidal integration for complex shifted linear systems
    [dP/dt = (A - s I) P + k(t)] with real [A] and complex shift [s].

    This is the equation obeyed by the periodic envelope of the
    cross-spectral density in the mixed-frequency-time method, where
    [s = j w] for analysis frequency [w].

    The stepper works in the basis of a real Schur factorisation
    [A = Z T Zᵀ] ({!Scnoise_linalg.Eig.schur}): there the LHS
    [I - h/2 (T - jwI)] is complex quasi-upper-triangular at every
    frequency, so a new (h, w) costs only the inverses of [T]'s 1×1 and
    2×2 diagonal blocks, O(n), and each step is one back-substitution
    with the real [T], O(n^2), with no factorisation and no pivots. *)

module Cvec = Scnoise_linalg.Cvec
module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx

(** {1 Quasi-triangular shifted stepper}

    Solves with [width] complex quasi-upper-triangular matrices
    [M_b = d_b I - alpha_b T] over one shared real quasi-triangular [T],
    one per block column, by back-substitution over [T]'s diagonal
    blocks.  The block inverses are stored column-interleaved with the
    block column innermost, like the states of a panel ({!Cvec.panel}
    layout); a panel step runs every column in one call over the shared
    [T], in groups of up to 4 columns with independent sums in
    registers, and every column is bitwise identical to a
    width-1 start/solve with its own coefficients.  A [schur] carries
    scratch and must not be shared across domains. *)

type quasi
(** A real quasi-upper-triangular matrix with its 2×2 diagonal blocks
    located. *)

val quasi : Mat.t -> quasi
(** [quasi t] locates the 2×2 blocks of [t] (a nonzero subdiagonal
    entry [t_{i+1,i}] makes rows [i, i+1] one block), keeping [t]
    itself, not a copy.  Raises [Invalid_argument] if [t] is not square,
    has a nonzero entry below the subdiagonal or two adjacent nonzero
    subdiagonal entries. *)

type schur

val schur_create : dim:int -> width:int -> schur
(** Room for [width] columns of dimension [dim].  Raises
    [Invalid_argument] when [width < 1]. *)

val schur_start : schur -> tmat:quasi -> col:int -> d:Cx.t -> alpha:Cx.t -> unit
(** Set column [col] to [d I - alpha tmat] in O(n): the reciprocal of
    each 1×1 diagonal entry and the inverse of each 2×2 block.  [tmat]
    is shared by every column: the last call binds it.  A column so
    started serves {!schur_solve_in_place} only; it cannot step.
    Raises [Lu.Singular] on an exactly zero diagonal entry or 2×2
    determinant. *)

val schur_start_shifted :
  schur -> tmat:quasi -> h:float -> col:int -> omega:float -> unit
(** The trapezoid LHS [I - h/2 (tmat - j omega I)]: {!schur_start} with
    [d = 1 + j omega h/2] and [alpha = h/2], and the one start after
    which a column may step.  Raises [Invalid_argument] when
    [h <= 0]. *)

val schur_solve_in_place : schur -> Cvec.panel -> unit
(** Overwrite every column [b] of the panel with [M_b^{-1}] applied to
    it. *)

val step_schur_into :
  schur -> g:Cvec.t -> p:Cvec.panel -> into:Cvec.panel -> unit
(** One trapezoid step of every column,
    [M_b into_b = (I + h/2 (T - jwI)) p_b + h/2 (k0 + k1)], with the
    forcing term [g = h/2 (k0 + k1)] given in the Schur basis and
    shared by all columns.  One pass over each row of [T] forms both
    products, on [p + into] of the rows already solved.  Every column
    must have been started last by {!schur_start_shifted}: the kernel
    leaves out the factor [Re (2 - d) = 1] and the terms of
    [Im alpha = +0], so it is bitwise the general
    [((2 - d) I + alpha T) p + g] step on finite values.  Raises
    [Invalid_argument] on a column started otherwise, or when [into]
    aliases [p]. *)
