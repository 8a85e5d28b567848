(** Trapezoidal integration for complex shifted linear systems
    [dP/dt = (A - s I) P + k(t)] with real [A] and complex shift [s].

    This is the equation obeyed by the periodic envelope of the
    cross-spectral density in the mixed-frequency-time method, where
    [s = j w] for analysis frequency [w].

    The stepper works in the basis of a real Hessenberg reduction
    [A = U H Uᵀ] (Laub, IEEE TAC 26(2), 1981): there the LHS
    [I - h/2 (H - jwI)] is complex upper Hessenberg at every
    frequency, so it factors exactly in O(n^2) and each step costs
    O(n^2) — one real Hessenberg product and one bidiagonal-L /
    triangular-U solve. *)

module Cvec = Scnoise_linalg.Cvec
module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx

(** {1 Shifted-Hessenberg stepper}

    Factors of [width] complex upper-Hessenberg matrices
    [M_b = d_b I - alpha_b H] over one shared real upper-Hessenberg [H],
    one per block column, by Gaussian elimination with adjacent-row
    partial pivoting ([L] unit lower bidiagonal, [U] upper triangular).
    The factors are stored column-interleaved with the block column
    innermost, so a panel step ({!Cvec.panel} layout) traverses [H]
    once for the whole block; every column is bitwise identical to a
    width-1 factor/solve with its own coefficients.  A [hess] carries
    scratch and must not be shared across domains. *)

type hess

val hess_create : dim:int -> width:int -> hess
(** Room for [width] factorisations of dimension [dim].  Raises
    [Invalid_argument] when [width < 1]. *)

val hess_swaps : hess -> col:int -> int
(** Row interchanges in column [col]'s last factorisation. *)

val hess_factor : hess -> hmat:Mat.t -> col:int -> d:Cx.t -> alpha:Cx.t -> unit
(** Factor column [col] as [d I - alpha hmat] in O(n^2).  [hmat] must be
    upper Hessenberg (entries below the subdiagonal are not read) and
    is shared by every column: the last call binds it.  Records the
    pivot growth [max |u_ij| / max |m_ij|] in the always-on
    [bvp.hess_pivot_growth] histogram and counts
    [bvp_hess_factorizations].  Raises [Lu.Singular] on an exactly
    zero pivot. *)

val hess_factor_shifted :
  hess -> hmat:Mat.t -> h:float -> col:int -> omega:float -> unit
(** The trapezoid LHS [I - h/2 (hmat - j omega I)]: {!hess_factor} with
    [d = 1 + j omega h/2] and [alpha = h/2]. *)

val hess_solve_in_place : hess -> Cvec.panel -> unit
(** Overwrite every column [b] of the panel with [M_b^{-1}] applied to
    it. *)

val step_hess_into : hess -> g:Cvec.t -> p:Cvec.panel -> into:Cvec.panel -> unit
(** One trapezoid step of every column:
    [M_b into_b = ((2 - d_b) I + alpha_b H) p_b + g], which for shifted
    factors is [(I + h/2 (H - jwI)) p_b + h/2 (k0 + k1)] with the
    forcing term [g = h/2 (k0 + k1)] given in the Hessenberg basis and
    shared by all columns.  [into] must not alias [p]. *)
