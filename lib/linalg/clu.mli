(** LU factorisation with partial pivoting for complex square matrices.

    Used by the MFT engine for the per-frequency periodic boundary solve
    [(I - e^{-jwT} Phi) P0 = r].  The factors live in a flat interleaved
    [float array]; {!create}/{!factor_into}/{!solve_into} let hot loops
    refactor and solve without allocating. *)

type t

exception Singular of int

val create : int -> t
(** An unfactored workspace of the given dimension, to be filled by
    {!factor_into}.  Solving with it before a factorisation is
    meaningless (the identity permutation and a zero matrix). *)

val factor : Cmat.t -> t

val factor_into : t -> Cmat.t -> unit
(** Factor into an existing workspace of matching dimension —
    allocation-free. *)

val solve : t -> Cvec.t -> Cvec.t

val solve_into : t -> work:float array -> b:Cvec.t -> into:Cvec.t -> unit
(** Allocation-free {!solve}.  [work] needs at least [2 n] floats;
    [into] may alias [b] (the permuted gather goes through [work]). *)

val det : t -> Cx.t

val inverse : t -> Cmat.t

val solve_dense : Cmat.t -> Cvec.t -> Cvec.t
