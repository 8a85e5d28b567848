(** LU factorisation with partial pivoting for real square matrices. *)

type t
(** A factorisation [P A = L U]. *)

exception Singular of int
(** Raised (with the offending pivot column) when a pivot is exactly
    zero.  Near-singular systems are not detected; callers that care
    should inspect {!rcond_estimate}. *)

val factor : Mat.t -> t
(** Factor a square matrix.  Raises [Invalid_argument] if not square and
    {!Singular} if structurally singular. *)

val factor_in_place : Mat.t -> t
(** {!factor} in the matrix's own storage, which the factorisation
    keeps: the matrix holds the packed factors afterwards and must not
    be written while the factorisation is in use.  Same counters,
    exceptions and bits as {!factor}. *)

val solve : t -> Vec.t -> Vec.t
(** Solve [A x = b] for one right-hand side. *)

val solve_into : t -> b:Vec.t -> into:Vec.t -> unit
(** Allocation-free {!solve}; [into] must not alias [b]. *)

val solve_mat : t -> Mat.t -> Mat.t
(** Solve [A X = B] for all columns of [B] in one row-wise pass.  Column
    [c] of the result is bitwise {!solve} on column [c] of [B], and the
    [lu_solves] counter advances by one per column.  The pass skips the
    multiply-adds whose factor entry is exactly zero, and those of a
    source row outside its nonzero column span; the skipped terms are
    [±0], so the skips are exact while the factors and the finished
    rows are finite and [B] holds no [-0.0], and the pass runs every
    term once that fails.  The [lu_solve_madds] counter advances by the
    multiply-adds run, at most [n (n − 1)] per column. *)

val solve_mat_into : t -> Mat.t -> out:Mat.t -> unit
(** [solve_mat_into lu b ~out] writes [solve_mat lu b] into [out], bit
    for bit and with the same counters, allocating nothing.  Raises
    [Invalid_argument] on mismatched dimensions or when [out] shares
    storage with [b] or with the factors. *)

val packed : t -> Mat.t * int array
(** Copies of the packed factors (unit [L] below the diagonal, [U] on
    and above it) and of the row permutation: row [i] of [P A] is row
    [piv.(i)] of [A].  For reference kernels in tests and benchmarks. *)

val det : t -> float
(** Determinant of the factored matrix. *)

val inverse : t -> Mat.t

val rcond_estimate : t -> float
(** Crude reciprocal-condition estimate: [min |u_ii| / max |u_ii|]. *)

val solve_dense : Mat.t -> Vec.t -> Vec.t
(** One-shot factor-and-solve. *)
