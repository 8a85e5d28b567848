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

val solve : t -> Vec.t -> Vec.t
(** Solve [A x = b] for one right-hand side. *)

val solve_into : t -> b:Vec.t -> into:Vec.t -> unit
(** Allocation-free {!solve}; [into] must not alias [b]. *)

val solve_complex_into : t -> b:Cvec.t -> into:Cvec.t -> unit
(** Solve [A x = b] for a complex right-hand side against the real
    factorisation (the re/im parts are solved in one interleaved
    pass).  Allocation-free; [into] must not alias [b]. *)

val solve_block_into :
  t -> width:int -> b:Cvec.panel -> into:Cvec.panel -> unit
(** Blocked multi-RHS {!solve_complex_into} over column-major panels
    ({!Cvec.panel}): solves [A x_b = b_b] for all [width] complex
    columns in one traversal of the real factors — each factor element
    is loaded once per block and the inner loops stream over the
    [2 * width] adjacent floats of one state, which is what makes a
    batched frequency sweep cache- and SIMD-friendly.  Column [b] of
    the result is bitwise identical to {!solve_complex_into} on that
    column alone.  Allocation-free; [into] must not alias [b]. *)

val solve_mat : t -> Mat.t -> Mat.t
(** Solve [A X = B] for all columns of [B] in one row-wise pass.  Column
    [c] of the result is bitwise {!solve} on column [c] of [B], and the
    [lu_solves] counter advances by one per column. *)

val det : t -> float
(** Determinant of the factored matrix. *)

val inverse : t -> Mat.t

val rcond_estimate : t -> float
(** Crude reciprocal-condition estimate: [min |u_ii| / max |u_ii|]. *)

val solve_dense : Mat.t -> Vec.t -> Vec.t
(** One-shot factor-and-solve. *)
