(** Eigenvalues and real Schur forms of real square matrices.

    Householder reduction to upper Hessenberg form followed by the
    Francis implicit double-shift QR iteration: eigenvalues only for
    Floquet-multiplier / stability diagnostics of switched circuits and
    analytic cross-checks in tests, and the full real Schur
    factorisation the periodic-BVP sweep steps in.

    The reduction runs on the row-major storage of {!Mat.t}, row by row,
    yet every entry sees the same float operations in the same order as
    the textbook column loop (kept in the test oracle as
    [Oracle.hessenberg]), so its results are that loop's bit for bit. *)

exception No_convergence of int
(** Raised with the stuck eigenvalue index if the QR iteration exceeds
    its iteration budget. *)

val hessenberg : Mat.t -> Mat.t * Mat.t
(** [hessenberg a] is [(h, u)]: the orthogonal similarity reduction
    [a = u h uᵀ] with [h] upper Hessenberg (zero below the first
    subdiagonal) and [u] orthogonal, both fresh; the input is not
    modified. *)

val schur : Mat.t -> Mat.t * Mat.t
(** [schur a] is [(t, z)], the real Schur factorisation [a = z t zᵀ],
    both fresh: [z] orthogonal and [t] quasi-upper-triangular — zero
    below the subdiagonal, with a nonzero subdiagonal entry only inside
    a standardised 2×2 block [[a b] [c a]] with [b c < 0], one per
    complex-conjugate eigenvalue pair, and separated by exact zeros.
    It runs {!hessenberg}, then the same QR iteration as {!eigenvalues}
    (whose eigenvalues it reproduces bit for bit) over the full rows and
    columns with the transformations accumulated into [z], then
    standardises the 2×2 blocks.  Counts [schur_reductions].  Raises
    {!No_convergence} where {!eigenvalues} would. *)

val eigenvalues : Mat.t -> Cx.t array
(** All eigenvalues (with multiplicity), in no particular order:
    [hessenberg_eigenvalues] of the reduced matrix. *)

val hessenberg_eigenvalues : Mat.t -> Cx.t array
(** The QR stage alone, on a matrix already in upper Hessenberg form
    (entries below the first subdiagonal are taken as zero). *)

val spectral_radius : Mat.t -> float
(** Largest eigenvalue modulus. *)

val spectral_abscissa : Mat.t -> float
(** Largest eigenvalue real part (negative iff Hurwitz-stable). *)

val is_schur_stable : ?margin:float -> Mat.t -> bool
(** [is_schur_stable phi] is true when the spectral radius is
    < 1 - margin (default margin 0). *)
