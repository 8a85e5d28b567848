(** Eigenvalues of real square matrices.

    Householder reduction to upper Hessenberg form followed by the
    Francis implicit double-shift QR iteration (eigenvalues only).  Used
    for Floquet-multiplier / stability diagnostics of switched circuits
    and for analytic cross-checks in tests.

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
