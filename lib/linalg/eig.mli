(** Eigenvalues of real square matrices.

    Householder reduction to upper Hessenberg form followed by the
    Francis implicit double-shift QR iteration (eigenvalues only).  Used
    for Floquet-multiplier / stability diagnostics of switched circuits
    and for analytic cross-checks in tests. *)

exception No_convergence of int
(** Raised with the stuck eigenvalue index if the QR iteration exceeds
    its iteration budget. *)

val hessenberg : Mat.t -> Mat.t * Mat.t
(** [hessenberg a] is [(h, u)]: the orthogonal similarity reduction
    [a = u h uᵀ] with [h] upper Hessenberg (zero below the first
    subdiagonal) and [u] orthogonal, both fresh; the input is not
    modified. *)

val eigenvalues : Mat.t -> Cx.t array
(** All eigenvalues (with multiplicity), in no particular order. *)

val spectral_radius : Mat.t -> float
(** Largest eigenvalue modulus. *)

val spectral_abscissa : Mat.t -> float
(** Largest eigenvalue real part (negative iff Hurwitz-stable). *)

val is_schur_stable : ?margin:float -> Mat.t -> bool
(** [is_schur_stable phi] is true when the spectral radius is
    < 1 - margin (default margin 0). *)
