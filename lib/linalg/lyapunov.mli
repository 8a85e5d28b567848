(** Continuous and discrete Lyapunov equation solvers.

    These are the workhorses of the periodic-steady-state covariance
    computation: the MFT engine reduces the periodic Lyapunov ODE to the
    discrete equation [X = phi X phiᵀ + q] over one clock period. *)

exception Not_stable of string
(** Raised by the iterative solvers when the iteration fails to contract
    (spectral radius >= 1). *)

val solve_continuous : Mat.t -> Mat.t -> Mat.t
(** [solve_continuous a q] solves [a x + x aᵀ + q = 0] by Kronecker
    vectorisation (exact, O(n^6)); [a] must be Hurwitz for the result to
    be a covariance.  Raises [Lu.Singular] when [a] has eigenvalues
    summing to zero in pairs (e.g. lossless circuits). *)

val solve_discrete_kron : Mat.t -> Mat.t -> Mat.t
(** [solve_discrete_kron phi q] solves [x = phi x phiᵀ + q] exactly by
    vectorisation. *)

val solve_discrete_doubling :
  ?tol:float -> ?max_iter:int -> Mat.t -> Mat.t -> Mat.t
(** Same equation by the doubling iteration
    [x_{k+1} = x_k + phi_k x_k phi_kᵀ], [phi_{k+1} = phi_k²]; requires the
    spectral radius of [phi] to be < 1 and raises {!Not_stable}
    otherwise.  O(n³ log(1/tol)). *)

val solve_discrete : Mat.t -> Mat.t -> Mat.t
(** Dispatcher: doubling when possible, Kronecker fallback. *)

val residual_discrete : Mat.t -> Mat.t -> Mat.t -> float
(** [residual_discrete phi q x] is [max_abs (x - phi x phiᵀ - q)]; used by
    tests and diagnostics. *)
