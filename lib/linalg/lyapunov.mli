(** The discrete Lyapunov equation [X = phi X phiᵀ + q].

    This is the covariance half of the mixed-frequency-time method: the
    periodic Lyapunov ODE over one clock period is the affine map
    [K ↦ phi K phiᵀ + q], and the periodic steady state is its fixed
    point.  It is found by squaring that map, as {!Vanloan.repeat}
    composes it, until the increment vanishes — O(n³) per step, O(n²)
    memory, and never an n²-sized system. *)

exception Not_stable of string
(** Raised when the iteration fails to contract (spectral radius of
    [phi] >= 1): the map has no fixed point that is a covariance.  A
    growing mode that [q] does not reach goes unseen (the iteration
    converges), so a caller that must refuse every unstable circuit
    checks the Floquet multipliers first. *)

val solve_discrete_doubling :
  ?tol:float -> ?max_iter:int -> Mat.t -> Mat.t -> Mat.t
(** [solve_discrete_doubling phi q] solves [x = phi x phiᵀ + q] by the
    doubling iteration [x_{k+1} = phi_k x_k phi_kᵀ + x_k],
    [phi_{k+1} = phi_k²] from [x_0 = q], each step one
    {!Vanloan.propagate}, stopping when the increment is within [tol]
    (default 1e-14) of the running solution; the result is symmetric.
    Requires the spectral radius of [phi] to be < 1 and raises
    {!Not_stable} otherwise.  O(n³ log(1/tol)). *)

val residual_discrete : Mat.t -> Mat.t -> Mat.t -> float
(** [residual_discrete phi q x] is [max_abs (x - phi x phiᵀ - q)]; used by
    tests and diagnostics. *)
