(** Periodic steady state of the noise covariance of a switched linear
    circuit.

    The covariance obeys the periodic Lyapunov ODE
    [dK/dt = A(t) K + K A(t)ᵀ + B(t) B(t)ᵀ].  Over one clock period the
    map [K(0) -> K(T)] is affine, [K(T) = Phi K(0) Phiᵀ + Q], with
    [(Phi, Q)] assembled exactly from per-substep Van Loan
    discretisations.  The periodic steady state is the fixed point of
    that map — a discrete Lyapunov equation solved directly, which is the
    covariance half of the mixed-frequency-time method.

    Every interval of the sampling grid is discretised by one Van Loan
    augmented exponential, memoised per distinct (phase, step) pair, so
    a stretched grid of ~2x96 intervals builds a dozen or so operators.
    The period's process noise folds each run of one operator by binary
    doubling ({!run_map}), and the trace [K(t_i)] is unrolled from the
    steady state as dense [n×n] matrices. *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Pwl = Scnoise_circuit.Pwl

type grid_kind = [ `Stretched | `Uniform ]

type sampled = {
  sys : Pwl.t;
  times : float array;  (** grid over one period, [0 .. T], length N+1 *)
  interval_phase : int array;  (** phase index of each of the N intervals *)
  ks : Mat.t array;  (** K at each grid time *)
  phis : Mat.t array;  (** state-transition Phi(t_i, 0) at each grid time *)
  k0 : Mat.t;  (** periodic steady-state covariance at t = 0 *)
  phi_period : Mat.t;  (** monodromy Phi(T, 0) *)
  q_period : Mat.t;  (** accumulated process noise over one period *)
  peak_rank : int;  (** rank of the stored covariances: always [nstates] *)
}

val ks_bytes : sampled -> int
(** Total bytes held by the [ks] trace (the dominant storage term). *)

type discretized_grid = {
  g_times : float array;  (** grid over one period, [0 .. T] *)
  g_phase : int array;  (** phase owning each interval *)
  g_ops : Scnoise_linalg.Vanloan.t array;
      (** one (Phi, Qd) per distinct (phase, step) pair, in order of
          first occurrence *)
  g_op : int array;  (** index into [g_ops] of each interval's operator *)
  g_disc : Scnoise_linalg.Vanloan.t array;
      (** per-interval (Phi, Qd): [g_ops.(g_op.(i))], shared physically *)
}

val default_samples_per_phase : int
(** Grid samples per clock phase when a caller gives none (96): the
    default of every engine built on {!discretized_grid} and of the CLI
    and served requests. *)

val discretized_grid :
  ?samples_per_phase:int -> ?grid:grid_kind -> ?pool:Scnoise_par.Pool.t ->
  Pwl.t -> discretized_grid
(** The per-substep Van Loan discretisation of one clock period; shared
    with the transient and Monte-Carlo engines.  Intervals are keyed by
    phase and step, the step quantised to ~1e-12 relative where
    [norm(A)·h <= 16] (exact bits on stiffer intervals), and one
    discretisation is built per distinct key.  The distinct
    discretisations are independent and run across [pool] (default:
    the shared pool) with bit-identical results at any job count. *)

val run_map : Scnoise_linalg.Vanloan.t -> int -> Scnoise_linalg.Vanloan.t
(** [run_map d len] is [len] consecutive applications of the affine map
    [K ↦ Phi K Phiᵀ + Qd], composed by binary doubling in [O(log len)]
    products; [len = 0] gives the identity map. *)

val period_map :
  ?samples_per_phase:int -> ?grid:grid_kind -> ?pool:Scnoise_par.Pool.t ->
  Pwl.t -> Mat.t * Mat.t
(** [(Phi, Q)] of the one-period affine covariance map (the grid options
    only affect substep placement; the result is exact up to rounding
    regardless, they are exposed for the ablation benches). *)

val periodic_initial :
  ?samples_per_phase:int -> ?pool:Scnoise_par.Pool.t -> Pwl.t -> Mat.t
(** Steady-state covariance at the period boundary: the fixed point of
    {!period_map}, by the exact Kron solve on small systems and by
    doubling on larger ones. *)

val sample :
  ?samples_per_phase:int -> ?grid:grid_kind -> ?pool:Scnoise_par.Pool.t ->
  Pwl.t -> sampled
(** Full sampled trace of the periodic covariance over one period,
    together with the transition matrices needed by the PSD engine. *)

val variance_trace : sampled -> Vec.t -> float array
(** [variance_trace s c] is [cᵀ K(t_i) c] on the grid. *)

val variance_at_boundary : sampled -> Vec.t -> float

val average_variance : sampled -> Vec.t -> float
(** Time average of the variance over one period. *)

val closure_error : sampled -> float
(** [max_abs (K(T) - K(0))] — a periodicity self-check (small for a
    converged steady state). *)
