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
    Consecutive intervals of one operator form a run, cut into pieces
    of at most [max (2n) 10] intervals; a long piece folds into one map
    by binary doubling ({!Scnoise_linalg.Vanloan.repeat}), shared by
    the pieces of one operator and length, and the monodromy and the
    period's process noise take one step per piece.  The steady state
    squares the period map the same way until it converges
    ({!Scnoise_linalg.Lyapunov.solve_discrete_doubling}).

    No [K(t_i)] and no [Phi(t_i, 0)] is ever formed per grid point: the
    method reads the covariance only through the PSD forcing
    [K(t_i) c], the output variance [cᵀ K(t_i) c] and the shooting rows
    [cᵀ Phi(t_i, 0)], and {!output_trace} takes all three from one
    run-wise pass of Horner chains on vectors, with n×n products only
    where it steps through a map or a short run's interval. *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Pwl = Scnoise_circuit.Pwl

type grid_kind = [ `Stretched | `Uniform ]

type run = {
  first : int;  (** index of the run's first interval *)
  len : int;
      (** number of consecutive intervals sharing its operator: at most
          [max (2n) 10], a longer stretch of one operator being cut into
          pieces whose lengths differ by at most one *)
  map : Scnoise_linalg.Vanloan.t option;
      (** the operator applied [len] times ({!Scnoise_linalg.Vanloan.repeat}),
          kept for runs long enough to pay for it (at least 5 intervals)
          and shared physically by the runs of one operator and length;
          [None] on a short run, which is stepped interval by interval *)
}

type sampled = {
  sys : Pwl.t;
  times : float array;  (** grid over one period, [0 .. T], length N+1 *)
  interval_phase : int array;  (** phase index of each of the N intervals *)
  ops : Scnoise_linalg.Vanloan.t array;
      (** the distinct per-interval operators (Phi, Qd) *)
  interval_op : int array;  (** index into [ops] of each interval's operator *)
  runs : run array;  (** the runs of one operator, in grid order *)
  k0 : Mat.t;  (** periodic steady-state covariance at t = 0 *)
  phi_period : Mat.t;  (** monodromy Phi(T, 0) *)
  q_period : Mat.t;  (** accumulated process noise over one period *)
  peak_rank : int;  (** rank of the covariance: always [nstates] *)
}

val ks_bytes : sampled -> int
(** Bytes of stored [K(t_i)] matrices: 0, since the trace is never
    formed.  Kept so bench records stay comparable. *)

val held_bytes : sampled -> int
(** Bytes of every matrix the record holds: the distinct operators, the
    distinct run maps, [k0], [phi_period] and [q_period]. *)

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

val steps :
  ?samples_per_phase:int -> ?grid:grid_kind -> Pwl.t -> (int * float) array
(** The (phase, step) pairs {!discretized_grid} discretises, one per
    distinct key, in the order of its [g_ops]: operator [i] is
    [Vanloan.discretize] of phase [fst steps.(i)] over [snd steps.(i)].
    For benchmarks and tests that take the grid's exponentials one by
    one. *)

val sample :
  ?samples_per_phase:int -> ?grid:grid_kind -> ?pool:Scnoise_par.Pool.t ->
  Pwl.t -> sampled
(** The periodic covariance over one period: the steady state [k0], the
    per-interval operators and run maps its trace unrolls over, and the
    monodromy, taken as one product per run.  Raises
    {!Scnoise_linalg.Lyapunov.Not_stable} on an unstable circuit, which
    has no steady state. *)

type variance = {
  trace : float array;  (** [cᵀ K(t_i) c] on the grid *)
  boundary : float;  (** [cᵀ K(0) c] *)
  average : float;  (** time average of [trace] over one period *)
  closure_error : float;
      (** [max_abs (K(T) - K(0))] — a periodicity self-check (small for
          a converged steady state) *)
}

type output_trace = {
  forcing : Vec.t array;  (** [k_i = K(t_i) c] at every grid point *)
  rows : Vec.t array;  (** [r_i = Phi(t_i, 0)ᵀ c] at every grid point *)
  variance : variance;
}

val output_trace : sampled -> Vec.t -> output_trace
(** [output_trace s c] is everything the PSD engine reads of the
    covariance for output row [c], from one pass over the runs (span
    [covariance.unroll]).  In a mapped run of [m] intervals of one
    operator [(Phi, Qd)] from grid point [s], with
    [w_l = (Phiᵀ)^l c], the forcing
    [k_{s+l} = Phi^l (K_s w_l) + sum_{j<l} Phi^j (Qd w_j)] is taken in
    Horner form, [z <- K_s w_l] then [z <- Phi z + Qd w_j] for
    [j = l-1 .. 0], every chain of the run a row of one block advanced
    by one row-prefix product with [Phiᵀ] per step: [m(m-1)/2]
    matrix-vector columns (counter [covariance_chain_columns]) and no
    power of [Phi].  The rows are [r_{s+l} = Phi(t_s, 0)ᵀ w_l].  [K]
    and [Phi(t, 0)] are formed only at run ends, through the run's map,
    and short runs step both interval by interval: three [n×n]
    products per step (counter [covariance_products]).  The pass owns
    a fixed set of eight [n×n] buffers, whatever the grid size, and
    its last transition is bitwise [s.phi_period].  [s.k0] and every
    operator's [Qd] must be symmetric, as {!sample} makes them.  Raises
    [Invalid_argument] if [c] has the wrong length. *)

val variance : sampled -> Vec.t -> variance
(** The output variance of row [c]: [(output_trace s c).variance]. *)
