(** Mixed-frequency-time computation of the output noise power spectral
    density of a switched linear circuit — the core algorithm of this
    library.

    The cross-spectral density [K'(t) = E{x_n(t) X(t,w)*}] obeys
    [dK'/dt = A(t) K' + K(t) c e^{jwt}] and its steady state is
    quasi-periodic with the clock rate and the analysis frequency.
    Writing [K'(t) = e^{jwt} P(t)] with [P] clock-periodic reduces the
    computation to one periodic boundary-value problem per frequency:

    - [dP/dt = (A(t) - jw I) P + K(t) c] over a single clock period,
    - [P(0) = (I - e^{-jwT} Phi)^{-1} P_part(T)] with the real monodromy
      [Phi] shared by all frequencies,
    - [S(w) = (2/T) Int_0^T Re (cᵀ P(t)) dt].

    The expected energy-spectral-density accumulator of the underlying
    formulation grows at exactly this rate in steady state, so the value
    agrees with the brute-force time-domain engine in the noise library
    (within discretisation error) while costing one clock period of
    integration per frequency instead of tens or hundreds.

    The PSD reads only the output samples [cᵀ P(t_i)], so that is all a
    solve returns ({!Periodic_bvp.solve}): a prepared engine keeps the
    forcing [K(t_i) c] and one real row [cᵀ Phi(t_i, 0)] per grid point,
    never a per-state trajectory.  {!of_sampled} takes all of them from
    one run-wise pass over the covariance ({!Covariance.output_trace},
    the [covariance.unroll] span), which also yields the output
    variance that the engine records; no [K(t_i)] and no
    [Phi(t_i, 0)] is formed. *)

module Vec = Scnoise_linalg.Vec
module Pwl = Scnoise_circuit.Pwl

type engine

val of_sampled : Covariance.sampled -> output:Vec.t -> engine
(** Build an engine from an already-sampled periodic covariance (allows
    sharing the covariance across several outputs), taking the forcing,
    the variance and the solver's rows for the output row from one
    {!Covariance.output_trace}. *)

val prepare :
  ?samples_per_phase:int -> ?grid:Covariance.grid_kind ->
  ?pool:Scnoise_par.Pool.t -> Pwl.t -> output:Vec.t -> engine
(** One-stop preparation: periodic covariance + grids + monodromy. *)

val output : engine -> Vec.t

val covariance : engine -> Covariance.sampled

val bvp : engine -> Periodic_bvp.t
(** The prepared periodic-BVP solver for the engine's output row; it
    serves any other forcing too ({!Transfer.of_psd}). *)

val psd : engine -> f:float -> float
(** Double-sided output PSD (V^2/Hz) at frequency [f] (Hz).  [f] may be
    0 or negative (the PSD is even in [f]). *)

val psd_db : engine -> f:float -> float
(** [10 log10 (psd)] as plotted in the papers. *)

val sweep : ?pool:Scnoise_par.Pool.t -> engine -> float array -> float array
(** Frequency sweep in blocks: the [n] frequencies are tiled into
    ⌈n/16⌉ near-equal blocks, each advanced in lockstep through the
    phase grid by one {!Periodic_bvp.solve}, and the blocks are
    fanned out across [pool] (default: the shared pool).  Every block
    column is bitwise identical to a width-1 solve at its frequency,
    solves are read-only over the prepared engine, and results are
    placed by index, so the sweep is bit-identical to [Array.map psd]
    at any job count.  An empty sweep returns [[||]] without touching
    the pool; a single-point sweep never allocates a panel. *)

val sweep_db :
  ?pool:Scnoise_par.Pool.t -> engine -> float array -> float array

val batch_width : engine -> npoints:int -> int
(** The widest block {!sweep} uses for a sweep of [npoints]:
    [⌈npoints / ⌈npoints / 16⌉⌉], so at most 16, the width that measures
    within noise of the fastest at every circuit size (EXP-S3), and 1
    for a single point.  The same on every engine.  Exposed for status
    reporting and benchmarks. *)

val instantaneous : engine -> f:float -> float array * float array
(** [(times, s)] — the instantaneous power spectral density
    [S_v(t, f) = 2 Re (cᵀ P(t))] over one clock period in steady state
    (the time-varying spectrum of the underlying non-stationary
    formulation); its period average is {!psd}. *)

val variance : engine -> Covariance.variance
(** The output variance recorded when the engine was built: bitwise
    {!Covariance.variance} of the engine's covariance and output row,
    without unrolling the trace again. *)

val average_variance : engine -> float
(** Time-averaged output variance: [(variance e).average]. *)

val integrated_noise :
  ?points:int -> ?pool:Scnoise_par.Pool.t -> engine ->
  fmin:float -> fmax:float -> float
(** Output noise power (V^2) in the band [[fmin, fmax]] (plus the
    mirrored negative band — the PSD is double-sided), by trapezoidal
    quadrature over [points] frequencies. *)
