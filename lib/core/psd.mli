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
    integration per frequency instead of tens or hundreds. *)

module Vec = Scnoise_linalg.Vec
module Cvec = Scnoise_linalg.Cvec
module Pwl = Scnoise_circuit.Pwl

type engine

val of_sampled : Covariance.sampled -> output:Vec.t -> engine
(** Build an engine from an already-sampled periodic covariance (allows
    sharing the covariance across several outputs). *)

val prepare :
  ?solver:Covariance.solver -> ?samples_per_phase:int ->
  ?grid:Covariance.grid_kind -> ?pool:Scnoise_par.Pool.t -> Pwl.t ->
  output:Vec.t -> engine
(** One-stop preparation: periodic covariance + grids + monodromy. *)

val output : engine -> Vec.t

val covariance : engine -> Covariance.sampled

val psd : engine -> f:float -> float
(** Double-sided output PSD (V^2/Hz) at frequency [f] (Hz).  [f] may be
    0 or negative (the PSD is even in [f]). *)

val psd_db : engine -> f:float -> float
(** [10 log10 (psd)] as plotted in the papers. *)

val sweep :
  ?pool:Scnoise_par.Pool.t -> ?batch:int -> engine -> float array ->
  float array
(** Frequency sweep, batched by default: frequencies are tiled into
    width-[batch] blocks, each advanced in lockstep through the phase
    grid by one {!Periodic_bvp.solve}, and the blocks are fanned out
    across [pool] (default: the shared pool).  Every block column is
    bitwise identical to a width-1 solve at its frequency — a column
    whose refinement would not converge on some stepper takes that
    stepper's complex-LU fallback on its own, inside the block — solves
    are read-only over the prepared engine, and results are placed by
    index, so the sweep is bit-identical to serial and to [batch:1] at
    any job count.

    [batch] resolves as: explicit argument, else {!set_default_batch},
    else an auto width from the state count; the result is clamped to the sweep length.
    Raises [Invalid_argument] on [batch < 1].  An empty sweep returns
    [[||]] without touching the pool; a single-point sweep never
    allocates a panel. *)

val sweep_db :
  ?pool:Scnoise_par.Pool.t -> ?batch:int -> engine -> float array ->
  float array

val set_default_batch : int -> unit
(** Process-wide default block width for {!sweep} (what [--batch]
    sets).  Raises [Invalid_argument] on values below 1. *)

val configured_batch : unit -> int option
(** The pinned process-wide block width ({!set_default_batch}), or
    [None] when sweeps auto-tune per engine. *)

val batch_width : ?batch:int -> engine -> npoints:int -> int
(** The block width {!sweep} would use for a sweep of [npoints] over
    this engine, after resolution and clamping — exposed for status
    reporting and benchmarks. *)

val envelope : engine -> f:float -> Cvec.t array
(** The periodic envelope [P(t_i)] on the covariance grid — exposed for
    diagnostics and tests. *)

val instantaneous : engine -> f:float -> float array * float array
(** [(times, s)] — the instantaneous power spectral density
    [S_v(t, f) = 2 Re (cᵀ P(t))] over one clock period in steady state
    (the time-varying spectrum of the underlying non-stationary
    formulation); its period average is {!psd}. *)

val average_variance : engine -> float
(** Time-averaged output variance (from the covariance trace). *)

val integrated_noise :
  ?points:int -> ?pool:Scnoise_par.Pool.t -> ?batch:int -> engine ->
  fmin:float -> fmax:float -> float
(** Output noise power (V^2) in the band [[fmin, fmax]] (plus the
    mirrored negative band — the PSD is double-sided), by trapezoidal
    quadrature over [points] frequencies. *)
