(** Shared periodic boundary-value solver of the mixed-frequency-time
    method.

    Solves, over one clock period and for an arbitrary periodic forcing,

    [dP/dt = (A(t) - j w I) P + k(t),   P(0) = P(T)]

    by one forced trapezoidal transient (particular solution), a complex
    boundary solve against the frequency-rotated real monodromy
    [(I - e^{-jwT} Phi) P(0) = P_part(T)], and superposition.  The PSD
    engine uses it with [k = K(t) c]; the LPTV transfer-function engine
    with deterministic input columns.

    One solve serves every caller.  It takes a block of [width]
    frequencies that advance in lockstep through the shared phase grid
    as {!Cvec.panel} steps; a width-1 panel is exactly a {!Cvec.t}
    buffer, and at that width the solve calls the single-RHS kernels.
    The transient is demodulated: one *real* LU per distinct (phase, h)
    is factored when the solver is prepared and reused at every
    frequency, each step refined to the exact shifted-trapezoid update.
    A (stepper, frequency) pair whose refinement would not converge fast
    enough steps that column through its own complex-LU stepper
    instead, retuned once per frequency.  An interval whose stepper
    refines at every frequency of the block takes one panel step; on
    the others each column steps alone, so the panel kernel never
    solves a fallback column.  Column [b] of every result is bitwise
    identical to a width-1 solve at [omegas.(b)]. *)

module Cvec = Scnoise_linalg.Cvec

type t
(** Prepared solver: grids, phase matrices, transition matrices and
    frequency-independent stepper factorisations are shared across
    frequencies and forcings (the per-domain solve workspace is
    domain-local, so a prepared solver may be used from a pool). *)

val of_sampled : Covariance.sampled -> t
(** Build from a sampled periodic covariance (which already carries the
    grid and the transition matrices). *)

val times : t -> float array
(** The grid over one period ([0 .. T]). *)

val n_points : t -> int

val n_states : t -> int

val interval_phase : t -> int array
(** Phase index owning each grid interval. *)

val alloc_traj : t -> width:int -> Cvec.panel array
(** Fresh zero trajectory for {!solve}: [n_points] distinct panels sized
    [(n_states, width)].  At width 1 each panel is a {!Cvec.t} buffer
    ({!Cvec.of_data} adopts it without copying). *)

val solve :
  t -> omegas:float array -> kl:(int -> Cvec.t) -> kr:(int -> Cvec.t) ->
  Cvec.panel array -> unit
(** [solve t ~omegas ~kl ~kr traj] writes the periodic steady state
    [P_b(t_i)] at every frequency [omegas.(b)] into column [b] of
    [traj.(i)].  [kl i] and [kr i] are the forcing at the left and right
    endpoints of interval [i] (for [i] in [0 .. n_points - 2]), shared by
    every column; a continuous forcing passes [kr i = kl (i + 1)], a
    forcing that switches with the clock evaluates both inside the
    interval's phase.  Beyond [traj] the solve allocates only transient
    bookkeeping once the domain's workspace is warm.  Raises
    [Invalid_argument] on an empty block or a trajectory of the wrong
    shape, and [Clu.Singular] only if the circuit has a Floquet
    multiplier of unit modulus. *)

val solve_reference :
  t -> omegas:float array -> kl:(int -> Cvec.t) -> kr:(int -> Cvec.t) ->
  Cvec.panel array -> unit
(** {!solve} with every interval on the complex-LU stepper, which factors
    the complex LHS per (phase, h) at each frequency — the reference the
    demodulated solve is tested against (agreement well below
    1e-9 dB). *)

val fallback_columns : t -> omegas:float array -> int
(** How many of [omegas] have some (phase, h) stepper that {!solve}
    steps on the complex-LU fallback. *)
