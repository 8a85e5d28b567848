(** Shared periodic boundary-value solver of the mixed-frequency-time
    method.

    Solves, over one clock period and for an arbitrary periodic forcing,

    [dP/dt = (A(t) - j w I) P + k(t),   P(0) = P(T)]

    by one forced trapezoidal transient (particular solution), a complex
    boundary solve against the frequency-rotated real monodromy
    [(I - e^{-jwT} Phi) P(0) = P_part(T)], and superposition — and
    returns only the output samples [y(t_i) = cᵀ P(t_i)] for the output
    row [c] the solver was prepared with.  The PSD engine uses it with
    [k = K(t) c]; the LPTV transfer-function engine with deterministic
    input columns.

    The particular pass alternates between two state panels and reduces
    each grid point to [cᵀ P_part(t_i)] as it goes; the homogeneous term
    is [e^{-jwt_i} (r_i · P(0))] with the real rows
    [r_i = cᵀ Phi(t_i, 0)] given at preparation, so no per-state
    trajectory and no transition matrix is ever stored.  For a unit output row — every
    observable a compiled circuit produces — the samples round exactly
    like [cᵀ] applied to the full superposed state.

    One solve serves every caller.  It takes a block of [width]
    frequencies that advance in lockstep through the shared phase grid
    as {!Cvec.panel} steps (a width-1 panel is exactly a {!Cvec.t}
    buffer).  The transient runs in real Schur form: each phase matrix
    is reduced once, [A_p = Z_p T_p Z_pᵀ], so the shifted trapezoid LHS
    [I - h/2 (T_p - jwI)] is complex quasi-upper-triangular and every
    step is a back-substitution with the real [T_p] at any frequency;
    a run of equal steps only inverts [T_p]'s diagonal blocks, O(n) per
    column, and nothing is factored.  The forcing is rotated into the
    phase bases once ({!forcing}); a state entering a new phase crosses
    through the precomputed [Z_qᵀ Z_p], and the output rows are
    [cᵀ Z_p].  The closure is solved in the monodromy's Schur basis
    [Phi = V T_Phi Vᵀ], again a back-substitution per frequency, and
    its phase factors [e^{-jwt_i}] are exact at each run start and
    advanced by one complex multiply inside a run ({!phase_factors}).
    Column [b] of every result is bitwise identical to a width-1 solve
    at [omegas.(b)]. *)

module Cvec = Scnoise_linalg.Cvec

type t
(** Prepared solver: grids, the real Schur forms of the phase matrices
    and of the monodromy with their bases, and the output rows
    [cᵀ Phi(t_i, 0)] are shared across frequencies and forcings (the
    per-domain solve workspace is domain-local, so a prepared solver may
    be used from a pool). *)

exception Reduction_failed of string
(** Raised by {!of_sampled} when the QR iteration of the real Schur
    reduction ({!Scnoise_linalg.Eig.schur}) of a phase matrix or of the
    monodromy does not converge; the message names which. *)

val of_sampled :
  Covariance.sampled -> output:Scnoise_linalg.Vec.t ->
  rows:Scnoise_linalg.Vec.t array -> t
(** Build from a sampled periodic covariance (its grid and monodromy)
    for the output row [output], given the rows
    [rows.(i) = Phi(t_i, 0)ᵀ output] at every grid point, as
    {!Covariance.output_trace} yields them.  Raises [Invalid_argument]
    if the row's length is not the state count or [rows] does not
    match the grid, and {!Reduction_failed} if a Schur reduction does
    not converge. *)

val times : t -> float array
(** The grid over one period ([0 .. T]). *)

val n_points : t -> int

val n_runs : t -> int
(** Runs of consecutive intervals sharing a phase and a step: a solve
    sets up each run's stepper once per column, O(n). *)

val phase_factors : t -> omega:float -> Cvec.t
(** The factors [e^{-j omega t_i}] the closure applies to the
    homogeneous term at every grid point, formed as a solve forms them:
    exactly at the start of each run of equal steps, then by repeated
    multiplication with the run's [e^{-j omega h}]. *)

type forcing = private Cvec.t array
(** A forcing prepared for one solver: per grid interval, the trapezoid
    term [h/2 (k0 + k1)] in the interval's phase basis.  Readable, so
    that tests can hold it to a reference; only {!forcing} makes one. *)

val forcing : t -> kl:(int -> Cvec.t) -> kr:(int -> Cvec.t) -> forcing
(** [kl i] and [kr i] are the forcing at the left and right endpoints
    of interval [i] (for [i] in [0 .. n_points - 2]); a continuous
    forcing passes [kr i = kl (i + 1)], a forcing that switches with
    the clock evaluates both inside the interval's phase.  Raises
    [Invalid_argument] on a vector of the wrong dimension. *)

val solve : t -> omegas:float array -> forcing:forcing -> Cvec.panel -> unit
(** [solve t ~omegas ~forcing y] writes the periodic steady-state output
    [y_b(t_i) = cᵀ P_b(t_i)] at every frequency [omegas.(b)] into entry
    [(i, b)] of [y], a panel of [n_points] entries by [width] columns
    ({!Cvec.panel_create}[ ~dim:(n_points t) ~width]), for a forcing
    shared by every column.  Beyond [y] the solve allocates only
    transient bookkeeping once the domain's workspace is warm.  Raises
    [Invalid_argument] on an empty block, an output buffer of the wrong
    size or a forcing prepared for another grid, and [Lu.Singular]
    only if the circuit has a Floquet multiplier of unit modulus. *)
