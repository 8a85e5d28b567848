(** Trapezoidal integration for complex shifted linear systems
    [dP/dt = (A - s I) P + k(t)] with real [A] and complex shift [s].

    This is the equation obeyed by the periodic envelope of the
    cross-spectral density in the mixed-frequency-time method, where
    [s = j w] for analysis frequency [w].

    Two stepper families are provided: the classic {!stepper} factors
    the complex LHS [I - h/2 (A - sI)] per (shift, h), while the
    {!demod} stepper factors only the *real*, frequency-independent
    part [I - h/2 A] once and recovers the exact shifted update by a
    fixed number of refinement iterations — the LU can then be shared
    by every frequency of a sweep. *)

module Cvec = Scnoise_linalg.Cvec
module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx

type stepper

val make : a:Mat.t -> shift:Cx.t -> h:float -> stepper
(** Prepare a stepper for [dP/dt = (A - shift·I) P + k]. *)

val step : stepper -> p:Cvec.t -> k0:Cvec.t -> k1:Cvec.t -> Cvec.t

val step_into :
  stepper -> p:Cvec.t -> k0:Cvec.t -> k1:Cvec.t -> into:Cvec.t -> unit
(** Allocation-free {!step} using the stepper's own scratch; [into]
    may alias [p].  Because of that scratch a single stepper must not
    be shared across domains. *)

val step_homogeneous : stepper -> Cvec.t -> Cvec.t

val trajectory :
  a:Mat.t -> shift:Cx.t -> forcing:(int -> Cvec.t) -> h:float -> steps:int ->
  Cvec.t -> Cvec.t array
(** [trajectory ~a ~shift ~forcing ~h ~steps p0] integrates from sample 0
    to sample [steps] with the forcing given by its grid samples
    ([forcing i] is [k] at [t = i h]); returns all [steps + 1] states. *)

(** {1 Reusable shifted stepper}

    A classic shifted stepper for a block of frequency columns, whose
    buffers and per-column factorisations are reused across
    frequencies: {!retune} refills and refactors a column in place only
    when its shift changes, and column [col] steps bit-identically to a
    stepper freshly built with {!make} at that column's shift.  The
    columns share everything but their factorisation.  Used as the
    allocation-free fallback of the demodulated stepper.  Like
    {!stepper} it carries scratch and must not be shared across
    domains. *)

type reusable

val make_reusable : a:Mat.t -> h:float -> reusable

val rebind : reusable -> a:Mat.t -> h:float -> unit
(** Point the stepper at another [a] (same dimension) and [h], so a
    workspace can recycle its buffers across prepared solvers; every
    column must be retuned before its next step.  A no-op when [a] is
    the bound matrix itself and [h] is unchanged. *)

val retune : reusable -> col:int -> omega:float -> unit
(** Factor column [col]'s LHS for shift [s = j omega] (a no-op when the
    column is already tuned to this [omega]); columns are created on
    first use. *)

val step_reusable_into :
  reusable -> col:int -> p:Cvec.t -> k0:Cvec.t -> k1:Cvec.t -> into:Cvec.t ->
  unit
(** As {!step_into} at column [col]'s shift; raises [Invalid_argument]
    before that column's first {!retune}. *)

(** {1 Demodulated stepper}

    The shifted trapezoid LHS splits as [(I - h/2 A) + j (wh/2) I =
    C + j beta I] with [C] real and frequency-independent.  [C] is
    factored once; each step then solves the exact shifted system by
    the contraction [x <- C^{-1} b - j beta C^{-1} x], which converges
    at rate [rho = |beta| ||C^{-1}||_1] per iteration.  The iteration
    count is a deterministic function of the frequency alone
    ({!demod_iters}), so parallel sweeps stay bit-reproducible. *)

type demod

type demod_work
(** Three n-vectors of scratch for {!step_demod_into}.  Owned by the
    caller (one per domain in pooled sweeps): demod steppers are
    immutable and may be shared freely. *)

val make_demod : a:Mat.t -> h:float -> demod
(** Factor [C = I - h/2 A] (real LU) and compute the exact
    [||C^{-1}||_1] that prices the refinement. *)

val demod_work : int -> demod_work

val demod_dim : demod -> int

val demod_iters : demod -> omega:float -> int
(** Refinement iterations needed at this frequency: [0] at [omega =
    0], a positive count when the contraction reaches 1e-13 within the
    iteration budget, and [-1] when it cannot — the caller should use
    a classic shifted {!stepper} instead. *)

val demod_refinable : demod -> omega:float -> bool
(** Whether {!demod_iters} would be non-negative at this frequency,
    without recording telemetry — the batching predicate of the sweep
    layer, which probes every stepper before committing a block to the
    blocked path. *)

val step_demod_into :
  demod -> work:demod_work -> omega:float -> iters:int -> p:Cvec.t ->
  k0:Cvec.t -> k1:Cvec.t -> into:Cvec.t -> unit
(** One exact shifted-trapezoid step at [omega] using [iters]
    refinement iterations (from {!demod_iters} at the same [omega]).
    [into] may alias [p] but not the scratch vectors. *)

(** {1 Blocked demodulated stepper}

    Advances [width] frequencies' envelopes through the same interval
    with panel solves ({!Cvec.panel} layout): the real factors of [C]
    are traversed once per block instead of once per frequency.  Each
    column is bitwise identical to {!step_demod_into} at its
    frequency; columns whose refinement count is exhausted are masked
    out of later update passes, never recomputed. *)

type block_work
(** Panel scratch for {!step_block_into}, sized for a fixed
    (dimension, width) pair.  Owned by the caller, one per domain. *)

val block_work : dim:int -> width:int -> block_work
(** Raises [Invalid_argument] when [width < 1]. *)

val block_width : block_work -> int

val step_block_into :
  demod -> work:block_work -> omegas:float array -> iters:int array ->
  p:Cvec.panel -> k0:Cvec.t -> k1:Cvec.t -> into:Cvec.panel -> unit
(** One blocked step: column [b] advances the envelope at
    [omegas.(b)] with [iters.(b)] refinement iterations (each from
    {!demod_iters} at that frequency; all must be non-negative — a
    column whose stepper falls back to complex LU at its frequency
    steps on its own, so the caller takes the whole interval column by
    column, as [Periodic_bvp.solve] does).  [omegas] and
    [iters] must have length [block_width work], and the panels must
    be sized for (demod dimension, that width).  [into] must not alias
    [p] or the scratch panels.  The forcing [k0]/[k1] is shared by all
    columns (it is frequency-independent in the MFT formulation). *)
