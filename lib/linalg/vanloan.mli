(** Van Loan (1978) discretisation of an LTI stochastic system, and the
    affine covariance maps it yields.

    Given [dx = A x dt + B dW] with constant [A], [B] over an interval of
    length [tau], computes exactly (to rounding):

    - the state transition matrix [Phi = e^{A tau}], and
    - the accumulated process-noise covariance
      [Qd = ∫_0^tau e^{A s} B Bᵀ e^{Aᵀ s} ds],

    via the matrix exponential of the augmented block matrix
    [M = [[-A, B Bᵀ; 0, Aᵀ] tau] = [[F11, F12]; [0, F22]]], with
    [Phi = F22ᵀ] and [Qd] the symmetric part of [Phi F12].  The exponential is taken on M's
    three n×n blocks ({!Btri}) and forms only F12 and F22: the Padé
    powers, U, V and the squarings as blocks (the zero block never
    formed), the solve on the right block column only, the last
    squaring on that column only.  Every entry keeps the float
    operations, in their order, of {!Expm.expm} on the assembled 2n
    matrix (the identity's [0.0] terms and the scaling exponent from the
    2n row sums included), so for finite operands [Phi] and [Qd] are
    that composition's bit for bit; the test-side [Oracle.vanloan]
    keeps it as the reference.  One exponential advances [expm_calls]
    and [lu_factorizations] by one each, as {!Expm.expm} does.  Its
    work buffers (26 n² floats) are held per domain and reused by the
    next exponential of the same [n]; a caller that has taken a batch
    drops them with {!release_buffers}.

    The covariance propagates across the interval as
    [K(tau) = Phi K(0) Phiᵀ + Qd].  One binary powering of that affine
    map ({!repeat}) serves stiff intervals, runs of grid intervals and,
    in {!Lyapunov}, the map's fixed point. *)

type t = { phi : Mat.t; qd : Mat.t }

val discretize : a:Mat.t -> q:Mat.t -> tau:float -> t
(** [discretize ~a ~q ~tau] with [q = B Bᵀ] (PSD intensity matrix).
    [tau >= 0] required; [tau = 0] gives [phi = I], [qd = 0].

    Stiff phases: when [norm(a) * tau] exceeds {!stiff_threshold} the
    augmented exponential would overflow through its [e^{-A tau}] block,
    so it is taken at [tau / c], [c = ceil (norm(a) tau / stiff_threshold)],
    and {!repeat} composes [c] of it.  This holds for any [a], singular
    or lossless included. *)

val release_buffers : unit -> unit
(** Drops the calling domain's work buffers of {!discretize}, which
    are otherwise kept for the next exponential: a covariance grid
    calls it once its exponentials are taken, so that the buffers are
    not live data through the rest of a request.  Outputs do not depend
    on it. *)

val stiff_threshold : float
(** The [norm(a) * tau] value above which {!discretize} composes
    sub-steps instead of taking one augmented exponential (20). *)

val discretize_b : a:Mat.t -> b:Mat.t -> tau:float -> t
(** Convenience wrapper forming [q = b bᵀ] first. *)

val propagate : t -> Mat.t -> Mat.t
(** [propagate d k] is [phi k phiᵀ + qd], symmetrised: {!propagate_into}
    on freshly allocated matrices. *)

val propagate_into :
  t -> phi_t:Mat.t -> work:Mat.t -> work':Mat.t -> Mat.t -> out:Mat.t -> unit
(** [propagate_into d ~phi_t ~work ~work' k ~out] writes
    [propagate d k] into [out], bit for bit — the same products in the
    same order — given [phi_t = Mat.transpose d.phi] and two [n×n] work
    matrices, and allocates no matrix.  A caller stepping many
    intervals keeps its buffers and transposes each operator once.
    Raises [Invalid_argument] on mismatched dimensions or when [out],
    [work] and [work'] share storage with each other, [k], [phi_t],
    [d.phi] or [d.qd] where a read would see a write. *)

type buffers
(** Work buffers for stepping [n×n] maps: a transpose and the two work
    matrices of {!propagate_into}. *)

val buffers : int -> buffers
(** [buffers n] allocates them for [n×n] maps. *)

val step : buffers -> t -> Mat.t -> out:Mat.t -> unit
(** [step bufs d k ~out] writes [propagate d k] into [out], bit for
    bit, transposing [d.phi] into [bufs]: a chain of steps through one
    set of buffers allocates nothing.  Raises [Invalid_argument] as
    {!propagate_into} does, or when [bufs] is for another size. *)

val repeat : t -> int -> t
(** [repeat d len] is [len] consecutive applications of the affine map
    [K ↦ phi K phiᵀ + qd], composed by binary powering in [O(log len)]
    compositions [{phi = b.phi a.phi; qd = propagate b a.qd}], each
    written into buffers the call owns; [len = 0] gives the identity
    map and [len = 1] returns [d] itself. *)
