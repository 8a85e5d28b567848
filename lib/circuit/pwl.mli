(** Compiled piecewise-LTI representation of a periodically switched
    linear circuit.

    Within clock phase [p] the noise perturbation obeys
    [dx = A_p x dt + B_p dW] and the large signal obeys
    [dx/dt = A_p x + E_p u(t) + Edot_p du/dt]; the state vector is
    continuous across phase boundaries (switches are resistive). *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec

type phase = {
  tau : float;  (** phase duration, s *)
  a : Mat.t;  (** state matrix (n x n) *)
  b : Mat.t;  (** noise intensity matrix (n x m_p) *)
  q : Mat.t;  (** [b bᵀ], cached *)
  e : Mat.t;  (** deterministic input matrix (n x n_inputs) *)
  e_dot : Mat.t;  (** input-derivative matrix (n x n_inputs) *)
  noise_labels : string array;  (** one per column of [b] *)
}

type input = {
  label : string;
  waveform : float -> float;
}

type t = {
  period : float;
  phases : phase array;
  nstates : int;
  state_names : string array;
  inputs : input array;
  observables : (string * Vec.t) list;
      (** node name -> row extracting that node voltage from the state *)
}

val n_phases : t -> int

val phase_at : t -> float -> int * float
(** Phase index and offset for an absolute time (reduced mod period). *)

val observable : t -> string -> Vec.t
(** Row extracting the named node's voltage from the state vector.
    Raises [Not_found] for unknown or non-observable (purely resistive or
    source-driven) nodes. *)

val state_index : t -> string -> int
(** Index of a named state.  Raises [Not_found]. *)

val forcing : t -> int -> float -> Vec.t
(** [forcing t p time] is [E_p u(time) + Edot_p du/dt] — the
    deterministic forcing of phase [p] at absolute time [time]. *)

val monodromy : t -> Mat.t
(** State-transition matrix over one full period starting at phase 0
    (computed by per-phase matrix exponentials). *)

val floquet_radius : t -> float
(** The largest Floquet multiplier modulus (spectral radius of the
    monodromy), or [infinity] when the eigenvalue iteration does not
    converge ({!Scnoise_linalg.Eig.No_convergence}): stability not
    shown. *)

val is_stable : ?margin:float -> t -> bool
(** All Floquet multipliers (eigenvalues of the monodromy) strictly
    inside the unit disc (by more than [margin], default 0):
    [floquet_radius t < 1 - margin].  False when stability is not
    shown. *)

val floquet_multipliers : t -> Scnoise_linalg.Cx.t array

val validate : t -> unit
(** Internal consistency checks (dimensions, durations); raises
    [Invalid_argument] on violation.  Compiled systems always pass. *)
