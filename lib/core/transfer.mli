(** Linear periodically time-varying (LPTV) transfer functions of a
    compiled switched circuit, by the same periodic-shooting machinery as
    the noise engine.

    For a complex exponential input [u(t) = e^{jwt}] on one input (or an
    arbitrary per-phase forcing column), the steady-state output is

    [y(t) = e^{jwt} sum_k H_k(w) e^{j k wc t}]

    — a frequency comb at offsets of the clock rate [wc].  [H_0] is the
    average (baseband) transfer function; the [H_k] quantify the
    frequency translation (aliasing) paths.  Each evaluation costs one
    periodic boundary-value solve. *)

module Vec = Scnoise_linalg.Vec
module Cx = Scnoise_linalg.Cx
module Pwl = Scnoise_circuit.Pwl

type engine

val of_psd : Psd.engine -> engine
(** The transfer view of a prepared noise engine: it solves on the
    engine's periodic-BVP solver (grid, rows [cᵀ Phi(t_i, 0)],
    monodromy and output row), so one preparation serves the PSD and every transfer
    function of a circuit. *)

val prepare :
  ?samples_per_phase:int -> ?grid:Covariance.grid_kind -> Pwl.t ->
  output:Vec.t -> engine
(** [of_psd (Psd.prepare ...)]; [output] extracts the observed
    combination of states. *)

val n_inputs : engine -> int
(** Number of deterministic inputs of the circuit (voltage sources then
    current sources, in netlist order). *)

val response :
  engine -> forcing:(int -> Scnoise_linalg.Cvec.t) -> f:float ->
  k_range:int -> Cx.t array
(** [response e ~forcing ~f ~k_range] drives the state equation with
    [forcing p] (the per-phase forcing column, e.g. a column of [E_p] or
    [B_p]) modulated by [e^{j 2 pi f t}], and returns the output
    harmonics [H_(-k_range) .. H_(k_range)] (array index [k + k_range]). *)

val harmonics : engine -> input:int -> f:float -> k_range:int -> Cx.t array
(** {!response} with the forcing taken as column [input] of each phase's
    input matrix, [E_p + jw Edot_p] (the derivative term accounts for
    capacitive coupling from the source). *)

val gain : engine -> input:int -> f:float -> Cx.t
(** The baseband transfer function [H_0(f)]. *)
