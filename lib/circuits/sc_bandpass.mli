(** Switched-capacitor band-pass biquad (two-integrator loop) at the
    operating point of the Toth-Suyama measurement reproduced in the
    source paper: 128 kHz clock, 80-ohm switches, op-amps with
    20 nV/sqrt(Hz) input-referred white noise and (effectively) infinite
    unity-gain frequency.

    The original schematic is not in the available text, so the topology
    is a standard parasitic-insensitive two-integrator-loop resonator
    (documented substitution): an inverting damped integrator [vo1] and a
    non-inverting lossless integrator [vo2] closed through an inverting
    feedback branch.  Centre frequency and Q follow the usual SC design
    equations [w0 T ~ sqrt(cc^2 / (ci^2))], [Q ~ sqrt(cc cf) / cd]; the
    band-pass output is [vo1]. *)

type params = {
  ci1 : float;  (** integrating cap of op-amp 1 *)
  ci2 : float;  (** integrating cap of op-amp 2 *)
  cin : float;  (** input coupling cap (into op-amp 1) *)
  cc12 : float;  (** coupling op-amp 1 -> op-amp 2 (non-inverting) *)
  cc21 : float;  (** feedback op-amp 2 -> op-amp 1 (inverting) *)
  cd : float;  (** damping cap on op-amp 1 *)
  r_switch : float;
  clock_hz : float;
  ugf : float;  (** op-amp unity-gain frequency, rad/s *)
  opamp_noise_psd : float;  (** double-sided input-referred PSD, V^2/Hz *)
  c_par : float;  (** plate parasitic capacitance at toggled nodes *)
  temperature : float;
}

val default : params
(** 128 kHz clock; centre frequency ~8 kHz, Q ~2; 100 pF integrating
    caps; 80-ohm switches; 20 nV/sqrt(Hz) op-amps (double-sided
    2e-16 V^2/Hz) with a large [ugf] standing in for the paper's
    infinite-bandwidth op-amps. *)

val coefficients :
  ?ci:float -> ?r_switch:float -> ?ugf:float -> ?opamp_noise_psd:float ->
  clock_hz:float -> f0:float -> q:float -> unit -> params
(** The design equations of {!design} without its stability check:
    [cin = cc12 = cc21 = k ci], [cd = k ci / q], [k = 2 pi f0 / clock_hz]. *)

val design :
  ?ci:float -> ?r_switch:float -> ?ugf:float -> ?opamp_noise_psd:float ->
  clock_hz:float -> f0:float -> q:float -> unit -> params
(** Choose coupling/damping caps for a requested centre frequency and
    quality factor.  The single-delay loop timing of this topology adds
    excess phase that grows with [f0] and [q], so [design] builds the
    circuit and raises [Invalid_argument] unless its Floquet radius is
    below 1 (at a 128 kHz clock: [f0] up to 10 kHz at [q = 2], 8 kHz at
    [q = 2.5]).  The design equations are first-order in [w0 T], and the
    effective noise-resonance width is set by the Floquet radius rather
    than the nominal [q]. *)

type built = {
  sys : Scnoise_circuit.Pwl.t;
  output : Scnoise_linalg.Vec.t;  (** band-pass output (op-amp 1) *)
  params : params;
  netlist : Scnoise_circuit.Netlist.t;  (** pre-compilation element graph *)
  clock : Scnoise_circuit.Clock.t;
  output_node : string;  (** name of the output node in [netlist] *)
}

val build : params -> built

val output_name : string
