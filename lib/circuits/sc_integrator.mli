(** Parasitic-insensitive switched-capacitor integrator with an optional
    SC damping branch (a lossy integrator).

    Input branch (parasitic-insensitive, inverting): [Cs] between nodes
    [na] and [nb]; phase 1 connects [(na, nb)] to [(vin, ground)], phase
    2 to [(ground, vg)].  Integrating capacitor [Ci] closes the op-amp
    loop.  The damping branch (toggle cap [Cd], like the low-pass
    filter's) sets the discrete-time pole at [1 - Cd/Ci]; with
    [cd = 0.0] the integrator is lossless and the periodic noise steady
    state does not exist (the compiler will still build it, but the
    Lyapunov solve rejects it) — tests exercise that failure mode. *)

type params = {
  cs : float;  (** sampling capacitor *)
  ci : float;  (** integrating capacitor *)
  cd : float;  (** damping capacitor; 0 disables the branch *)
  r_switch : float;  (** all switch on-resistances *)
  clock_hz : float;
  ugf : float;  (** op-amp unity-gain frequency, rad/s *)
  opamp_noise_psd : float;
  c_par : float;  (** plate parasitic capacitance at the toggled nodes *)
  temperature : float;
}

val default : params
(** 1 pF / 10 pF / 1 pF, 1 kohm switches, 100 kHz clock, 2 pi 10 MHz
    op-amp, noiseless op-amp. *)

type built = {
  sys : Scnoise_circuit.Pwl.t;
  output : Scnoise_linalg.Vec.t;
  params : params;
  netlist : Scnoise_circuit.Netlist.t;  (** pre-compilation element graph *)
  clock : Scnoise_circuit.Clock.t;
  output_node : string;  (** name of the output node in [netlist] *)
}

val build : params -> built

val dt_pole : params -> float
(** The ideal ("full and fast") discrete-time pole [1 - cd/ci]. *)

val output_name : string
