(** The periodically switched RC circuit (Fig. 2 of the source papers).

    A noisy resistor [r] in series with an ideal switch charges a
    capacitor [c] to ground; the switch conducts during clock phase 0
    ([duty] fraction of the period).  The classic Rice problem — used
    throughout this library as the end-to-end validation circuit because
    {!Scnoise_analytic.Switched_rc} gives its PSD in closed form. *)

type params = {
  r : float;  (** switch on-resistance, ohms *)
  c : float;  (** capacitance, farads *)
  period : float;  (** clock period, s *)
  duty : float;  (** conduction fraction, 0 < duty < 1 *)
  temperature : float;  (** kelvin *)
}

val default : params
(** 1 kohm, 1 nF, T/RC = 5, duty 0.5, 300 K. *)

val with_ratio : ?duty:float -> ?r:float -> ?c:float -> t_over_rc:float ->
  unit -> params
(** Parameters chosen so that [period / (r c) = t_over_rc] — the knob the
    source paper sweeps in its Fig. 3. *)

type built = {
  sys : Scnoise_circuit.Pwl.t;
  output : Scnoise_linalg.Vec.t;  (** capacitor-voltage output row *)
  params : params;
  netlist : Scnoise_circuit.Netlist.t;  (** pre-compilation element graph *)
  clock : Scnoise_circuit.Clock.t;
  output_node : string;  (** name of the output node in [netlist] *)
}

val build : params -> built
(** Compile the circuit. *)

val output_name : string
(** Name of the output node ("vout"). *)
