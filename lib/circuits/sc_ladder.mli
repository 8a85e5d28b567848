(** Periodically switched RC ladder with a configurable number of
    stages — the scaling workload.

    [stages] capacitor nodes are chained through noisy resistors; the
    chain connects to ground through a switch that conducts during
    phase 0.  Optionally each stage node carries a parasitic branch
    ([r_par] into [c_par] to ground), doubling the state count — the
    hundred-state configurations that size the covariance engine are
    ladders with parasitics.  Without parasitics the state
    count equals [stages]; with them it is [2 * stages].  The papers
    note the N(N+1)/2 covariance unknowns as the method's practical
    size limit, which this family is built to probe. *)

type params = {
  stages : int;  (** number of capacitor nodes, >= 1 *)
  r : float;  (** series resistance per stage *)
  c : float;  (** capacitance per node *)
  r_switch : float;
  c_par : float;  (** per-node parasitic capacitance; 0 disables *)
  r_par : float;  (** resistance feeding each parasitic cap *)
  clock_hz : float;
  duty : float;
  temperature : float;
}

val default : params
(** 4 stages, 1 kohm / 100 pF, 1 kohm switch, no parasitics, 100 kHz
    clock, 50% duty. *)

val with_stages : int -> params

val with_parasitics :
  ?c_par_ratio:float -> ?r_par_ratio:float -> params -> params
(** Attach a parasitic branch to every stage node: [c_par] is
    [c_par_ratio] (default 0.1) times [c], [r_par] is [r_par_ratio]
    (default 10) times [r]. *)

val nstates : params -> int
(** State count [build] will produce: [stages], or [2 * stages] with
    parasitics enabled. *)

type built = {
  sys : Scnoise_circuit.Pwl.t;
  output : Scnoise_linalg.Vec.t;  (** last-node voltage *)
  params : params;
  netlist : Scnoise_circuit.Netlist.t;  (** pre-compilation element graph *)
  clock : Scnoise_circuit.Clock.t;
  output_node : string;  (** name of the output node in [netlist] *)
}

val build : params -> built

val output_name : string
(** Name of the output (last) node. *)
