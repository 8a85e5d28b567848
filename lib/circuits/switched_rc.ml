module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl

type params = {
  r : float;
  c : float;
  period : float;
  duty : float;
  temperature : float;
}

let default =
  { r = 1e3; c = 1e-9; period = 5e-6; duty = 0.5; temperature = 300.0 }

let with_ratio ?(duty = 0.5) ?(r = 1e3) ?(c = 1e-9) ~t_over_rc () =
  { default with r; c; duty; period = t_over_rc *. r *. c }

type built = {
  sys : Pwl.t;
  output : Scnoise_linalg.Vec.t;
  params : params;
  netlist : Netlist.t;
  clock : Clock.t;
  output_node : string;
}

let output_name = "vout"

let build params =
  if params.duty <= 0.0 || params.duty >= 1.0 then
    invalid_arg "Switched_rc.build: need 0 < duty < 1";
  let nl = Netlist.create () in
  let vout = Netlist.node nl output_name in
  Netlist.switch ~name:"S1" ~closed_in:[ 0 ] nl vout Netlist.ground params.r;
  Netlist.capacitor ~name:"C1" nl vout Netlist.ground params.c;
  let clock = Clock.duty ~period:params.period ~duty:params.duty in
  let sys = Compile.compile ~temperature:params.temperature nl clock in
  let output = Pwl.observable sys output_name in
  { sys; output; params; netlist = nl; clock; output_node = output_name }
