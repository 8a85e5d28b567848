module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl

type params = {
  cs : float;
  ci : float;
  cd : float;
  r_switch : float;
  clock_hz : float;
  ugf : float;
  opamp_noise_psd : float;
  c_par : float;
  temperature : float;
}

let default =
  {
    cs = 1e-12;
    ci = 10e-12;
    cd = 1e-12;
    r_switch = 1e3;
    clock_hz = 1e5;
    ugf = 2.0 *. Float.pi *. 1e7;
    opamp_noise_psd = 0.0;
    c_par = 50e-15;
    temperature = 300.0;
  }

type built = {
  sys : Pwl.t;
  output : Scnoise_linalg.Vec.t;
  params : params;
  netlist : Netlist.t;
  clock : Clock.t;
  output_node : string;
}

let output_name = "vo"

let dt_pole params = 1.0 -. (params.cd /. params.ci)

let phi1 = [ 0 ]

let phi2 = [ 1 ]

let build params =
  let nl = Netlist.create () in
  let vin = Netlist.node nl "vin" in
  let na = Netlist.node nl "na" in
  let nb = Netlist.node nl "nb" in
  let vg = Netlist.node nl "vg" in
  let vo = Netlist.node nl "vo" in
  Netlist.vsource_dc ~name:"Vin" nl vin 0.0;
  (* parasitic-insensitive inverting input branch *)
  Netlist.switch ~name:"S1" ~closed_in:phi1 nl na vin params.r_switch;
  Netlist.switch ~name:"S2" ~closed_in:phi1 nl nb Netlist.ground params.r_switch;
  Netlist.switch ~name:"S3" ~closed_in:phi2 nl na Netlist.ground params.r_switch;
  Netlist.switch ~name:"S4" ~closed_in:phi2 nl nb vg params.r_switch;
  Netlist.capacitor ~name:"Cs" nl na nb params.cs;
  Netlist.capacitor ~name:"Cpa" nl na Netlist.ground params.c_par;
  Netlist.capacitor ~name:"Cpb" nl nb Netlist.ground params.c_par;
  (* integrator *)
  Netlist.capacitor ~name:"Ci" nl vg vo params.ci;
  Netlist.opamp_integrator ~name:"OA" ~input_noise_psd:params.opamp_noise_psd
    nl ~plus:Netlist.ground ~minus:vg ~out:vo ~ugf:params.ugf;
  (* damping branch *)
  if params.cd > 0.0 then begin
    let ndmp = Netlist.node nl "nd" in
    Netlist.switch ~name:"S5" ~closed_in:phi1 nl ndmp vo params.r_switch;
    Netlist.switch ~name:"S6" ~closed_in:phi2 nl ndmp vg params.r_switch;
    Netlist.capacitor ~name:"Cd" nl ndmp Netlist.ground params.cd
  end;
  let period = 1.0 /. params.clock_hz in
  let clock = Clock.make [ period /. 2.0; period /. 2.0 ] in
  let sys = Compile.compile ~temperature:params.temperature nl clock in
  let output = Pwl.observable sys output_name in
  { sys; output; params; netlist = nl; clock; output_node = output_name }
