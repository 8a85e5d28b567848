module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl

type params = {
  ci1 : float;
  ci2 : float;
  cin : float;
  cc12 : float;
  cc21 : float;
  cd : float;
  r_switch : float;
  clock_hz : float;
  ugf : float;
  opamp_noise_psd : float;
  c_par : float;
  temperature : float;
}

(* The design equations, unchecked; {!design} checks what they build. *)
let coefficients ?(ci = 100e-12) ?(r_switch = 80.0)
    ?(ugf = 2.0 *. Float.pi *. 5e7) ?(opamp_noise_psd = 2e-16) ~clock_hz ~f0
    ~q () =
  if f0 <= 0.0 || q <= 0.0 || clock_hz <= 0.0 then
    invalid_arg "Sc_bandpass.design: positive f0, q, clock required";
  if f0 >= clock_hz /. 4.0 then
    invalid_arg "Sc_bandpass.design: f0 must be well below clock/4";
  let k = 2.0 *. Float.pi *. f0 /. clock_hz in
  {
    ci1 = ci;
    ci2 = ci;
    cin = k *. ci;
    cc12 = k *. ci;
    cc21 = k *. ci;
    cd = k /. q *. ci;
    r_switch;
    clock_hz;
    ugf;
    opamp_noise_psd;
    c_par = 50e-15;
    temperature = 300.0;
  }

(* Not checked, so that loading the module compiles no circuit; its
   Floquet radius is 0.979. *)
let default = coefficients ~clock_hz:128e3 ~f0:8e3 ~q:2.0 ()

type built = {
  sys : Pwl.t;
  output : Scnoise_linalg.Vec.t;
  params : params;
  netlist : Netlist.t;
  clock : Clock.t;
  output_node : string;
}

let output_name = "vo1"

let inverting_branch nl ~label ~src ~sum ~c ~r =
  Branches.toggle_to_ground nl ~label ~src ~sum ~c ~r ()

let noninverting_branch nl ~label ~src ~sum ~c ~cp ~r =
  Branches.parasitic_insensitive_noninverting nl ~label ~src ~sum ~c ~cp ~r ()

let build params =
  let nl = Netlist.create () in
  let vin = Netlist.node nl "vin" in
  let vg1 = Netlist.node nl "vg1" in
  let vo1 = Netlist.node nl "vo1" in
  let vg2 = Netlist.node nl "vg2" in
  let vo2 = Netlist.node nl "vo2" in
  Netlist.vsource_dc ~name:"Vin" nl vin 0.0;
  (* op-amp 1: damped integrator, band-pass output *)
  Netlist.capacitor ~name:"Ci1" nl vg1 vo1 params.ci1;
  Netlist.opamp_integrator ~name:"OA1" ~input_noise_psd:params.opamp_noise_psd
    nl ~plus:Netlist.ground ~minus:vg1 ~out:vo1 ~ugf:params.ugf;
  inverting_branch nl ~label:"Bin" ~src:vin ~sum:vg1 ~c:params.cin
    ~r:params.r_switch;
  inverting_branch nl ~label:"Bd" ~src:vo1 ~sum:vg1 ~c:params.cd
    ~r:params.r_switch;
  inverting_branch nl ~label:"Bfb" ~src:vo2 ~sum:vg1 ~c:params.cc21
    ~r:params.r_switch;
  (* op-amp 2: lossless non-inverting integrator *)
  Netlist.capacitor ~name:"Ci2" nl vg2 vo2 params.ci2;
  Netlist.opamp_integrator ~name:"OA2" ~input_noise_psd:params.opamp_noise_psd
    nl ~plus:Netlist.ground ~minus:vg2 ~out:vo2 ~ugf:params.ugf;
  noninverting_branch nl ~label:"Bc" ~src:vo1 ~sum:vg2 ~c:params.cc12
    ~cp:params.c_par ~r:params.r_switch;
  let period = 1.0 /. params.clock_hz in
  let clock = Clock.make [ period /. 2.0; period /. 2.0 ] in
  let sys = Compile.compile ~temperature:params.temperature nl clock in
  let output = Pwl.observable sys output_name in
  { sys; output; params; netlist = nl; clock; output_node = output_name }

(* The loop's sampled-data excess phase raises the Floquet radius with
   both f0 and q, so no bound on q alone keeps the circuit stable: at a
   128 kHz clock and q = 2 the radius crosses 1 between 10 and 12 kHz. *)
let design ?ci ?r_switch ?ugf ?opamp_noise_psd ~clock_hz ~f0 ~q () =
  let p =
    coefficients ?ci ?r_switch ?ugf ?opamp_noise_psd ~clock_hz ~f0 ~q ()
  in
  let radius = Pwl.floquet_radius (build p).sys in
  if not (radius < 1.0) then
    invalid_arg
      (Printf.sprintf
         "Sc_bandpass.design: f0 = %g Hz, q = %g builds an unstable circuit \
          (Floquet radius %.4g); lower f0 or q"
         f0 q radius);
  p
