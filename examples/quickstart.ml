(* Quickstart: describe a switched circuit, compile it, and compute its
   output noise spectrum with the mixed-frequency-time engine.

   Run with:  dune exec examples/quickstart.exe

   The circuit is the classic periodically switched RC of Rice's
   analysis: a noisy 1 kohm switch charges a 1 nF capacitor during the
   first half of every 5 us clock period. *)

module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Table = Scnoise_util.Table
module Db = Scnoise_util.Db

let () =
  (* 1. describe the circuit *)
  let nl = Netlist.create () in
  let vout = Netlist.node nl "vout" in
  Netlist.switch ~name:"S1" ~closed_in:[ 0 ] nl vout Netlist.ground 1e3;
  Netlist.capacitor ~name:"C1" nl vout Netlist.ground 1e-9;

  (* 2. give it a clock: phase 0 = switch closed (50% duty, 200 kHz) *)
  let clock = Clock.duty ~period:5e-6 ~duty:0.5 in

  (* 3. compile to a phase-wise LTI state-space model *)
  let sys = Compile.compile nl clock in
  Printf.printf "compiled: %d state(s), %d clock phase(s), stable = %b\n"
    sys.Pwl.nstates (Pwl.n_phases sys) (Pwl.is_stable sys);

  (* 4. periodic steady-state covariance: the output variance is the
     textbook kT/C independent of the switch resistance *)
  let output = Pwl.observable sys "vout" in
  let cov = Covariance.sample sys in
  Printf.printf "steady-state output variance = %.6g V^2 (kT/C = %.6g)\n"
    (Covariance.variance cov output).Covariance.boundary
    (Scnoise_util.Const.kt () /. 1e-9);

  (* 5. output noise PSD: one periodic boundary-value solve per
     frequency, reusing the covariance *)
  let eng = Psd.of_sampled cov ~output in
  let freqs = Scnoise_util.Grid.logspace 1e3 2e6 13 in
  let t = Table.create [ "f_Hz"; "psd_V2_per_Hz"; "psd_dB" ] in
  Array.iter
    (fun f ->
      let s = Psd.psd eng ~f in
      Table.add_float_row t
        (Printf.sprintf "%.0f" f)
        [ s; Db.of_power s ])
    freqs;
  Table.print t;

  (* 6. where does the noise come from?  (here: one source only) *)
  let parts = Scnoise_core.Contrib.per_source_psd sys ~output ~f:1e4 in
  List.iter
    (fun (label, s) ->
      Printf.printf "contribution of %s at 10 kHz: %.3g V^2/Hz\n" label s)
    parts
