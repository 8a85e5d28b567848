(* Cross-engine integration tests: every PSD engine (mixed-frequency-time,
   brute-force ESD transient, Monte-Carlo, closed form) must tell the same
   story on shared circuits, including the multi-state stiff SC filters. *)

module Db = Scnoise_util.Db
module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Contrib = Scnoise_core.Contrib
module Esd = Scnoise_noise.Esd_transient
module Mc = Scnoise_noise.Monte_carlo
module A_src = Scnoise_analytic.Switched_rc
module SRC = Scnoise_circuits.Switched_rc
module LP = Scnoise_circuits.Sc_lowpass
module BP = Scnoise_circuits.Sc_bandpass
module INT = Scnoise_circuits.Sc_integrator

let check_db ?(tol = 0.1) msg expected actual =
  let d = abs_float (Db.of_power expected -. Db.of_power actual) in
  if d > tol then
    Alcotest.failf "%s: %g vs %g differ by %.3f dB (tol %.3f)" msg expected
      actual d tol

(* Four-way agreement on the switched RC. *)
let test_four_way_switched_rc () =
  let b = SRC.build (SRC.with_ratio ~t_over_rc:5.0 ~duty:0.5 ()) in
  let p = b.SRC.params in
  let a =
    A_src.make ~r:p.SRC.r ~c:p.SRC.c ~period:p.SRC.period ~duty:p.SRC.duty ()
  in
  let eng = Psd.prepare b.SRC.sys ~output:b.SRC.output in
  let freqs = [| 1e4; 1e5 |] in
  let mc =
    Mc.estimate ~seed:5L ~paths:12 ~segments_per_path:12 b.SRC.sys
      ~output:b.SRC.output ~freqs
  in
  Array.iteri
    (fun i f ->
      let s_ana = A_src.psd a f in
      check_db ~tol:0.02 "mft vs closed form" s_ana (Psd.psd eng ~f);
      let bf = Esd.psd ~tol_db:0.02 b.SRC.sys ~output:b.SRC.output ~f in
      check_db ~tol:0.15 "brute force vs closed form" s_ana bf.Esd.psd;
      check_db ~tol:0.8 "monte carlo vs closed form" s_ana mc.Mc.psd.(i))
    freqs

(* MFT and brute force on the stiff multi-state low-pass filter. *)
let test_lowpass_mft_vs_brute_force () =
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  List.iter
    (fun f ->
      let bf =
        Esd.psd ~samples_per_phase:128 ~tol_db:0.02 b.LP.sys
          ~output:b.LP.output ~f
      in
      check_db ~tol:0.2 (Printf.sprintf "lowpass f=%g" f) (Psd.psd eng ~f)
        bf.Esd.psd)
    [ 100.0; 2000.0; 6000.0 ]

(* ... and on the band-pass biquad, around its resonance. *)
let test_bandpass_mft_vs_brute_force () =
  let b = BP.build BP.default in
  let eng = Psd.prepare ~samples_per_phase:64 b.BP.sys ~output:b.BP.output in
  List.iter
    (fun f ->
      let bf =
        Esd.psd ~samples_per_phase:64 ~tol_db:0.005 ~window_periods:10
          b.BP.sys ~output:b.BP.output ~f
      in
      (* the brute-force estimate carries an O(1/t) startup bias around
         the resonance; 0.5 dB is its honest accuracy at this tolerance *)
      check_db ~tol:0.5 (Printf.sprintf "bandpass f=%g" f) (Psd.psd eng ~f)
        bf.Esd.psd)
    [ 4e3; 8e3; 1.2e4 ]

(* Monte-Carlo agreement on the integrator (multi-state, moderate Q). *)
let test_integrator_mc_vs_mft () =
  let b = INT.build { INT.default with INT.opamp_noise_psd = 1e-16 } in
  let eng = Psd.prepare ~samples_per_phase:96 b.INT.sys ~output:b.INT.output in
  let freqs = [| 1e3; 1e4 |] in
  let mc =
    (* long segments: the damped integrator's noise corner (~1.7 kHz)
       must be resolved by the Welch window *)
    Mc.estimate ~seed:17L ~paths:10 ~segments_per_path:4
      ~periods_per_segment:96 ~samples_per_phase:64 b.INT.sys
      ~output:b.INT.output ~freqs
  in
  Array.iteri
    (fun i f ->
      check_db ~tol:1.0 (Printf.sprintf "integrator f=%g" f) (Psd.psd eng ~f)
        mc.Mc.psd.(i))
    freqs;
  let var_mft =
    (Covariance.variance
       (Covariance.sample ~samples_per_phase:96 b.INT.sys)
       b.INT.output)
      .Covariance.average
  in
  if abs_float (mc.Mc.variance -. var_mft) > 0.1 *. var_mft then
    Alcotest.failf "variance: mc %g vs mft %g" mc.Mc.variance var_mft

(* The per-source decomposition must sum to the total on a real filter. *)
let test_lowpass_contribution_additivity () =
  let b = LP.build LP.default in
  let gap =
    Contrib.check_additivity ~samples_per_phase:48 b.LP.sys ~output:b.LP.output
      ~f:1e3
  in
  if gap > 1e-6 then Alcotest.failf "additivity gap %g" gap

(* Brute-force history converges towards the MFT value (companion Fig. 1). *)
let test_history_converges_to_mft () =
  let b = LP.build LP.default in
  let f = 7.5e3 in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  let s_mft = Psd.psd eng ~f in
  let bf =
    Esd.psd ~samples_per_phase:128 ~tol_db:0.02 b.LP.sys ~output:b.LP.output ~f
  in
  let n = Array.length bf.Esd.history in
  let _, early = bf.Esd.history.(1) in
  let _, late = bf.Esd.history.(n - 1) in
  let err x = abs_float (Db.of_power x -. Db.of_power s_mft) in
  if err late > err early then
    Alcotest.fail "running estimate should approach the MFT value";
  if err late > 0.2 then
    Alcotest.failf "converged estimate %.3f dB from MFT" (err late)

let () =
  Alcotest.run "integration"
    [
      ( "cross-engine",
        [
          Alcotest.test_case "four-way switched rc" `Slow test_four_way_switched_rc;
          Alcotest.test_case "lowpass mft vs bf" `Slow test_lowpass_mft_vs_brute_force;
          Alcotest.test_case "bandpass mft vs bf" `Slow test_bandpass_mft_vs_brute_force;
          Alcotest.test_case "integrator mc vs mft" `Slow test_integrator_mc_vs_mft;
          Alcotest.test_case "contribution additivity" `Slow test_lowpass_contribution_additivity;
          Alcotest.test_case "history converges" `Slow test_history_converges_to_mft;
        ] );
    ]
