(* Tests of the ideal ("full and fast") discrete-time engine and of the
   per-circuit z-domain models against both closed forms and the exact
   mixed-frequency-time engine. *)

module Mat = Scnoise_linalg.Mat
module Db = Scnoise_util.Db
module Grid = Scnoise_util.Grid
module Const = Scnoise_util.Const
module Dt = Scnoise_dtime.Dt_system
module Ideal_dt = Scnoise_dtime.Ideal_dt
module Ideal_sc = Scnoise_analytic.Ideal_sc
module A_src = Scnoise_analytic.Switched_rc
module SRC = Scnoise_circuits.Switched_rc
module INT = Scnoise_circuits.Sc_integrator
module Psd = Scnoise_core.Psd

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let mat1 x = Mat.of_arrays [| [| x |] |]

let white_sys sigma period =
  Dt.make ~ad:(mat1 0.0) ~bd:(mat1 sigma) ~c:[| 1.0 |] ~period

let first_order pole sigma period =
  Dt.make ~ad:(mat1 pole) ~bd:(mat1 sigma) ~c:[| 1.0 |] ~period

(* --- Dt_system core --- *)

let test_white_variance_and_flat_spectrum () =
  let t = white_sys 2.0 1e-5 in
  check_close "variance" 4.0 (Dt.variance t);
  check_close "flat at dc" (4.0 *. 1e-5) (Dt.spectrum_sampled t ~f:0.0);
  check_close "flat at fs/3" (4.0 *. 1e-5)
    (Dt.spectrum_sampled t ~f:(1.0 /. 3e-5))

let test_spectrum_alias_periodicity () =
  let t = first_order 0.6 1.0 1e-4 in
  let f = 1234.0 in
  check_close ~eps:1e-10 "periodic in 1/T" (Dt.spectrum_sampled t ~f)
    (Dt.spectrum_sampled t ~f:(f +. 1e4))

let test_spectrum_matches_closed_form () =
  (* first-order recursion against the Ideal_sc closed form (without the
     hold shaping): S_hold(f) = T var sinc^2 / |1 - p z^{-1}|^2, and
     spectrum_held with hold 1 must equal it *)
  let pole = 0.5 and period = 1e-3 in
  let t = first_order pole 1.0 period in
  List.iter
    (fun f ->
      check_close ~eps:1e-9
        (Printf.sprintf "held vs closed form at %g" f)
        (Ideal_sc.first_order_dt_psd ~var:1.0 ~period ~pole f)
        (Dt.spectrum_held t ~f))
    [ 0.0; 100.0; 333.3; 499.0 ]

let test_variance_parseval () =
  (* integrating the sampled spectrum over one alias zone gives the
     variance *)
  let t = first_order 0.7 1.3 1e-4 in
  let fs = 1.0 /. 1e-4 in
  let freqs = Grid.linspace (-.fs /. 2.0) (fs /. 2.0) 4001 in
  let s = Array.map (fun f -> Dt.spectrum_sampled t ~f) freqs in
  let integral = Grid.trapezoid freqs s in
  check_close ~eps:1e-3 "parseval" (Dt.variance t) integral

let test_variance_matches_lyapunov_formula () =
  let pole = 0.8 and sigma = 0.4 in
  let t = first_order pole sigma 1e-4 in
  check_close "var = s^2/(1-p^2)"
    (sigma *. sigma /. (1.0 -. (pole *. pole)))
    (Dt.variance t)

let test_make_validation () =
  (match Dt.make ~ad:(Mat.create 2 1) ~bd:(mat1 1.0) ~c:[| 1.0 |] ~period:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-square Ad accepted");
  match Dt.spectrum_held ~hold_fraction:1.5 (white_sys 1.0 1.0) ~f:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hold_fraction > 1 accepted"

(* --- circuit models vs exact engines --- *)

let test_switched_rc_ideal_variance () =
  let p = SRC.with_ratio ~t_over_rc:5.0 ~duty:0.5 () in
  let dt = Ideal_dt.switched_rc p in
  check_close ~eps:1e-12 "sampled variance kT/C"
    (Const.kt () /. p.SRC.c) (Dt.variance dt)

let test_switched_rc_ideal_vs_exact_in_hold_regime () =
  (* when the hold interval spans many RC, the exact low-frequency PSD
     approaches the ideal held-sample model with hold = 1 - duty *)
  let p = SRC.with_ratio ~t_over_rc:2000.0 ~duty:0.5 () in
  let a =
    A_src.make ~r:p.SRC.r ~c:p.SRC.c ~period:p.SRC.period ~duty:p.SRC.duty ()
  in
  let dt = Ideal_dt.switched_rc p in
  List.iter
    (fun f_over_fs ->
      let f = f_over_fs /. p.SRC.period in
      let exact = A_src.psd a f in
      let ideal = Dt.spectrum_held ~hold_fraction:(1.0 -. p.SRC.duty) dt ~f in
      let d = abs_float (Db.delta exact ideal) in
      if d > 0.35 then
        Alcotest.failf "hold regime at f T = %g: %g dB apart" f_over_fs d)
    [ 0.0; 0.2; 0.45 ]

let test_switched_rc_ideal_fails_in_continuous_regime () =
  (* conversely, with T/RC small the full-and-fast picture must be far
     off: the exact spectrum is nearly the continuous Lorentzian *)
  let p = SRC.with_ratio ~t_over_rc:0.2 ~duty:0.5 () in
  let a =
    A_src.make ~r:p.SRC.r ~c:p.SRC.c ~period:p.SRC.period ~duty:p.SRC.duty ()
  in
  let dt = Ideal_dt.switched_rc p in
  let f = 0.25 /. p.SRC.period in
  let exact = A_src.psd a f in
  let ideal = Dt.spectrum_held ~hold_fraction:(1.0 -. p.SRC.duty) dt ~f in
  if abs_float (Db.delta exact ideal) < 1.0 then
    Alcotest.fail "ideal model should break down for slow switching"

let test_integrator_ideal_matches_exact () =
  (* fast switches (default): exact MFT within ~2.5 dB of the ideal
     model (the residual is the op-amp settling and parasitics) *)
  let p = INT.default in
  let b = INT.build p in
  let eng = Psd.prepare ~samples_per_phase:96 b.INT.sys ~output:b.INT.output in
  let dt = Ideal_dt.sc_integrator p in
  List.iter
    (fun f ->
      let d =
        abs_float (Db.delta (Psd.psd eng ~f) (Dt.spectrum_held dt ~f))
      in
      if d > 2.5 then Alcotest.failf "integrator at %g: %g dB" f d)
    [ 100.0; 1e3; 5e3 ]

let test_integrator_ideal_consistent_with_analytic () =
  (* the Dt_system route and the Ideal_sc closed form must agree exactly *)
  let p = INT.default in
  let dt = Ideal_dt.sc_integrator p in
  let var =
    2.0 *. Const.kt () /. p.INT.cs *. ((p.INT.cs /. p.INT.ci) ** 2.0)
    +. (2.0 *. Const.kt () /. p.INT.cd *. ((p.INT.cd /. p.INT.ci) ** 2.0))
  in
  let period = 1.0 /. p.INT.clock_hz in
  List.iter
    (fun f ->
      check_close ~eps:1e-9 "dt engine vs closed form"
        (Ideal_sc.first_order_dt_psd ~var ~period ~pole:(INT.dt_pole p) f)
        (Dt.spectrum_held dt ~f))
    [ 0.0; 1e3; 1e4 ]

let test_full_and_fast_breakdown_with_slow_switches () =
  (* the validity study in miniature: as the switch resistance grows the
     charge transfer is no longer "full", and the exact spectrum departs
     from the ideal model *)
  let err r_switch =
    let p = { INT.default with INT.r_switch } in
    let b = INT.build p in
    let eng = Psd.prepare ~samples_per_phase:96 b.INT.sys ~output:b.INT.output in
    let dt = Ideal_dt.sc_integrator p in
    abs_float (Db.delta (Psd.psd eng ~f:1e3) (Dt.spectrum_held dt ~f:1e3))
  in
  let fast = err 1e3 and slow = err 6.4e7 in
  if fast > 1.0 then
    Alcotest.failf "fast switches should satisfy full-and-fast: %g dB" fast;
  if slow < 3.0 then
    Alcotest.failf
      "slow switches should break the full-and-fast model: %g vs %g dB" fast
      slow

let () =
  Alcotest.run "dtime"
    [
      ( "dt_system",
        [
          Alcotest.test_case "white" `Quick test_white_variance_and_flat_spectrum;
          Alcotest.test_case "alias periodic" `Quick test_spectrum_alias_periodicity;
          Alcotest.test_case "closed form" `Quick test_spectrum_matches_closed_form;
          Alcotest.test_case "parseval" `Quick test_variance_parseval;
          Alcotest.test_case "lyapunov formula" `Quick test_variance_matches_lyapunov_formula;
          Alcotest.test_case "validation" `Quick test_make_validation;
        ] );
      ( "circuit models",
        [
          Alcotest.test_case "switched rc variance" `Quick test_switched_rc_ideal_variance;
          Alcotest.test_case "hold regime" `Quick test_switched_rc_ideal_vs_exact_in_hold_regime;
          Alcotest.test_case "continuous regime" `Quick test_switched_rc_ideal_fails_in_continuous_regime;
          Alcotest.test_case "integrator vs exact" `Quick test_integrator_ideal_matches_exact;
          Alcotest.test_case "integrator vs closed form" `Quick test_integrator_ideal_consistent_with_analytic;
          Alcotest.test_case "full-and-fast breakdown" `Quick test_full_and_fast_breakdown_with_slow_switches;
        ] );
    ]
