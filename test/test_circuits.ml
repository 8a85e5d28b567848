module Mat = Scnoise_linalg.Mat
module Eig = Scnoise_linalg.Eig
module Db = Scnoise_util.Db
module Const = Scnoise_util.Const
module Pwl = Scnoise_circuit.Pwl
module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Contrib = Scnoise_core.Contrib
module SRC = Scnoise_circuits.Switched_rc
module LP = Scnoise_circuits.Sc_lowpass
module BP = Scnoise_circuits.Sc_bandpass
module INT = Scnoise_circuits.Sc_integrator
module Ideal_sc = Scnoise_analytic.Ideal_sc
module LAD = Scnoise_circuits.Sc_ladder
module DS = Scnoise_circuits.Sc_delta_sigma

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

(* --- switched RC builder --- *)

let test_src_build () =
  let b = SRC.build SRC.default in
  Alcotest.(check int) "one state" 1 b.SRC.sys.Pwl.nstates;
  if not (Pwl.is_stable b.SRC.sys) then Alcotest.fail "stable";
  let p = SRC.with_ratio ~t_over_rc:10.0 () in
  check_close "ratio" 10.0 (p.SRC.period /. (p.SRC.r *. p.SRC.c))

let test_src_invalid_duty () =
  match SRC.build { SRC.default with SRC.duty = 1.5 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad duty accepted"

(* --- low-pass --- *)

let test_lp_build_stable () =
  let b = LP.build LP.default in
  Alcotest.(check int) "states" 4 b.LP.sys.Pwl.nstates;
  if not (Pwl.is_stable b.LP.sys) then Alcotest.fail "lowpass must be stable";
  (* deadbeat design: C3 = C2 puts the ideal pole at z = 0 *)
  let radius = Eig.spectral_radius (Pwl.monodromy b.LP.sys) in
  if radius > 0.05 then Alcotest.failf "expected near-deadbeat, radius %g" radius

let test_lp_single_stage_builds () =
  let b = LP.build LP.single_stage_variant in
  (* single-stage op-amp replaces the behavioral state with a cap node *)
  Alcotest.(check int) "states" 4 b.LP.sys.Pwl.nstates;
  if not (Pwl.is_stable b.LP.sys) then Alcotest.fail "stable"

let test_lp_lowpass_shape () =
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:64 b.LP.sys ~output:b.LP.output in
  let s100 = Psd.psd eng ~f:100.0 in
  let s2k = Psd.psd eng ~f:2000.0 in
  let s_clk = Psd.psd eng ~f:b.LP.params.LP.clock_hz in
  if not (s100 > s2k && s2k > s_clk) then
    Alcotest.fail "expected low-pass roll-off into the clock notch"

let test_lp_notch_at_clock () =
  (* sampled-data character: dips near multiples of the clock *)
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:64 b.LP.sys ~output:b.LP.output in
  let notch = Psd.psd_db eng ~f:4000.0 in
  let side = Psd.psd_db eng ~f:6000.0 in
  if side -. notch < 5.0 then
    Alcotest.failf "expected a >5 dB notch at the clock: %.1f vs %.1f" notch side

let test_lp_ugf_raises_noise () =
  (* Fig. 9 trend: higher op-amp bandwidth -> more aliased noise *)
  let base = LP.build LP.default in
  let fast =
    LP.build
      { LP.default with LP.opamp = LP.Integrator { ugf = 9.0 *. Float.pi *. 1e7 } }
  in
  let s sys out = Psd.psd (Psd.prepare ~samples_per_phase:64 sys ~output:out) ~f:100.0 in
  if s fast.LP.sys fast.LP.output <= s base.LP.sys base.LP.output then
    Alcotest.fail "10x op-amp bandwidth should raise the low-frequency plateau"

let test_lp_r4_lowers_sampled_noise () =
  (* Fig. 8 trend: larger input-branch switch resistance slows the
     sampling transients and lowers the plateau *)
  let base = LP.build LP.default in
  let slow = LP.build { LP.default with LP.r4 = 800.0 } in
  let s b = Psd.psd (Psd.prepare ~samples_per_phase:64 b.LP.sys ~output:b.LP.output) ~f:100.0 in
  if s slow >= s base then Alcotest.fail "R4 x10 should lower the plateau"

let test_lp_contributions () =
  let b = LP.build LP.default in
  let labels = Contrib.source_labels b.LP.sys in
  if not (List.mem "OA.vn" labels) then Alcotest.fail "op-amp noise missing";
  if not (List.mem "S4" labels) then Alcotest.fail "switch noise missing";
  (* with the huge injected generator, the op-amp dominates *)
  let parts = Contrib.per_source_psd ~samples_per_phase:48 b.LP.sys ~output:b.LP.output ~f:100.0 in
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 parts in
  let oa = List.assoc "OA.vn" parts in
  if oa /. total < 0.99 then
    Alcotest.failf "op-amp should dominate, got %.3f" (oa /. total)

(* --- integrator --- *)

let test_int_build_pole () =
  let b = INT.build INT.default in
  if not (Pwl.is_stable b.INT.sys) then Alcotest.fail "damped integrator stable";
  check_close "ideal pole" 0.9 (INT.dt_pole INT.default);
  (* the slow Floquet multiplier should be near the ideal DT pole *)
  let mults = Pwl.floquet_multipliers b.INT.sys in
  let slowest =
    Array.fold_left (fun acc m -> max acc (Scnoise_linalg.Cx.modulus m)) 0.0 mults
  in
  if abs_float (slowest -. 0.9) > 0.02 then
    Alcotest.failf "slow multiplier %.4f vs ideal 0.9" slowest

let test_int_lossless_has_unit_multiplier () =
  let b = INT.build { INT.default with INT.cd = 0.0 } in
  let radius = Eig.spectral_radius (Pwl.monodromy b.INT.sys) in
  if abs_float (radius -. 1.0) > 1e-6 then
    Alcotest.failf "lossless integrator should be marginal, radius %g" radius;
  if Pwl.is_stable ~margin:1e-9 b.INT.sys then
    Alcotest.fail "marginal system must not be reported stable"

let test_int_noise_follows_dt_model () =
  (* the low-frequency noise of the damped integrator matches the ideal
     discrete-time model driven by the kT/C charge of Cs within a couple
     of dB (switch and parasitic details account for the rest) *)
  let p = INT.default in
  let b = INT.build p in
  let eng = Psd.prepare ~samples_per_phase:96 b.INT.sys ~output:b.INT.output in
  let pole = INT.dt_pole p in
  (* per-cycle injected charge noise referred to the output:
     (Cs/Ci)^2 * 2kT/Cs (both phases sample) *)
  let var =
    2.0 *. Ideal_sc.kt_over_c p.INT.cs *. ((p.INT.cs /. p.INT.ci) ** 2.0)
  in
  let period = 1.0 /. p.INT.clock_hz in
  List.iter
    (fun f ->
      let model = Ideal_sc.first_order_dt_psd ~var ~period ~pole f in
      let s = Psd.psd eng ~f in
      let diff = abs_float (Db.of_power s -. Db.of_power model) in
      if diff > 3.5 then
        Alcotest.failf "f=%g: %.1f dB from the DT model" f diff)
    [ 100.0; 1e3; 5e3 ]

let test_int_variance_scaling () =
  (* total output noise scales like 1/(1 - pole^2): stronger damping,
     less accumulated noise *)
  let var cd =
    let b = INT.build { INT.default with INT.cd } in
    (Covariance.variance
       (Covariance.sample ~samples_per_phase:64 b.INT.sys)
       b.INT.output)
      .Covariance.average
  in
  let v_light = var 0.5e-12 and v_heavy = var 4e-12 in
  if v_light <= v_heavy then
    Alcotest.fail "weaker damping must accumulate more noise"

(* --- ladder --- *)

let test_ladder_build () =
  let b = LAD.build (LAD.with_stages 6) in
  Alcotest.(check int) "states = stages" 6 b.LAD.sys.Pwl.nstates;
  if not (Pwl.is_stable b.LAD.sys) then Alcotest.fail "stable"

let test_ladder_thermal_equilibrium () =
  (* every node of a passive RC network at uniform temperature holds
     kT/C, switch or not: the periodic covariance diagonal must be kT/C
     at every grid point *)
  let b = LAD.build (LAD.with_stages 5) in
  let cov = Covariance.sample ~samples_per_phase:48 b.LAD.sys in
  let ktc = Const.kt () /. b.LAD.params.LAD.c in
  Array.iter
    (fun k ->
      for i = 0 to 4 do
        check_close ~eps:1e-6 "kT/C at every node" ktc (Mat.get k i i)
      done)
    (Oracle.unroll cov)

let test_ladder_single_stage_is_switched_rc () =
  (* one stage with matched values must reproduce the switched RC *)
  let p =
    {
      (LAD.with_stages 1) with
      LAD.r_switch = 1e3;
      c = 1e-9;
      clock_hz = 2e5;
      duty = 0.5;
    }
  in
  let b = LAD.build p in
  let eng = Psd.prepare b.LAD.sys ~output:b.LAD.output in
  let a =
    Scnoise_analytic.Switched_rc.make ~r:1e3 ~c:1e-9 ~period:5e-6 ~duty:0.5 ()
  in
  List.iter
    (fun f ->
      let d =
        abs_float
          (Db.of_power (Psd.psd eng ~f)
          -. Db.of_power (Scnoise_analytic.Switched_rc.psd a f))
      in
      if d > 0.02 then Alcotest.failf "1-stage ladder vs closed form: %g" d)
    [ 1e4; 1e5 ]

let test_ladder_invalid () =
  match LAD.build (LAD.with_stages 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 stages accepted"

(* --- four-phase (non-overlapping) clock coverage --- *)

let test_nonoverlap_integrator () =
  (* the integrator rebuilt on a 4-interval non-overlapping clock: same
     low-frequency noise as the plain 2-phase version within ~1 dB *)
  let module Netlist = Scnoise_circuit.Netlist in
  let module Clock = Scnoise_circuit.Clock in
  let module Compile = Scnoise_circuit.Compile in
  let p = INT.default in
  let nl = Netlist.create () in
  let vin = Netlist.node nl "vin" in
  let na = Netlist.node nl "na" in
  let nb = Netlist.node nl "nb" in
  let vg = Netlist.node nl "vg" in
  let vo = Netlist.node nl "vo" in
  Netlist.vsource_dc ~name:"Vin" nl vin 0.0;
  (* phases: 0 = phi1, 1 = gap, 2 = phi2, 3 = gap *)
  Netlist.switch ~name:"S1" ~closed_in:[ 0 ] nl na vin p.INT.r_switch;
  Netlist.switch ~name:"S2" ~closed_in:[ 0 ] nl nb Netlist.ground p.INT.r_switch;
  Netlist.switch ~name:"S3" ~closed_in:[ 2 ] nl na Netlist.ground p.INT.r_switch;
  Netlist.switch ~name:"S4" ~closed_in:[ 2 ] nl nb vg p.INT.r_switch;
  Netlist.capacitor ~name:"Cs" nl na nb p.INT.cs;
  Netlist.capacitor ~name:"Cpa" nl na Netlist.ground p.INT.c_par;
  Netlist.capacitor ~name:"Cpb" nl nb Netlist.ground p.INT.c_par;
  Netlist.capacitor ~name:"Ci" nl vg vo p.INT.ci;
  Netlist.opamp_integrator ~name:"OA" nl ~plus:Netlist.ground ~minus:vg
    ~out:vo ~ugf:p.INT.ugf;
  let nd = Netlist.node nl "nd" in
  Netlist.switch ~name:"S5" ~closed_in:[ 0 ] nl nd vo p.INT.r_switch;
  Netlist.switch ~name:"S6" ~closed_in:[ 2 ] nl nd vg p.INT.r_switch;
  Netlist.capacitor ~name:"Cd" nl nd Netlist.ground p.INT.cd;
  let clock =
    Clock.two_phase ~gap_fraction:0.02 ~period:(1.0 /. p.INT.clock_hz) ()
  in
  let sys = Compile.compile nl clock in
  Alcotest.(check int) "phases" 4 (Pwl.n_phases sys);
  if not (Pwl.is_stable sys) then Alcotest.fail "stable with gaps";
  let output = Pwl.observable sys "vo" in
  let eng4 = Psd.prepare ~samples_per_phase:48 sys ~output in
  let b2 = INT.build p in
  let eng2 = Psd.prepare ~samples_per_phase:48 b2.INT.sys ~output:b2.INT.output in
  let d =
    abs_float (Db.of_power (Psd.psd eng4 ~f:1e3) -. Db.of_power (Psd.psd eng2 ~f:1e3))
  in
  if d > 1.0 then Alcotest.failf "4-phase vs 2-phase: %g dB" d

(* --- band-pass --- *)

let test_bp_build_stable () =
  let b = BP.build BP.default in
  Alcotest.(check int) "states" 9 b.BP.sys.Pwl.nstates;
  if not (Pwl.is_stable b.BP.sys) then Alcotest.fail "bandpass stable"

let test_bp_peak_near_f0 () =
  let b = BP.build BP.default in
  let eng = Psd.prepare ~samples_per_phase:48 b.BP.sys ~output:b.BP.output in
  let freqs = Scnoise_util.Grid.linspace 1e3 2e4 39 in
  let s = Psd.sweep eng freqs in
  let imax = ref 0 in
  Array.iteri (fun i v -> if v > s.(!imax) then imax := i) s;
  let fpeak = freqs.(!imax) in
  if abs_float (fpeak -. 8e3) > 1.5e3 then
    Alcotest.failf "peak at %g, expected near 8 kHz" fpeak;
  (* and it is a real peak: > 10 dB above the low-frequency floor *)
  if Db.of_power s.(!imax) -. Db.of_power s.(0) < 10.0 then
    Alcotest.fail "peak should stand >10 dB above the floor"

let test_bp_design_q_controls_damping () =
  let hi_q = BP.design ~clock_hz:128e3 ~f0:8e3 ~q:2.5 () in
  let lo_q = BP.design ~clock_hz:128e3 ~f0:8e3 ~q:1.0 () in
  if hi_q.BP.cd >= lo_q.BP.cd then Alcotest.fail "higher Q needs less damping";
  let b = BP.build hi_q in
  if not (Pwl.is_stable b.BP.sys) then Alcotest.fail "hi-Q stable"

let test_bp_design_q_limit () =
  match BP.design ~clock_hz:128e3 ~f0:8e3 ~q:8.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q above the topology limit accepted"

let test_bp_design_f0_moves_peak () =
  let probe f0 =
    let b = BP.build (BP.design ~clock_hz:128e3 ~f0 ~q:2.0 ()) in
    let eng = Psd.prepare ~samples_per_phase:32 b.BP.sys ~output:b.BP.output in
    let freqs = Scnoise_util.Grid.linspace 1e3 2e4 39 in
    let s = Psd.sweep eng freqs in
    let imax = ref 0 in
    Array.iteri (fun i v -> if v > s.(!imax) then imax := i) s;
    freqs.(!imax)
  in
  (* 10 kHz is the highest accepted design on this grid at q = 2
     (Floquet radius 0.998) *)
  let p4 = probe 4e3 and p10 = probe 10e3 in
  if p10 <= p4 then Alcotest.fail "peak should track the design frequency"

let test_bp_design_validation () =
  (match BP.design ~clock_hz:128e3 ~f0:64e3 ~q:2.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "f0 too close to clock accepted");
  (* a moderate q, but the Floquet radius is 1.026 *)
  match BP.design ~clock_hz:128e3 ~f0:12e3 ~q:2.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unstable 12 kHz, q = 2 design accepted"

(* --- delta-sigma loop filter --- *)

let test_ds_build_stable () =
  let b = DS.build DS.default in
  Alcotest.(check int) "states" 10 b.DS.sys.Pwl.nstates;
  if not (Pwl.is_stable b.DS.sys) then Alcotest.fail "stable";
  (* the linearised loop poles land near the design value |z| ~ 0.79 *)
  let radius = Eig.spectral_radius (Pwl.monodromy b.DS.sys) in
  if abs_float (radius -. 0.79) > 0.05 then
    Alcotest.failf "loop radius %.3f vs designed ~0.79" radius

let test_ds_second_stage_noise_suppressed () =
  (* the defining delta-sigma property: in-band, noise entering at the
     second stage is attenuated by the first integrator's gain, so the
     stage-1 branches dominate the budget *)
  let b = DS.build DS.default in
  let parts =
    Contrib.per_source_psd ~samples_per_phase:32 b.DS.sys ~output:b.DS.output
      ~f:2e3
  in
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 parts in
  let share prefix =
    List.fold_left
      (fun a (l, s) ->
        if String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then a +. s
        else a)
      0.0 parts
    /. total
  in
  let stage1 = share "Bin" +. share "Bfb1" in
  let stage2 = share "Bc1" +. share "Bfb2" in
  if stage1 < 0.7 then
    Alcotest.failf "stage-1 branches should dominate in band: %.2f" stage1;
  if stage2 > 0.1 then
    Alcotest.failf "stage-2 noise should be suppressed in band: %.2f" stage2

let test_ds_shaping_rolloff () =
  (* the closed loop attenuates the output noise towards Nyquist *)
  let b = DS.build DS.default in
  let eng = Psd.prepare ~samples_per_phase:48 b.DS.sys ~output:b.DS.output in
  let inband = Psd.psd eng ~f:2e3 in
  let high = Psd.psd eng ~f:4e5 in
  if Db.of_power inband -. Db.of_power high < 10.0 then
    Alcotest.fail "expected >10 dB between in-band and near-Nyquist"

let () =
  Alcotest.run "circuits"
    [
      ( "switched_rc",
        [
          Alcotest.test_case "build" `Quick test_src_build;
          Alcotest.test_case "invalid duty" `Quick test_src_invalid_duty;
        ] );
      ( "sc_lowpass",
        [
          Alcotest.test_case "build/stable" `Quick test_lp_build_stable;
          Alcotest.test_case "single stage" `Quick test_lp_single_stage_builds;
          Alcotest.test_case "low-pass shape" `Quick test_lp_lowpass_shape;
          Alcotest.test_case "clock notch" `Quick test_lp_notch_at_clock;
          Alcotest.test_case "ugf trend" `Quick test_lp_ugf_raises_noise;
          Alcotest.test_case "r4 trend" `Quick test_lp_r4_lowers_sampled_noise;
          Alcotest.test_case "contributions" `Slow test_lp_contributions;
        ] );
      ( "sc_integrator",
        [
          Alcotest.test_case "pole" `Quick test_int_build_pole;
          Alcotest.test_case "lossless marginal" `Quick test_int_lossless_has_unit_multiplier;
          Alcotest.test_case "dt model" `Quick test_int_noise_follows_dt_model;
          Alcotest.test_case "variance scaling" `Quick test_int_variance_scaling;
        ] );
      ( "sc_ladder",
        [
          Alcotest.test_case "build" `Quick test_ladder_build;
          Alcotest.test_case "thermal equilibrium" `Quick test_ladder_thermal_equilibrium;
          Alcotest.test_case "1-stage = switched rc" `Quick test_ladder_single_stage_is_switched_rc;
          Alcotest.test_case "invalid" `Quick test_ladder_invalid;
          Alcotest.test_case "non-overlapping clock" `Quick test_nonoverlap_integrator;
        ] );
      ( "sc_delta_sigma",
        [
          Alcotest.test_case "build/stable" `Quick test_ds_build_stable;
          Alcotest.test_case "stage-2 suppressed" `Quick test_ds_second_stage_noise_suppressed;
          Alcotest.test_case "shaping" `Quick test_ds_shaping_rolloff;
        ] );
      ( "sc_bandpass",
        [
          Alcotest.test_case "build/stable" `Quick test_bp_build_stable;
          Alcotest.test_case "peak near f0" `Quick test_bp_peak_near_f0;
          Alcotest.test_case "q design" `Quick test_bp_design_q_controls_damping;
          Alcotest.test_case "q limit" `Quick test_bp_design_q_limit;
          Alcotest.test_case "f0 design" `Quick test_bp_design_f0_moves_peak;
          Alcotest.test_case "design validation" `Quick test_bp_design_validation;
        ] );
    ]
