module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Const = Scnoise_util.Const
module Clock = Scnoise_circuit.Clock
module Netlist = Scnoise_circuit.Netlist
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Simulate = Scnoise_circuit.Simulate

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

(* --- Clock --- *)

let test_clock_make () =
  let c = Clock.make [ 1.0; 2.0; 3.0 ] in
  check_close "period" 6.0 (Clock.period c);
  Alcotest.(check int) "phases" 3 (Clock.n_phases c);
  check_close "start of 2" 3.0 (Clock.phase_start c 2)

let test_clock_duty () =
  let c = Clock.duty ~period:10.0 ~duty:0.3 in
  let d = Clock.durations c in
  check_close "on" 3.0 d.(0);
  check_close "off" 7.0 d.(1)

let test_clock_phase_at () =
  let c = Clock.make [ 1.0; 2.0 ] in
  let p, off = Clock.phase_at c 0.5 in
  Alcotest.(check int) "phase" 0 p;
  check_close "offset" 0.5 off;
  let p, off = Clock.phase_at c 2.5 in
  Alcotest.(check int) "phase" 1 p;
  check_close "offset" 1.5 off;
  (* wraps modulo the period, including negative times *)
  let p, _ = Clock.phase_at c 3.5 in
  Alcotest.(check int) "wrapped" 0 p;
  let p, off = Clock.phase_at c (-0.5) in
  Alcotest.(check int) "negative" 1 p;
  check_close "negative offset" 1.5 off

let test_clock_two_phase () =
  let c = Clock.two_phase ~gap_fraction:0.05 ~period:1.0 () in
  Alcotest.(check int) "4 intervals" 4 (Clock.n_phases c);
  check_close "period" 1.0 (Clock.period c);
  let d = Clock.durations c in
  check_close "gap" 0.05 d.(1);
  check_close "phi1" 0.45 d.(0)

let test_clock_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Clock.make: no phases")
    (fun () -> ignore (Clock.make []));
  Alcotest.check_raises "bad duty"
    (Invalid_argument "Clock.duty: need 0 < duty < 1") (fun () ->
      ignore (Clock.duty ~period:1.0 ~duty:1.5));
  (match Clock.duty ~period:0.0 ~duty:0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero period accepted");
  (match Clock.make [ 1.0; 0.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero duration accepted");
  match Clock.two_phase ~gap_fraction:0.6 ~period:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gap_fraction >= 0.5 accepted"

let test_clock_boundaries () =
  (* phase lookup exactly at phase-start instants: a boundary belongs to
     the phase it opens *)
  let c = Clock.make [ 1.0; 2.0; 3.0 ] in
  let check_at t (ep, eo) =
    let p, off = Clock.phase_at c t in
    Alcotest.(check int) (Printf.sprintf "phase at %g" t) ep p;
    check_close (Printf.sprintf "offset at %g" t) eo off
  in
  check_at 0.0 (0, 0.0);
  check_at 1.0 (1, 0.0);
  check_at 3.0 (2, 0.0);
  (* t = period wraps to the start of phase 0 *)
  check_at 6.0 (0, 0.0);
  check_at 7.0 (1, 0.0);
  (* negative times wrap backwards into the last phases *)
  check_at (-1.0) (2, 2.0);
  check_at (-6.0) (0, 0.0);
  (* phase_start is consistent with the durations *)
  check_close "start 0" 0.0 (Clock.phase_start c 0);
  check_close "start 1" 1.0 (Clock.phase_start c 1);
  check_close "start 2" 3.0 (Clock.phase_start c 2);
  (match Clock.phase_start c 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "phase_start out of range accepted");
  match Clock.phase_start c (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative phase_start accepted"

(* --- Netlist validation --- *)

let test_netlist_validation () =
  (* every message names the offending element; default names count from
     the next element index *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Alcotest.check_raises "same node"
    (Invalid_argument "Netlist.resistor \"R1\": both terminals on the same node")
    (fun () -> Netlist.resistor nl a a 1.0);
  Alcotest.check_raises "bad r"
    (Invalid_argument "Netlist.resistor \"Rload\": r <= 0") (fun () ->
      Netlist.resistor ~name:"Rload" nl a Netlist.ground 0.0);
  Alcotest.check_raises "bad c"
    (Invalid_argument "Netlist.capacitor \"C1\": c <= 0") (fun () ->
      Netlist.capacitor nl a Netlist.ground (-1e-12));
  Alcotest.check_raises "never closed"
    (Invalid_argument "Netlist.switch \"S1\": never closed") (fun () ->
      Netlist.switch ~closed_in:[] nl a Netlist.ground 1.0)

let test_netlist_find_node () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  (match Netlist.find_node nl "a" with
  | Some n -> Alcotest.(check int) "found" (Netlist.node_id a) (Netlist.node_id n)
  | None -> Alcotest.fail "existing node not found");
  (match Netlist.find_node nl "0" with
  | Some n -> Alcotest.(check int) "ground" 0 (Netlist.node_id n)
  | None -> Alcotest.fail "ground not found");
  (match Netlist.find_node nl "missing" with
  | None -> ()
  | Some _ -> Alcotest.fail "lookup created a node");
  Alcotest.(check int) "no node created" 1 (Netlist.n_nodes nl)

let test_netlist_double_drive () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.vsource_dc ~name:"V1" nl a 0.0;
  (match Netlist.vsource_dc ~name:"V2" nl a 1.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double drive accepted");
  (* ground cannot be driven *)
  let nl2 = Netlist.create () in
  match Netlist.vsource_dc nl2 Netlist.ground 1.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "driving ground accepted"

let test_netlist_names () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "alpha" in
  let b = Netlist.node nl "beta" in
  Alcotest.(check string) "a" "alpha" (Netlist.node_name nl a);
  Alcotest.(check string) "b" "beta" (Netlist.node_name nl b);
  Alcotest.(check string) "ground" "0" (Netlist.node_name nl Netlist.ground);
  (* same name returns the same node *)
  let a' = Netlist.node nl "alpha" in
  Alcotest.(check int) "same node" (Netlist.node_id a) (Netlist.node_id a');
  Alcotest.(check int) "count" 2 (Netlist.n_nodes nl)

let test_netlist_pp () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.resistor nl a Netlist.ground 100.0;
  Netlist.capacitor nl a Netlist.ground 1e-12;
  let s = Format.asprintf "%a" Netlist.pp nl in
  if String.length s < 10 then Alcotest.fail "pp too short"

(* --- compiler on hand-checkable circuits --- *)

let single_phase_clock tau = Clock.make [ tau ]

let build_rc r c =
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.resistor ~name:"R" nl out Netlist.ground r;
  Netlist.capacitor ~name:"C" nl out Netlist.ground c;
  Compile.compile nl (single_phase_clock 1e-6)

let test_compile_rc_matrices () =
  let r = 1e3 and c = 1e-9 in
  let sys = build_rc r c in
  Alcotest.(check int) "one state" 1 sys.Pwl.nstates;
  let ph = sys.Pwl.phases.(0) in
  check_close "A = -1/RC" (-1.0 /. (r *. c)) (Mat.get ph.Pwl.a 0 0);
  let b_expected = sqrt (2.0 *. Const.kt () /. r) /. c in
  check_close "B = sqrt(2kT/R)/C" b_expected (abs_float (Mat.get ph.Pwl.b 0 0));
  Alcotest.(check int) "one noise source" 1 (Array.length ph.Pwl.noise_labels);
  Alcotest.(check string) "label" "R" ph.Pwl.noise_labels.(0)

let test_compile_rc_kt_over_c () =
  let r = 50.0 and c = 3e-12 in
  let sys = build_rc r c in
  let ph = sys.Pwl.phases.(0) in
  let k = Kron.solve_continuous ph.Pwl.a ph.Pwl.q in
  check_close ~eps:1e-9 "kT/C" (Const.kt () /. c) (Mat.get k 0 0)

let test_compile_divider_elimination () =
  (* vin -R1- mid -R2- out(C): mid is resistive and must be eliminated;
     the result is an RC with R1+R2, and thermal equilibrium still gives
     kT/C at the output. *)
  let r1 = 2e3 and r2 = 3e3 and c = 1e-9 in
  let nl = Netlist.create () in
  let vin = Netlist.node nl "vin" in
  let mid = Netlist.node nl "mid" in
  let out = Netlist.node nl "out" in
  Netlist.vsource_dc nl vin 0.0;
  Netlist.resistor ~name:"R1" nl vin mid r1;
  Netlist.resistor ~name:"R2" nl mid out r2;
  Netlist.capacitor nl out Netlist.ground c;
  let sys = Compile.compile nl (single_phase_clock 1e-6) in
  Alcotest.(check int) "one state" 1 sys.Pwl.nstates;
  let ph = sys.Pwl.phases.(0) in
  check_close ~eps:1e-12 "A = -1/((R1+R2)C)"
    (-1.0 /. ((r1 +. r2) *. c))
    (Mat.get ph.Pwl.a 0 0);
  let k = Kron.solve_continuous ph.Pwl.a ph.Pwl.q in
  check_close ~eps:1e-9 "kT/C through elimination" (Const.kt () /. c)
    (Mat.get k 0 0)

let test_compile_miller_integrator () =
  (* vin -R- vg, C2 from vg to op-amp output: states (v_vg, x_oa);
     v̇g = -(g/C2 + wu) vg + (g/C2) vin ; ẋ = -wu vg *)
  let r = 1e4 and c2 = 1e-12 and ugf = 1e6 in
  let nl = Netlist.create () in
  let vin = Netlist.node nl "vin" in
  let vg = Netlist.node nl "vg" in
  let vo = Netlist.node nl "vo" in
  Netlist.vsource_dc nl vin 0.0;
  Netlist.resistor ~name:"R" nl vin vg r;
  Netlist.capacitor ~name:"C2" nl vg vo c2;
  Netlist.opamp_integrator ~name:"OA" nl ~plus:Netlist.ground ~minus:vg
    ~out:vo ~ugf;
  let sys = Compile.compile nl (single_phase_clock 1e-6) in
  Alcotest.(check int) "two states" 2 sys.Pwl.nstates;
  let a = sys.Pwl.phases.(0).Pwl.a in
  let g = 1.0 /. r in
  check_close "A00" (-.(g /. c2) -. ugf) (Mat.get a 0 0);
  check_close "A01" 0.0 (Mat.get a 0 1);
  check_close "A10" (-.ugf) (Mat.get a 1 0);
  check_close "A11" 0.0 (Mat.get a 1 1);
  (* E column: vin drives v̇g with g/C2 *)
  check_close "E00" (g /. c2) (Mat.get sys.Pwl.phases.(0).Pwl.e 0 0)

let test_compile_single_stage_opamp () =
  let rout = 1e6 and cout = 1e-12 in
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.opamp_single_stage ~name:"OA" nl ~plus:Netlist.ground
    ~minus:Netlist.ground ~out ~gm:1e-3 ~rout ~cout;
  let sys = Compile.compile nl (single_phase_clock 1e-6) in
  Alcotest.(check int) "one state" 1 sys.Pwl.nstates;
  check_close "A = -1/(rout cout)"
    (-1.0 /. (rout *. cout))
    (Mat.get sys.Pwl.phases.(0).Pwl.a 0 0)

let test_compile_phase_error () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.capacitor nl a Netlist.ground 1e-12;
  Netlist.switch ~closed_in:[ 5 ] nl a Netlist.ground 100.0;
  match Compile.compile nl (Clock.make [ 1.0; 1.0 ]) with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "expected phase-range error"

let test_compile_no_state_error () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.resistor nl a Netlist.ground 100.0;
  match Compile.compile nl (single_phase_clock 1.0) with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "expected no-state error"

let test_compile_floating_cap_error () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.capacitor nl a b 1e-12;
  Netlist.resistor nl a Netlist.ground 1e3;
  Netlist.resistor nl b Netlist.ground 1e3;
  match Compile.compile nl (single_phase_clock 1e-6) with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "expected floating-capacitor error"

let test_compile_noise_count_per_phase () =
  (* switch noise present only while closed *)
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.switch ~name:"S" ~closed_in:[ 0 ] nl out Netlist.ground 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-9;
  let sys = Compile.compile nl (Clock.make [ 1e-6; 1e-6 ]) in
  Alcotest.(check int) "phase 0 has the switch source" 1
    (Array.length sys.Pwl.phases.(0).Pwl.noise_labels);
  Alcotest.(check int) "phase 1 silent" 0
    (Array.length sys.Pwl.phases.(1).Pwl.noise_labels);
  check_close "A off-phase" 0.0 (Mat.get sys.Pwl.phases.(1).Pwl.a 0 0)

let test_compile_noiseless_flag () =
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.resistor ~noisy:false nl out Netlist.ground 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-9;
  let sys = Compile.compile nl (single_phase_clock 1e-6) in
  Alcotest.(check int) "no noise sources" 0
    (Array.length sys.Pwl.phases.(0).Pwl.noise_labels)

let test_compile_g_leak_patch () =
  (* a resistive node left floating in phase 1 gets a leak to ground *)
  let nl = Netlist.create () in
  let mid = Netlist.node nl "mid" in
  let out = Netlist.node nl "out" in
  Netlist.switch ~name:"Sa" ~closed_in:[ 0 ] nl mid Netlist.ground 1e3;
  Netlist.switch ~name:"Sb" ~closed_in:[ 0 ] nl mid out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-9;
  let sys = Compile.compile nl (Clock.make [ 1e-6; 1e-6 ]) in
  (* thermal equilibrium through the two series switches in phase 0 *)
  let k = (Scnoise_core.Covariance.sample sys).Scnoise_core.Covariance.k0 in
  check_close ~eps:1e-6 "kT/C with leak patch" (Const.kt () /. 1e-9)
    (Mat.get k 0 0)

let test_temperature_scaling () =
  let nl () =
    let nl = Netlist.create () in
    let out = Netlist.node nl "out" in
    Netlist.resistor nl out Netlist.ground 1e3;
    Netlist.capacitor nl out Netlist.ground 1e-9;
    nl
  in
  let q t =
    let sys = Compile.compile ~temperature:t (nl ()) (single_phase_clock 1e-6) in
    Mat.get sys.Pwl.phases.(0).Pwl.q 0 0
  in
  check_close "Q scales linearly with T" 2.0 (q 600.0 /. q 300.0)

(* --- Pwl --- *)

let build_switched_rc () =
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.switch ~name:"S" ~closed_in:[ 0 ] nl out Netlist.ground 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-9;
  Compile.compile nl (Clock.duty ~period:5e-6 ~duty:0.5)

let test_pwl_monodromy_switched_rc () =
  let sys = build_switched_rc () in
  let m = Pwl.monodromy sys in
  (* on-phase decay e^{-dT/RC}, off phase holds *)
  check_close ~eps:1e-12 "monodromy" (exp (-2.5e-6 /. 1e-6)) (Mat.get m 0 0);
  if not (Pwl.is_stable sys) then Alcotest.fail "switched RC must be stable"

let test_pwl_observable () =
  let sys = build_switched_rc () in
  let row = Pwl.observable sys "out" in
  check_close "unit row" 1.0 row.(0);
  (match Pwl.observable sys "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown observable accepted");
  let idx = Pwl.state_index sys "v(out)" in
  Alcotest.(check int) "state index" 0 idx

let test_pwl_phase_at () =
  let sys = build_switched_rc () in
  let p, off = Pwl.phase_at sys 2.6e-6 in
  Alcotest.(check int) "phase" 1 p;
  check_close ~eps:1e-6 "offset" 0.1e-6 off

let test_pwl_validate_catches_bad_tau () =
  let sys = build_switched_rc () in
  let bad =
    {
      sys with
      Pwl.phases =
        Array.map (fun p -> { p with Pwl.tau = p.Pwl.tau *. 2.0 }) sys.Pwl.phases;
    }
  in
  match Pwl.validate bad with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "validate accepted wrong durations"

(* --- Simulate --- *)

let build_driven_rc ?(waveform = fun _ -> 1.0) () =
  let nl = Netlist.create () in
  let vin = Netlist.node nl "vin" in
  let out = Netlist.node nl "out" in
  Netlist.vsource ~name:"Vin" nl vin waveform;
  Netlist.resistor ~name:"R" nl vin out 1e3;
  Netlist.capacitor ~name:"C" nl out Netlist.ground 1e-9;
  Compile.compile nl (single_phase_clock 1e-6)

let test_simulate_step_response () =
  let sys = build_driven_rc () in
  let wf =
    Simulate.transient ~steps_per_phase:256 sys ~periods:5
      ~x0:(Vec.create sys.Pwl.nstates)
  in
  let v = Simulate.observe sys "out" wf in
  let t_end = wf.Simulate.times.(Array.length v - 1) in
  check_close ~eps:1e-6 "RC step response"
    (1.0 -. exp (-.t_end /. 1e-6))
    v.(Array.length v - 1)

let test_simulate_sine_gain () =
  let fsig = 1.59155e5 in
  (* w RC = 1 at 1/(2 pi RC) = 159 kHz *)
  let w = 2.0 *. Float.pi *. fsig in
  let sys = build_driven_rc ~waveform:(fun t -> sin (w *. t)) () in
  (* amplitude check over the trailing samples after settling *)
  let wf =
    Simulate.transient ~steps_per_phase:512 sys ~periods:40 ~x0:[| 0.0 |]
  in
  let v = Simulate.observe sys "out" wf in
  let n = Array.length v in
  let maxlast = ref 0.0 in
  for i = n - (n / 4) to n - 1 do
    maxlast := max !maxlast (abs_float v.(i))
  done;
  (* |H| at w RC = 1 is 1/sqrt 2 *)
  check_close ~eps:2e-2 "sine gain" (1.0 /. sqrt 2.0) !maxlast

let test_simulate_steady_state_dc () =
  (* with a DC input the clock-period map converges to the DC solution *)
  let sys = build_driven_rc () in
  let x = Simulate.steady_state ~steps_per_phase:128 sys ~x0:[| 0.0 |] in
  check_close ~eps:1e-8 "dc steady state" 1.0 x.(0)

let () =
  Alcotest.run "circuit"
    [
      ( "clock",
        [
          Alcotest.test_case "make" `Quick test_clock_make;
          Alcotest.test_case "duty" `Quick test_clock_duty;
          Alcotest.test_case "phase_at" `Quick test_clock_phase_at;
          Alcotest.test_case "two_phase" `Quick test_clock_two_phase;
          Alcotest.test_case "invalid" `Quick test_clock_invalid;
          Alcotest.test_case "boundaries" `Quick test_clock_boundaries;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "validation" `Quick test_netlist_validation;
          Alcotest.test_case "find_node" `Quick test_netlist_find_node;
          Alcotest.test_case "double drive" `Quick test_netlist_double_drive;
          Alcotest.test_case "names" `Quick test_netlist_names;
          Alcotest.test_case "pp" `Quick test_netlist_pp;
        ] );
      ( "compile",
        [
          Alcotest.test_case "rc matrices" `Quick test_compile_rc_matrices;
          Alcotest.test_case "rc kT/C" `Quick test_compile_rc_kt_over_c;
          Alcotest.test_case "divider elimination" `Quick test_compile_divider_elimination;
          Alcotest.test_case "miller integrator" `Quick test_compile_miller_integrator;
          Alcotest.test_case "single stage opamp" `Quick test_compile_single_stage_opamp;
          Alcotest.test_case "phase error" `Quick test_compile_phase_error;
          Alcotest.test_case "no state" `Quick test_compile_no_state_error;
          Alcotest.test_case "floating cap" `Quick test_compile_floating_cap_error;
          Alcotest.test_case "noise per phase" `Quick test_compile_noise_count_per_phase;
          Alcotest.test_case "noiseless flag" `Quick test_compile_noiseless_flag;
          Alcotest.test_case "g_leak patch" `Quick test_compile_g_leak_patch;
          Alcotest.test_case "temperature" `Quick test_temperature_scaling;
        ] );
      ( "pwl",
        [
          Alcotest.test_case "monodromy" `Quick test_pwl_monodromy_switched_rc;
          Alcotest.test_case "observable" `Quick test_pwl_observable;
          Alcotest.test_case "phase_at" `Quick test_pwl_phase_at;
          Alcotest.test_case "validate" `Quick test_pwl_validate_catches_bad_tau;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "step response" `Quick test_simulate_step_response;
          Alcotest.test_case "sine gain" `Quick test_simulate_sine_gain;
          Alcotest.test_case "dc steady state" `Quick test_simulate_steady_state_dc;
        ] );
    ]
