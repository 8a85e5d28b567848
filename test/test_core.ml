module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Const = Scnoise_util.Const
module Db = Scnoise_util.Db
module Clock = Scnoise_circuit.Clock
module Netlist = Scnoise_circuit.Netlist
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Phase_grid = Scnoise_core.Phase_grid
module Covariance = Scnoise_core.Covariance
module Psd = Scnoise_core.Psd
module Contrib = Scnoise_core.Contrib
module Lti = Scnoise_analytic.Lti
module A_src = Scnoise_analytic.Switched_rc
module C_src = Scnoise_circuits.Switched_rc
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let check_db ?(tol = 0.05) msg expected actual =
  let d = abs_float (Db.of_power expected -. Db.of_power actual) in
  if d > tol then
    Alcotest.failf "%s: %g vs %g differ by %.3f dB (tol %.3f)" msg expected
      actual d tol

(* --- Phase_grid --- *)

let mat_of rows = Mat.of_arrays (Array.of_list (List.map Array.of_list rows))

let check_grid g tau =
  let n = Array.length g in
  if g.(0) <> 0.0 then Alcotest.fail "grid must start at 0";
  if abs_float (g.(n - 1) -. tau) > 1e-15 *. tau then
    Alcotest.fail "grid must end at tau";
  for i = 1 to n - 1 do
    if g.(i) <= g.(i - 1) then Alcotest.fail "grid must be increasing"
  done

let test_grid_uniform () =
  let g = Phase_grid.uniform ~tau:2.0 ~n:10 in
  Alcotest.(check int) "points" 11 (Array.length g);
  check_grid g 2.0;
  check_close "step" 0.2 (g.(1) -. g.(0))

let test_grid_nonstiff_is_uniform () =
  let a = mat_of [ [ -1.0 ] ] in
  let g = Phase_grid.make ~a ~tau:1.0 ~n:8 in
  check_grid g 1.0;
  check_close "uniform when non-stiff" 0.125 (g.(1) -. g.(0))

let test_grid_stiff_clusters () =
  let a = mat_of [ [ -1e8 ] ] in
  let tau = 1e-4 in
  let g = Phase_grid.make ~a ~tau ~n:64 in
  check_grid g tau;
  (* first step must resolve the fast time constant *)
  if g.(1) -. g.(0) > 1e-7 then
    Alcotest.failf "boundary layer unresolved: first step %g" (g.(1) -. g.(0))

let test_grid_zero_dynamics () =
  let a = mat_of [ [ 0.0 ] ] in
  let g = Phase_grid.make ~a ~tau:1.0 ~n:4 in
  check_grid g 1.0;
  check_close "layer" 0.0 (Phase_grid.boundary_layer a 1.0)

(* --- shared circuits --- *)

let switched_rc ?(t_over_rc = 5.0) ?(duty = 0.5) () =
  C_src.build (C_src.with_ratio ~t_over_rc ~duty ())

let analytic_of (b : C_src.built) =
  let p = b.C_src.params in
  A_src.make ~temperature:p.C_src.temperature ~r:p.C_src.r ~c:p.C_src.c
    ~period:p.C_src.period ~duty:p.C_src.duty ()

(* plain RC as a single-phase "switched" system *)
let plain_rc r c =
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.resistor ~name:"R" nl out Netlist.ground r;
  Netlist.capacitor nl out Netlist.ground c;
  let sys = Compile.compile nl (Clock.make [ 1e-6 ]) in
  (sys, Pwl.observable sys "out")

(* --- Covariance --- *)

let test_cov_switched_rc_variance () =
  let b = switched_rc () in
  let s = Covariance.sample b.C_src.sys in
  let v = Covariance.variance s b.C_src.output in
  check_close ~eps:1e-10 "kT/C at boundary"
    (Const.kt () /. b.C_src.params.C_src.c)
    v.Covariance.boundary;
  (* the switched RC variance is constant over the whole period *)
  let tr = v.Covariance.trace in
  Array.iter
    (fun v -> check_close ~eps:1e-9 "constant variance" tr.(0) v)
    tr;
  check_close ~eps:1e-10 "average too"
    (Const.kt () /. b.C_src.params.C_src.c)
    v.Covariance.average

let test_cov_closure () =
  let b = switched_rc ~t_over_rc:20.0 ~duty:0.25 () in
  let s = Covariance.sample b.C_src.sys in
  let e = (Covariance.variance s b.C_src.output).Covariance.closure_error in
  if e > 1e-20 then Alcotest.failf "periodicity closure error %g" e

(* [n] periods of the affine map K -> Phi K Phiᵀ + Q from K = 0: the
   naive steady-state iteration the direct Lyapunov solves replace *)
let iterate_steady phi q n =
  let k = ref (Mat.create (Mat.rows q) (Mat.cols q)) in
  for _ = 1 to n do
    k := Mat.symmetrize (Mat.add (Mat.mul phi (Mat.mul !k (Mat.transpose phi))) q)
  done;
  !k

let test_cov_solvers_agree () =
  let b = switched_rc () in
  let { Covariance.phi_period = phi; q_period = q; k0 = k2; _ } =
    Covariance.sample b.C_src.sys
  in
  let k1 = Kron.solve_discrete phi q in
  let k3 = iterate_steady phi q 400 in
  if Mat.max_abs_diff k1 k2 > 1e-14 then Alcotest.fail "kron vs doubling";
  if Mat.max_abs_diff k1 k3 > 1e-5 *. Mat.max_abs k1 then
    Alcotest.fail "kron vs iterate"

let test_cov_lti_matches_continuous_lyapunov () =
  let sys, out = plain_rc 1e3 1e-9 in
  let s = Covariance.sample sys in
  let ph = sys.Pwl.phases.(0) in
  let k_ref = Kron.solve_continuous ph.Pwl.a ph.Pwl.q in
  check_close ~eps:1e-9 "LTI limit"
    (Vec.dot out (Mat.mul_vec k_ref out))
    (Covariance.variance s out).Covariance.boundary

let test_cov_grid_kinds_agree () =
  let b = switched_rc () in
  let s1 = Covariance.sample ~grid:`Stretched b.C_src.sys in
  let s2 = Covariance.sample ~grid:`Uniform b.C_src.sys in
  check_close ~eps:1e-10 "grids agree on steady variance"
    (Covariance.variance s1 b.C_src.output).Covariance.boundary
    (Covariance.variance s2 b.C_src.output).Covariance.boundary

let test_cov_period_map_stability () =
  let b = switched_rc () in
  let { Covariance.phi_period = phi; q_period = q; _ } =
    Covariance.sample b.C_src.sys
  in
  if Mat.get phi 0 0 >= 1.0 then Alcotest.fail "monodromy not contracting";
  if Mat.get q 0 0 <= 0.0 then Alcotest.fail "no accumulated noise"

(* --- Psd (MFT) vs closed form --- *)

let test_psd_matches_analytic_cases () =
  List.iter
    (fun (t_over_rc, duty) ->
      let b = switched_rc ~t_over_rc ~duty () in
      let eng = Psd.prepare ~samples_per_phase:128 b.C_src.sys ~output:b.C_src.output in
      let a = analytic_of b in
      List.iter
        (fun f_over_fc ->
          let f = f_over_fc /. b.C_src.params.C_src.period in
          check_db ~tol:0.02
            (Printf.sprintf "T/RC=%g d=%g f=%g" t_over_rc duty f)
            (A_src.psd a f) (Psd.psd eng ~f))
        [ 0.0; 0.1; 0.5; 0.9; 1.3; 2.7; 5.5 ])
    [ (5.0, 0.5); (5.0, 0.25); (20.0, 0.5); (20.0, 0.25); (2.0, 0.75) ]

let test_psd_lti_limit () =
  let r = 1e3 and c = 1e-9 in
  let sys, out = plain_rc r c in
  let eng = Psd.prepare sys ~output:out in
  List.iter
    (fun f ->
      check_db ~tol:0.01 "LTI Lorentzian" (Lti.rc_lowpass_psd ~r ~c f)
        (Psd.psd eng ~f))
    [ 0.0; 1e4; 1.59155e5; 1e6 ]

let test_psd_even_in_f () =
  let b = switched_rc () in
  let eng = Psd.prepare b.C_src.sys ~output:b.C_src.output in
  let f = 1.23e5 in
  check_close ~eps:1e-9 "S(-f) = S(f)" (Psd.psd eng ~f) (Psd.psd eng ~f:(-.f))

let test_psd_sweep_consistency () =
  let b = switched_rc () in
  let eng = Psd.prepare b.C_src.sys ~output:b.C_src.output in
  let freqs = [| 1e3; 1e4; 1e5 |] in
  let s = Psd.sweep eng freqs in
  Array.iteri
    (fun i f -> check_close "sweep = pointwise" (Psd.psd eng ~f) s.(i))
    freqs

let test_psd_positive () =
  let b = switched_rc ~t_over_rc:20.0 ~duty:0.25 () in
  let eng = Psd.prepare b.C_src.sys ~output:b.C_src.output in
  Array.iter
    (fun f ->
      if Psd.psd eng ~f < 0.0 then Alcotest.failf "negative PSD at %g" f)
    (Scnoise_util.Grid.logspace 1e2 1e7 40)

let test_psd_envelope_periodicity () =
  let b = switched_rc () in
  let eng = Psd.prepare b.C_src.sys ~output:b.C_src.output in
  let y = Bvp_fixture.samples (Bvp_fixture.of_engine eng) ~f:5e4 in
  let n = Cvec.dim y in
  let d = Cx.modulus (Cx.( -: ) (Cvec.get y 0) (Cvec.get y (n - 1))) in
  let scale = Cx.modulus (Cvec.get y 0) in
  if d > 1e-9 *. (1.0 +. scale) then
    Alcotest.failf "output envelope not periodic: %g" d

(* A prepared engine keeps what the output reads — the forcing K(t_i) c,
   one real row cᵀ Phi(t_i, 0) per grid point and the per-(phase, h)
   stepper factors — not an n x n matrix per grid point, and neither
   does the sampled covariance under it. *)
let test_engine_footprint () =
  let module LAD = Scnoise_circuits.Sc_ladder in
  let b = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
  let eng = Psd.prepare ~samples_per_phase:48 b.LAD.sys ~output:b.LAD.output in
  let cov = Psd.covariance eng in
  let n = b.LAD.sys.Pwl.nstates in
  let npts = Array.length cov.Covariance.times in
  let own =
    Obj.reachable_words (Obj.repr eng) - Obj.reachable_words (Obj.repr cov)
  in
  let bound = npts * n * n in
  Alcotest.(check bool)
    (Printf.sprintf "%d-state engine holds %d words of its own (< %d)" n own
       bound)
    true (own < bound);
  (* the sampled record itself, besides the circuit, the distinct
     operators and the run maps: k0, Q and the monodromy, and no n×n
     matrix per grid point (no K(t_i), no Phi(t_i, 0)); one more n²
     covers headers and the grid *)
  let maps =
    Array.fold_left
      (fun acc r ->
        match r.Covariance.map with
        | Some d -> acc + Obj.reachable_words (Obj.repr d)
        | None -> acc)
      0 cov.Covariance.runs
  in
  let held =
    Obj.reachable_words (Obj.repr cov)
    - Obj.reachable_words (Obj.repr cov.Covariance.sys)
    - Obj.reachable_words (Obj.repr cov.Covariance.ops)
    - maps
  in
  let cov_bound = 4 * n * n in
  Alcotest.(check bool)
    (Printf.sprintf
       "%d-state sample holds %d words besides its operators and run maps \
        (< %d)"
       n held cov_bound)
    true (held < cov_bound);
  (* and each run map is one (Phi, Qd) pair *)
  Array.iter
    (fun r ->
      match r.Covariance.map with
      | Some d ->
          Alcotest.(check bool) "a run map holds two n×n matrices" true
            (Obj.reachable_words (Obj.repr d) < (2 * n * n) + 16)
      | None -> ())
    cov.Covariance.runs

let test_psd_white_input_independence () =
  (* a plain RC PSD at DC must be 2kTR regardless of grid resolution *)
  let r = 2e3 and c = 0.5e-9 in
  let sys, out = plain_rc r c in
  List.iter
    (fun spp ->
      let eng = Psd.prepare ~samples_per_phase:spp sys ~output:out in
      check_db ~tol:0.01 "2kTR at DC" (2.0 *. Const.kt () *. r)
        (Psd.psd eng ~f:0.0))
    [ 16; 64; 256 ]

let test_psd_parseval () =
  (* integrating the PSD over frequency must recover the average
     variance (Parseval); the switched RC spectrum decays slowly (~1/f²
     from the sampled component), so integrate far out and accept a few
     percent *)
  let b = switched_rc () in
  let eng = Psd.prepare b.C_src.sys ~output:b.C_src.output in
  let fmax = 400.0 /. b.C_src.params.C_src.period in
  let freqs = Scnoise_util.Grid.linspace 0.0 fmax 6000 in
  let s = Psd.sweep eng freqs in
  let integral = 2.0 *. Scnoise_util.Grid.trapezoid freqs s in
  (* factor 2: S is double-sided, integrate over negative side too *)
  let var = Psd.average_variance eng in
  if abs_float (integral -. var) > 0.05 *. var then
    Alcotest.failf "Parseval: ∫S = %g vs variance %g" integral var

(* --- Contrib --- *)

let two_source_rc () =
  (* two resistors in parallel to the same cap: contributions add *)
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.resistor ~name:"Ra" nl out Netlist.ground 1e3;
  Netlist.resistor ~name:"Rb" nl out Netlist.ground 4e3;
  Netlist.capacitor nl out Netlist.ground 1e-9;
  let sys = Compile.compile nl (Clock.make [ 1e-6 ]) in
  (sys, Pwl.observable sys "out")

let test_contrib_labels () =
  let sys, _ = two_source_rc () in
  Alcotest.(check (list string)) "labels" [ "Ra"; "Rb" ]
    (Contrib.source_labels sys)

let test_contrib_additivity () =
  let sys, out = two_source_rc () in
  let gap = Contrib.check_additivity sys ~output:out ~f:1e4 in
  if gap > 1e-9 then Alcotest.failf "contributions not additive: %g" gap

let test_contrib_ratio () =
  (* with Ra = 1k and Rb = 4k in parallel, source currents scale as 1/R,
     and both see the same impedance: PSD contributions scale as 1/R *)
  let sys, out = two_source_rc () in
  match Contrib.per_source_psd sys ~output:out ~f:1e3 with
  | [ ("Ra", sa); ("Rb", sb) ] ->
      check_close ~eps:1e-6 "4:1 ratio" 4.0 (sa /. sb)
  | _ -> Alcotest.fail "expected two labelled contributions"

let test_contrib_restrict_empty () =
  let sys, out = two_source_rc () in
  let none = Contrib.restrict sys ~keep:(fun _ -> false) in
  let eng = Psd.prepare none ~output:out in
  check_close "silent circuit" 0.0 (Psd.psd eng ~f:1e3);
  check_close "zero variance" 0.0 (Psd.average_variance eng)

(* --- solver ablation: the naive iteration converges with periods --- *)

let test_iterate_solver_converges_with_periods () =
  let b = switched_rc () in
  let { Covariance.phi_period = phi; q_period = q; _ } =
    Covariance.sample b.C_src.sys
  in
  let exact = Kron.solve_discrete phi q in
  let err n = Mat.max_abs_diff exact (iterate_steady phi q n) in
  let e1 = err 2 and e2 = err 8 in
  if e2 >= e1 then Alcotest.fail "iterate solver should improve with periods"

let () =
  Alcotest.run "core"
    [
      ( "phase_grid",
        [
          Alcotest.test_case "uniform" `Quick test_grid_uniform;
          Alcotest.test_case "non-stiff" `Quick test_grid_nonstiff_is_uniform;
          Alcotest.test_case "stiff clusters" `Quick test_grid_stiff_clusters;
          Alcotest.test_case "zero dynamics" `Quick test_grid_zero_dynamics;
        ] );
      ( "covariance",
        [
          Alcotest.test_case "kT/C" `Quick test_cov_switched_rc_variance;
          Alcotest.test_case "closure" `Quick test_cov_closure;
          Alcotest.test_case "solvers agree" `Quick test_cov_solvers_agree;
          Alcotest.test_case "LTI limit" `Quick test_cov_lti_matches_continuous_lyapunov;
          Alcotest.test_case "grid kinds" `Quick test_cov_grid_kinds_agree;
          Alcotest.test_case "period map" `Quick test_cov_period_map_stability;
          Alcotest.test_case "iterate improves" `Quick test_iterate_solver_converges_with_periods;
        ] );
      ( "psd",
        [
          Alcotest.test_case "matches closed form" `Quick test_psd_matches_analytic_cases;
          Alcotest.test_case "LTI limit" `Quick test_psd_lti_limit;
          Alcotest.test_case "even in f" `Quick test_psd_even_in_f;
          Alcotest.test_case "sweep" `Quick test_psd_sweep_consistency;
          Alcotest.test_case "positive" `Quick test_psd_positive;
          Alcotest.test_case "envelope periodic" `Quick test_psd_envelope_periodicity;
          Alcotest.test_case "engine keeps no per-point matrices" `Quick
            test_engine_footprint;
          Alcotest.test_case "grid independence" `Quick test_psd_white_input_independence;
          Alcotest.test_case "parseval" `Slow test_psd_parseval;
        ] );
      ( "contrib",
        [
          Alcotest.test_case "labels" `Quick test_contrib_labels;
          Alcotest.test_case "additivity" `Quick test_contrib_additivity;
          Alcotest.test_case "ratio" `Quick test_contrib_ratio;
          Alcotest.test_case "restrict empty" `Quick test_contrib_restrict_empty;
        ] );
    ]
