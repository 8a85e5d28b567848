(* Property-based tests on randomly generated piecewise-LTI switched
   systems: the engines must satisfy their mathematical invariants for
   *every* stable system, not just the bundled circuits. *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Chol = Scnoise_linalg.Chol
module Eig = Scnoise_linalg.Eig
module Db = Scnoise_util.Db
module Grid = Scnoise_util.Grid
module Pwl = Scnoise_circuit.Pwl
module Covariance = Scnoise_core.Covariance
module Psd = Scnoise_core.Psd
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Esd = Scnoise_noise.Esd_transient

(* --- random system generator --- *)

type spec = {
  n : int;
  seed : int;
}

let spec_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    int_range 0 1_000_000 >|= fun seed -> { n; seed })

let spec_arb =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "{n=%d; seed=%d}" s.n s.seed)
    spec_gen

(* A stable random phase: diagonally dominant negative-definite-ish A at
   a 1e6 rad/s scale, random noise intensities at a compatible scale. *)
let random_phase rng n tau =
  let rate = 1e6 in
  let rnd () = (Random.State.float rng 2.0 -. 1.0) *. rate in
  let a =
    Mat.init n n (fun i j ->
        if i = j then -.(float_of_int n +. 1.5) *. rate +. (0.3 *. rnd ())
        else 0.5 *. rnd ())
  in
  let m = 1 + Random.State.int rng 2 in
  let b = Mat.init n m (fun _ _ -> rnd () *. 1e-6) in
  {
    Pwl.tau;
    a;
    b;
    q = Mat.mul b (Mat.transpose b);
    e = Mat.create n 0;
    e_dot = Mat.create n 0;
    noise_labels = Array.init m (fun j -> Printf.sprintf "w%d" j);
  }

let build spec =
  let rng = Random.State.make [| spec.seed; spec.n |] in
  let tau1 = 1e-6 +. Random.State.float rng 3e-6 in
  let tau2 = 1e-6 +. Random.State.float rng 3e-6 in
  let phases = [| random_phase rng spec.n tau1; random_phase rng spec.n tau2 |] in
  let sys =
    {
      Pwl.period = tau1 +. tau2;
      phases;
      nstates = spec.n;
      state_names = Array.init spec.n (Printf.sprintf "x%d");
      inputs = [||];
      observables = [];
    }
  in
  let output = Vec.init spec.n (fun i -> if i = 0 then 1.0 else 0.3) in
  (sys, output)

(* --- properties --- *)

let prop_stable =
  QCheck.Test.make ~count:60 ~name:"generated systems are stable" spec_arb
    (fun spec ->
      let sys, _ = build spec in
      Pwl.is_stable sys)

let prop_covariance_psd_matrix =
  QCheck.Test.make ~count:40
    ~name:"periodic covariance is positive semi-definite on the whole grid"
    spec_arb (fun spec ->
      let sys, _ = build spec in
      let s = Covariance.sample ~samples_per_phase:24 sys in
      Array.for_all
        (fun k -> Chol.is_psd ~tol:1e-6 k)
        (Oracle.unroll s))

let prop_solvers_agree =
  QCheck.Test.make ~count:40 ~name:"kron and doubling Lyapunov solvers agree"
    spec_arb (fun spec ->
      let sys, _ = build spec in
      let { Covariance.phi_period = phi; q_period = q; k0 = k2; _ } =
        Covariance.sample sys
      in
      let k1 = Kron.solve_discrete phi q in
      Mat.max_abs_diff k1 k2 <= 1e-8 *. (1.0 +. Mat.max_abs k1))

let prop_closure =
  QCheck.Test.make ~count:40 ~name:"periodicity closure" spec_arb (fun spec ->
      let sys, output = build spec in
      let s = Covariance.sample ~samples_per_phase:24 sys in
      (Covariance.variance s output).Covariance.closure_error
      <= 1e-9 *. (1.0 +. Mat.max_abs s.Covariance.k0))

let prop_psd_positive_even =
  QCheck.Test.make ~count:30 ~name:"PSD is positive and even in f" spec_arb
    (fun spec ->
      let sys, output = build spec in
      let eng = Psd.prepare ~samples_per_phase:48 sys ~output in
      let period = sys.Pwl.period in
      List.for_all
        (fun mult ->
          let f = mult /. period in
          let s = Psd.psd eng ~f in
          let s_neg = Psd.psd eng ~f:(-.f) in
          s >= -1e-12 *. Psd.average_variance eng *. period
          && abs_float (s -. s_neg) <= 1e-9 *. (abs_float s +. 1e-300))
        [ 0.0; 0.37; 1.18; 4.2 ])

let prop_variance_trace_nonnegative =
  QCheck.Test.make ~count:40 ~name:"variance trace is non-negative" spec_arb
    (fun spec ->
      let sys, output = build spec in
      let s = Covariance.sample ~samples_per_phase:24 sys in
      Array.for_all (fun v -> v >= 0.0)
        (Covariance.variance s output).Covariance.trace)

let prop_mft_matches_brute_force =
  QCheck.Test.make ~count:12 ~name:"MFT matches the brute-force transient"
    spec_arb (fun spec ->
      let sys, output = build spec in
      let eng = Psd.prepare ~samples_per_phase:64 sys ~output in
      let f = 0.73 /. sys.Pwl.period in
      let s_mft = Psd.psd eng ~f in
      let bf = Esd.psd ~samples_per_phase:64 ~tol_db:0.01 sys ~output ~f in
      (* zero-PSD corner cases: compare absolutely *)
      if s_mft < 1e-300 then bf.Esd.psd < 1e-250
      else abs_float (Db.delta bf.Esd.psd s_mft) <= 0.3)

let prop_parseval =
  QCheck.Test.make ~count:6 ~name:"wideband Parseval within 10%" spec_arb
    (fun spec ->
      let sys, output = build spec in
      let eng = Psd.prepare ~samples_per_phase:48 sys ~output in
      let var = Psd.average_variance eng in
      if var <= 0.0 then true
      else begin
        (* bandwidth is bounded by the largest rate in A (~n*1.5e6 by
           construction) plus sampled components at multiples of 1/T *)
        let fmax = 1e8 in
        let freqs = Grid.linspace 0.0 fmax 4000 in
        let s = Psd.sweep eng freqs in
        let integral = 2.0 *. Grid.trapezoid freqs s in
        abs_float (integral -. var) <= 0.1 *. var
      end)

let prop_floquet_inside_unit_disc =
  QCheck.Test.make ~count:40 ~name:"Floquet multipliers inside the unit disc"
    spec_arb (fun spec ->
      let sys, _ = build spec in
      Eig.spectral_radius (Pwl.monodromy sys) < 1.0)

let prop_envelope_conjugate_symmetry =
  (* the PSD integrand is built from the output envelope y(t) = cᵀ P(t);
     y at -f must be the conjugate of y at f, making the PSD even and
     real *)
  QCheck.Test.make ~count:20 ~name:"envelope conjugate symmetry" spec_arb
    (fun spec ->
      let sys, output = build spec in
      let eng = Psd.prepare ~samples_per_phase:32 sys ~output in
      let fx = Bvp_fixture.of_engine eng in
      let f = 0.61 /. sys.Pwl.period in
      let y_pos = Bvp_fixture.samples fx ~f in
      let y_neg = Bvp_fixture.samples fx ~f:(-.f) in
      let ok = ref true in
      for i = 0 to Cvec.dim y_pos - 1 do
        let z = Cvec.get y_pos i in
        let d = Cx.modulus (Cx.( -: ) (Cx.conj z) (Cvec.get y_neg i)) in
        if d > 1e-9 *. (1.0 +. Cx.modulus z) then ok := false
      done;
      !ok)

(* The output row here is not a unit row, so the solve's split
   cᵀ P_part + r_i · P(0) rounds differently from cᵀ applied to the
   superposed state; it must still agree with the reference solve. *)
let prop_general_row_vs_reference =
  QCheck.Test.make ~count:20 ~name:"general output row vs reference solve"
    spec_arb (fun spec ->
      let sys, output = build spec in
      let eng = Psd.prepare ~samples_per_phase:32 sys ~output in
      let fx = Bvp_fixture.of_engine eng in
      let period = sys.Pwl.period in
      let freqs = Array.map (fun k -> k /. period) [| 0.0; 0.37; 2.9 |] in
      let reference = Bvp_fixture.reference_psd fx ~period freqs in
      Array.for_all2
        (fun f r ->
          abs_float (Db.of_power (Psd.psd eng ~f) -. Db.of_power r) <= 1e-9)
        freqs reference)

let () =
  Alcotest.run "property"
    [
      ( "random-systems",
        [
          QCheck_alcotest.to_alcotest prop_stable;
          QCheck_alcotest.to_alcotest prop_covariance_psd_matrix;
          QCheck_alcotest.to_alcotest prop_solvers_agree;
          QCheck_alcotest.to_alcotest prop_closure;
          QCheck_alcotest.to_alcotest prop_psd_positive_even;
          QCheck_alcotest.to_alcotest prop_variance_trace_nonnegative;
          QCheck_alcotest.to_alcotest prop_mft_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_parseval;
          QCheck_alcotest.to_alcotest prop_floquet_inside_unit_disc;
          QCheck_alcotest.to_alcotest prop_envelope_conjugate_symmetry;
          QCheck_alcotest.to_alcotest prop_general_row_vs_reference;
        ] );
    ]
