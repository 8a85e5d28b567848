(* Oracle tests for the covariance engine.  The oracles share none of
   the engine's economics: the reference recurrence builds its own grid
   and runs one Van Loan discretisation per interval with exact step
   bits — no operator memo, no run doubling — and the equipartition
   check compares against kT·C⁻¹ in closed form at the hundred-state
   size the engine runs on. *)

module Mat = Scnoise_linalg.Mat
module Vanloan = Scnoise_linalg.Vanloan
module Lyapunov = Scnoise_linalg.Lyapunov
module Pwl = Scnoise_circuit.Pwl
module Covariance = Scnoise_core.Covariance
module Psd = Scnoise_core.Psd
module Const = Scnoise_util.Const
module LAD = Scnoise_circuits.Sc_ladder
module LP = Scnoise_circuits.Sc_lowpass
module RC = Scnoise_circuits.Switched_rc
module SCI = Scnoise_circuits.Sc_integrator
module BP = Scnoise_circuits.Sc_bandpass
module Pool = Scnoise_par.Pool

let rel_diff ~scale a b = Mat.max_abs_diff a b /. Float.max 1e-300 scale

(* --- against the per-interval reference recurrence,
   [Oracle.covariance] --- *)

let check_ks_against_oracle name s o =
  let ks = Covariance.unroll s and kos = Covariance.unroll o in
  Alcotest.(check int) (name ^ " grid points") (Array.length kos)
    (Array.length ks);
  let worst = ref 0.0 in
  Array.iteri
    (fun i ko ->
      worst := Float.max !worst (rel_diff ~scale:(Mat.max_abs ko) ks.(i) ko))
    kos;
  if not (!worst <= 1e-10) then
    Alcotest.failf "%s: ks differ from the oracle by %.3e relative" name !worst

let check_psd_against_oracle name s o output freqs =
  let db e = Psd.sweep_db e freqs in
  let ps = db (Psd.of_sampled s ~output) and po = db (Psd.of_sampled o ~output) in
  let err = ref 0.0 in
  Array.iteri (fun i x -> err := Float.max !err (Float.abs (x -. po.(i)))) ps;
  if not (!err <= 1e-9) then
    Alcotest.failf "%s: PSD differs from the oracle by %.3e dB" name !err

let samples_vs_oracle ~samples_per_phase ~steady sys =
  ( Covariance.sample ~samples_per_phase sys,
    Oracle.covariance ~steady ~samples_per_phase sys )

let check_against_oracle name ~samples_per_phase ~steady sys output freqs =
  let s, o = samples_vs_oracle ~samples_per_phase ~steady sys in
  check_ks_against_oracle name s o;
  check_psd_against_oracle name s o output freqs

let test_oracle_ladder40 () =
  let b = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
  Alcotest.(check int) "ladder states" 40 b.LAD.sys.Pwl.nstates;
  check_against_oracle "ladder n=40" ~samples_per_phase:48
    ~steady:(fun phi q -> Lyapunov.solve_discrete_doubling phi q)
    b.LAD.sys b.LAD.output [| 1e3; 1e4; 3e4 |]

let test_oracle_lowpass () =
  let b = LP.build LP.default in
  check_against_oracle "sc_lowpass" ~samples_per_phase:96
    ~steady:Kron.solve_discrete b.LP.sys b.LP.output
    [| 100.0; 1e3; 4e3; 16e3 |]

(* The switched RC and the SC integrator, with the covariance trace
   and the PSD checked as separate cases. *)
let small_circuits () =
  let rc = RC.build RC.default and sci = SCI.build SCI.default in
  [
    ("switched_rc", rc.RC.sys, rc.RC.output, [| 1e3; 1e4; 1e5 |]);
    ("sc_integrator", sci.SCI.sys, sci.SCI.output, [| 1e3; 1e4; 4e4 |]);
  ]

let test_oracle_covariance_small () =
  List.iter
    (fun (name, sys, _, _) ->
      let s, o =
        samples_vs_oracle ~samples_per_phase:96
          ~steady:Kron.solve_discrete sys
      in
      check_ks_against_oracle name s o)
    (small_circuits ())

let test_oracle_psd_small () =
  List.iter
    (fun (name, sys, output, freqs) ->
      let s, o =
        samples_vs_oracle ~samples_per_phase:96
          ~steady:Kron.solve_discrete sys
      in
      check_psd_against_oracle name s o output freqs)
    (small_circuits ())

(* --- run doubling against sequential steps --- *)

let test_run_map () =
  let rng = Random.State.make [| 0x5c; 7 |] in
  let n = 6 in
  let a =
    Mat.init n n (fun i j ->
        if i = j then -3.0 -. Random.State.float rng 1.0
        else Random.State.float rng 1.0 -. 0.5)
  in
  let b = Mat.init n 2 (fun _ _ -> Random.State.float rng 2.0 -. 1.0) in
  let d = Vanloan.discretize_b ~a ~b ~tau:0.3 in
  let k0 = Mat.init n n (fun i j -> if i = j then 0.5 else 0.0) in
  for len = 1 to 9 do
    let phi = ref (Mat.identity n) and k = ref k0 in
    for _ = 1 to len do
      phi := Mat.mul d.Vanloan.phi !phi;
      k := Vanloan.propagate d !k
    done;
    let r = Vanloan.repeat d len in
    let kr = Vanloan.propagate r k0 in
    if
      rel_diff ~scale:(Mat.max_abs !phi) r.Vanloan.phi !phi > 1e-12
      || rel_diff ~scale:(Mat.max_abs !k) kr !k > 1e-12
    then Alcotest.failf "repeat d %d differs from %d sequential steps" len len
  done;
  let id = Vanloan.repeat d 0 in
  Alcotest.(check bool) "len 0 is the identity map" true
    (Mat.max_abs_diff id.Vanloan.phi (Mat.identity n) = 0.0
    && Mat.max_abs id.Vanloan.qd = 0.0)

(* --- a rank-deficient covariance: one noise source on a long chain ---

   A long RC line with a single noisy resistor keeps the covariance
   rank far below n; the far end carries essentially zero variance, so
   agreement is judged relative to the largest entry. *)

let chain_system n =
  let a =
    Mat.init n n (fun i j ->
        if i = j then -2.2 -. (0.01 *. float_of_int i)
        else if abs (i - j) = 1 then 1.0
        else 0.0)
  in
  let b = Mat.init n 1 (fun i _ -> if i = 0 then 1.0 else 0.0) in
  let q = Mat.mul b (Mat.transpose b) in
  let phase tau : Pwl.phase =
    { tau; a; b; q;
      e = Mat.create n 0;
      e_dot = Mat.create n 0;
      noise_labels = [| "R1" |] }
  in
  {
    Pwl.period = 2.0;
    phases = [| phase 1.0; phase 1.0 |];
    nstates = n;
    state_names = Array.init n (Printf.sprintf "v%d");
    inputs = [||];
    observables = [];
  }

let test_chain_k0_vs_kron () =
  let sys = chain_system 40 in
  let s = Covariance.sample ~samples_per_phase:12 sys in
  let o = Oracle.covariance ~samples_per_phase:12 sys in
  let scale = Mat.max_abs o.Covariance.k0 in
  let err = rel_diff ~scale s.Covariance.k0 o.Covariance.k0 in
  if not (err <= 1e-9) then
    Alcotest.failf "k0 differs from the Kron solve by %.3e relative" err

(* --- equipartition at the engine's size ---

   Every node of a passive RC network at uniform temperature holds
   kT/C with no cross-correlation, switch or not, so on the 50-stage
   parasitic ladder (100 states) each K(t_i) must be kT·C⁻¹: kT/c on
   stage nodes, kT/c_par on parasitic nodes, zero elsewhere. *)

let check_equipartition ~bound p =
  let b = LAD.build p in
  let sys = b.LAD.sys in
  let n = sys.Pwl.nstates in
  Alcotest.(check int) "ladder states" 100 n;
  let kt = Const.kt ~temperature:p.LAD.temperature () in
  let parasitic i = String.starts_with ~prefix:"v(p" sys.Pwl.state_names.(i) in
  Alcotest.(check int) "parasitic states" 50
    (List.length (List.filter parasitic (List.init n Fun.id)));
  let expected =
    Mat.init n n (fun i j ->
        if i <> j then 0.0
        else if parasitic i then kt /. p.LAD.c_par
        else kt /. p.LAD.c)
  in
  let s = Covariance.sample ~samples_per_phase:48 sys in
  let scale = Mat.max_abs expected in
  let worst = ref 0.0 in
  Covariance.iter_trace s (fun _ k ->
      worst := Float.max !worst (rel_diff ~scale k expected));
  Printf.printf "worst K(t_i) error against kT·C⁻¹: %.3e relative\n" !worst;
  if not (!worst <= bound) then
    Alcotest.failf "K(t_i) is %.3e off kT·C⁻¹ (relative)" !worst

let test_equipartition_ladder100 () =
  check_equipartition ~bound:1e-9 (LAD.with_parasitics (LAD.with_stages 50))

(* The same ladder with 10-ohm resistors and switches: norm(A)·tau is
   about 2.1e4 per phase, so 42 of each phase's 48 grid intervals take
   the stiff Van Loan path, composing up to 25 sub-steps each.  The error
   (2.5e-8 measured) is the augmented exponential's, taken at
   norm(A)·h close to the stiffness threshold of 20, compounded over
   the composition. *)
let test_equipartition_stiff_ladder100 () =
  let p = { (LAD.with_stages 50) with LAD.r = 10.0; r_switch = 10.0 } in
  check_equipartition ~bound:1e-7 (LAD.with_parasitics p)

(* --- no steady state ---

   The band-pass biquad's design equations at f0 = 12 kHz, q = 2 (a
   128 kHz clock) give a Floquet radius of 1.026, which [design]
   refuses, so the record comes from the unchecked [coefficients].  The
   covariance has no fixed point: sampling must raise, not return a
   matrix. *)

let test_unstable_raises () =
  let b = BP.build (BP.coefficients ~clock_hz:128e3 ~f0:12e3 ~q:2.0 ()) in
  match Covariance.sample b.BP.sys with
  | exception Lyapunov.Not_stable _ -> ()
  | s ->
      let v = Covariance.variance s b.BP.output in
      Alcotest.failf "unstable circuit sampled: output variance %g V^2"
        v.Covariance.boundary

(* --- the streamed trace ---

   [iter_trace] against the chain it replaces, stepped here over the
   record's own operators with the allocating expression [propagate]
   was before it wrote into buffers, bit for bit, on samples built at
   one and at four jobs. *)

let bits m = Array.map Int64.bits_of_float (Mat.data m)

let propagate (d : Vanloan.t) k =
  Mat.symmetrize
    (Mat.add
       (Mat.mul d.Vanloan.phi (Mat.mul k (Mat.transpose d.Vanloan.phi)))
       d.Vanloan.qd)

let check_stream_against_chain name s =
  let k = ref s.Covariance.k0 and steps = ref 0 in
  Covariance.iter_trace s (fun i ki ->
      if i > 0 then
        k := propagate s.Covariance.ops.(s.Covariance.interval_op.(i - 1)) !k;
      if bits ki <> bits !k then
        Alcotest.failf "%s: K(t_%d) differs from the propagate chain" name i;
      steps := i);
  Alcotest.(check int) (name ^ " intervals")
    (Array.length s.Covariance.interval_op)
    !steps

let test_stream_vs_chain () =
  let lad = LAD.build (LAD.with_parasitics (LAD.with_stages 20))
  and lp = LP.build LP.default
  and sci = SCI.build SCI.default in
  List.iter
    (fun (name, sys, spp) ->
      List.iter
        (fun jobs ->
          let pool = Pool.create ~jobs () in
          Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
          check_stream_against_chain
            (Printf.sprintf "%s jobs=%d" name jobs)
            (Covariance.sample ~samples_per_phase:spp ~pool sys))
        [ 1; 4 ])
    [
      ("ladder n=40", lad.LAD.sys, 48);
      ("sc_lowpass", lp.LP.sys, 96);
      ("sc_integrator", sci.SCI.sys, 96);
    ]

(* The engine records the variance of its one unroll; a fresh
   [Covariance.variance] of the same sample must give the same bits. *)
let test_engine_variance () =
  let sci = SCI.build SCI.default in
  let s = Covariance.sample ~samples_per_phase:96 sci.SCI.sys in
  let e = Psd.of_sampled s ~output:sci.SCI.output in
  let v = Covariance.variance s sci.SCI.output and ve = Psd.variance e in
  let fl x = Int64.bits_of_float x in
  Alcotest.(check (array int64)) "trace"
    (Array.map fl v.Covariance.trace)
    (Array.map fl ve.Covariance.trace);
  let summary (v : Covariance.variance) =
    List.map fl
      [ v.Covariance.boundary; v.Covariance.average; v.Covariance.closure_error ]
  in
  Alcotest.(check (list int64)) "boundary, average, closure" (summary v)
    (summary ve)

(* Words allocated directly in the major heap while [f] runs: every
   [n×n] float matrix at n = 40 (1,600 words) goes there, while minor
   collections only move words the counters also record as promoted. *)
let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  f ();
  let _, p1, m1 = Gc.counters () in
  m1 -. m0 -. (p1 -. p0)

(* A 40-state unroll allocates a fixed set of n×n buffers — two K
   matrices, two work matrices and one transpose per distinct
   operator — whether the grid has 24 or 96 samples per phase. *)
let test_stream_allocation () =
  let lad = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
  let n = lad.LAD.sys.Pwl.nstates in
  let buffers spp =
    let s = Covariance.sample ~samples_per_phase:spp lad.LAD.sys in
    let w =
      direct_major_words (fun () -> Covariance.iter_trace s (fun _ _ -> ()))
    in
    (Array.length s.Covariance.interval_op, Array.length s.Covariance.ops,
     int_of_float (Float.round (w /. float_of_int (n * n))))
  in
  let i24, ops24, b24 = buffers 24 and i96, ops96, b96 = buffers 96 in
  Printf.printf "spp 24: %d intervals, %d operators, %d n×n buffers\n" i24
    ops24 b24;
  Printf.printf "spp 96: %d intervals, %d operators, %d n×n buffers\n" i96
    ops96 b96;
  Alcotest.(check int) "same buffers at spp 24 and 96" b24 b96;
  if b96 > 4 + ops96 then
    Alcotest.failf "%d n×n buffers for %d operators" b96 ops96

let () =
  Alcotest.run "covariance"
    [
      ( "oracle",
        [
          Alcotest.test_case "recurrence ladder n=40" `Quick
            test_oracle_ladder40;
          Alcotest.test_case "recurrence sc_lowpass" `Quick test_oracle_lowpass;
          Alcotest.test_case "covariance parity" `Quick
            test_oracle_covariance_small;
          Alcotest.test_case "psd parity" `Quick test_oracle_psd_small;
          Alcotest.test_case "run_map vs sequential steps" `Quick test_run_map;
          Alcotest.test_case "chain k0 vs kron" `Quick test_chain_k0_vs_kron;
          Alcotest.test_case "equipartition ladder n=100" `Quick
            test_equipartition_ladder100;
          Alcotest.test_case "equipartition stiff ladder n=100" `Quick
            test_equipartition_stiff_ladder100;
          Alcotest.test_case "unstable monodromy raises" `Quick
            test_unstable_raises;
        ] );
      ( "stream",
        [
          Alcotest.test_case "iter_trace == propagate chain, jobs 1 and 4"
            `Quick test_stream_vs_chain;
          Alcotest.test_case "engine variance == Covariance.variance" `Quick
            test_engine_variance;
          Alcotest.test_case "unroll buffers independent of grid size" `Quick
            test_stream_allocation;
        ] );
    ]
