(* Oracle tests for the covariance engine.  The oracles share none of
   the engine's economics: the reference recurrence builds its own grid
   and runs one Van Loan discretisation per interval with exact step
   bits — no operator memo, no run doubling — and the equipartition
   check compares against kT·C⁻¹ in closed form at the hundred-state
   size the engine runs on. *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
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
module DS = Scnoise_circuits.Sc_delta_sigma

let rel_diff ~scale a b = Mat.max_abs_diff a b /. Float.max 1e-300 scale

(* --- against the per-interval reference recurrence,
   [Oracle.covariance] --- *)

let check_ks_against_oracle name s o =
  let ks = Oracle.unroll s and kos = Oracle.unroll o in
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
   parasitic ladder (100 states) each K(t_i) is kT·C⁻¹: kT/c on stage
   nodes, kT/c_par on parasitic nodes, zero elsewhere.  The check reads
   what the PSD engine reads: the forcing K(t_i) c of the pass
   [Psd.of_sampled] runs must be kT·C⁻¹c, and the engine's variance
   trace kT/C at the output node, both relative to the largest entry of
   kT·C⁻¹ (kT/c_par), the scale the whole-matrix check used. *)

let sampled_ladder100 p =
  let b = LAD.build (LAD.with_parasitics p) in
  (b, Covariance.sample ~samples_per_phase:48 b.LAD.sys)

(* The stiff sample serves two groups and takes most of a second. *)
let sampled_stiff_ladder100 =
  lazy
    (sampled_ladder100
       { (LAD.with_stages 50) with LAD.r = 10.0; r_switch = 10.0 })

let check_equipartition ~bound (b, s) =
  let p = b.LAD.params and sys = b.LAD.sys in
  let n = sys.Pwl.nstates in
  Alcotest.(check int) "ladder states" 100 n;
  let kt = Const.kt ~temperature:p.LAD.temperature () in
  let parasitic i = String.starts_with ~prefix:"v(p" sys.Pwl.state_names.(i) in
  Alcotest.(check int) "parasitic states" 50
    (List.length (List.filter parasitic (List.init n Fun.id)));
  let c = b.LAD.output in
  let want =
    Array.init n (fun i ->
        (if parasitic i then kt /. p.LAD.c_par else kt /. p.LAD.c) *. c.(i))
  in
  let want_var = Vec.dot c want and scale = kt /. p.LAD.c_par in
  let tr = Covariance.output_trace s c in
  let var = Psd.variance (Psd.of_sampled s ~output:c) in
  let worst_k =
    Array.fold_left
      (fun m k -> Float.max m (Vec.max_abs_diff k want))
      0.0 tr.Covariance.forcing
    /. scale
  and worst_v =
    Array.fold_left
      (fun m v -> Float.max m (Float.abs (v -. want_var)))
      0.0 var.Covariance.trace
    /. scale
  in
  Printf.printf
    "worst error against kT·C⁻¹: forcing %.3e, variance %.3e relative\n"
    worst_k worst_v;
  if not (worst_k <= bound && worst_v <= bound) then
    Alcotest.failf "forcing %.3e, variance %.3e off kT·C⁻¹ (relative)" worst_k
      worst_v

let test_equipartition_ladder100 () =
  check_equipartition ~bound:1e-9 (sampled_ladder100 (LAD.with_stages 50))

(* The same ladder with 10-ohm resistors and switches: norm(A)·tau is
   about 2.1e4 per phase, so 42 of each phase's 48 grid intervals take
   the stiff Van Loan path, composing up to 25 sub-steps each.  The error
   (2.5e-8 measured) is the augmented exponential's, taken at
   norm(A)·h close to the stiffness threshold of 20, compounded over
   the composition. *)
let test_equipartition_stiff_ladder100 () =
  check_equipartition ~bound:1e-7 (Lazy.force sampled_stiff_ladder100)

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

(* --- the forcing pass against the dense recursion ---

   [Covariance.output_trace] unrolls each run of one operator
   algebraically (Horner chains on vectors); the oracle steps
   K(t_i) and Phi(t_i, 0) one interval at a time over the record's own
   operators ([Oracle.unroll], [Oracle.transitions]).  The two are the
   same sums in a different order, so every quantity must agree to
   within 1e-13 of its largest entry. *)

let parity_tol = 1e-13

let check_forcing name s c =
  let tr = Covariance.output_trace s c in
  let ek, ev, er =
    Oracle.trace_errors s c ~forcing:tr.Covariance.forcing
      ~trace:tr.Covariance.variance.Covariance.trace ~rows:tr.Covariance.rows
  in
  (* the monodromy against the interval chain, and the steady state
     against the fixed point of that chain's period map *)
  let chain = Oracle.transitions s in
  let phi = chain.(Array.length chain - 1) in
  let k0 = Lyapunov.solve_discrete_doubling phi s.Covariance.q_period in
  let em = rel_diff ~scale:(Mat.max_abs phi) s.Covariance.phi_period phi
  and e0 = rel_diff ~scale:(Mat.max_abs k0) s.Covariance.k0 k0 in
  Printf.printf
    "%s: forcing %.1e, variance %.1e, rows %.1e, monodromy %.1e, k0 %.1e\n"
    name ek ev er em e0;
  (* the pass's last transition is the record's monodromy, bit for bit *)
  let bits v = Array.map Int64.bits_of_float v in
  if
    bits tr.Covariance.rows.(Array.length tr.Covariance.rows - 1)
    <> bits (Mat.mul_transpose_vec s.Covariance.phi_period c)
  then Alcotest.failf "%s: the last row is not cᵀ phi_period" name;
  List.iter
    (fun (what, e) ->
      if not (e <= parity_tol) then
        Alcotest.failf "%s: %s is %.3e off the dense recursion" name what e)
    [ ("forcing", ek); ("variance", ev); ("rows", er); ("monodromy", em);
      ("k0", e0) ]

let test_forcing_ladders () =
  List.iter
    (fun stages ->
      let b = LAD.build (LAD.with_parasitics (LAD.with_stages stages)) in
      check_forcing
        (Printf.sprintf "ladder-%d" b.LAD.sys.Pwl.nstates)
        (Covariance.sample ~samples_per_phase:48 b.LAD.sys)
        b.LAD.output)
    [ 4; 20; 50 ]

let shipped_decks () =
  let lp = LP.build LP.default
  and sci = SCI.build SCI.default
  and bp = BP.build BP.default
  and ds = DS.build DS.default
  and rc = RC.build RC.default in
  [
    ("sc_lowpass", lp.LP.sys, lp.LP.output, 128);
    ("sc_integrator", sci.SCI.sys, sci.SCI.output, 96);
    ("sc_bandpass", bp.BP.sys, bp.BP.output, 96);
    ("sc_delta_sigma", ds.DS.sys, ds.DS.output, 96);
    ("switched_rc", rc.RC.sys, rc.RC.output, 96);
  ]

let test_forcing_decks () =
  List.iter
    (fun (name, sys, c, spp) ->
      check_forcing name (Covariance.sample ~samples_per_phase:spp sys) c)
    (shipped_decks ())

let test_forcing_stiff_ladder () =
  let b, s = Lazy.force sampled_stiff_ladder100 in
  check_forcing "stiff ladder-100" s b.LAD.output

(* Runs below, at and above the chain cap (2n intervals, at least
   2·run_min = 10): a longer run is cut into pieces of near-equal
   length, each with a map, and every piece's forcing, variance and
   rows must keep the parity of the short ones.  The uniform grids give
   one run per phase of exactly the cap (ladder-8 at 16 intervals), one
   past it (17, cut 9 + 8), one of exactly run_min (the switched RC at
   5) and one just short of it, which steps (4). *)
let test_forcing_chain_cap () =
  let rc = RC.build RC.default in
  let ladder stages = LAD.build (LAD.with_parasitics (LAD.with_stages stages)) in
  let lad8 = ladder 4 and lad40 = ladder 20 in
  let cases =
    [
      ("switched_rc spp 96", rc.RC.sys, rc.RC.output, 96, `Stretched, [ 10; 9 ]);
      ("ladder-8 spp 96", lad8.LAD.sys, lad8.LAD.output, 96, `Stretched, [ 15 ]);
      ("ladder-40 spp 96", lad40.LAD.sys, lad40.LAD.output, 96, `Stretched,
       [ 45 ]);
      ("ladder-8 uniform 16", lad8.LAD.sys, lad8.LAD.output, 16, `Uniform, [ 16 ]);
      ("ladder-8 uniform 17", lad8.LAD.sys, lad8.LAD.output, 17, `Uniform,
       [ 9; 8 ]);
      ("switched_rc uniform 5", rc.RC.sys, rc.RC.output, 5, `Uniform, [ 5 ]);
      ("switched_rc uniform 4", rc.RC.sys, rc.RC.output, 4, `Uniform, []);
    ]
  in
  List.iter
    (fun (name, sys, c, spp, grid, lens) ->
      let s = Covariance.sample ~samples_per_phase:spp ~grid sys in
      let n = sys.Pwl.nstates in
      let cap = Int.max (2 * n) 10 in
      let mapped =
        List.filter_map
          (fun r ->
            if r.Covariance.len > cap then
              Alcotest.failf "%s: a run of %d past the cap %d" name
                r.Covariance.len cap;
            Option.map (fun _ -> r.Covariance.len) r.Covariance.map)
          (Array.to_list s.Covariance.runs)
      in
      Printf.printf "%s (n = %d, cap %d): mapped runs %s\n" name n cap
        (String.concat " " (List.map string_of_int mapped));
      List.iter
        (fun len ->
          if not (List.mem len mapped) then
            Alcotest.failf "%s: no mapped run of %d" name len)
        lens;
      check_forcing name s c)
    cases

(* The rejected per-phase variant: across each phase, K(t_i) from one
   exponential of the phase's A over t_i - t_phase, as if the grid's
   computed operators composed exactly (e^{A h_a} e^{A h_b} =
   e^{A (h_a + h_b)}).  Its forcing misses the dense recursion by
   2.3e-6 (sc_lowpass) and 1.0e-6 (sc_integrator) relative, which the
   parity check must catch. *)
let per_phase_forcing s c =
  let ks = Oracle.unroll s in
  let start = ref 0 in
  Array.mapi
    (fun i k ->
      if i = 0 then Mat.mul_vec k c
      else begin
        let p = s.Covariance.interval_phase.(i - 1) in
        if i > 1 && s.Covariance.interval_phase.(i - 2) <> p then
          start := i - 1;
        let ph = s.Covariance.sys.Pwl.phases.(p) in
        let d =
          Vanloan.discretize ~a:ph.Pwl.a ~q:ph.Pwl.q
            ~tau:(s.Covariance.times.(i) -. s.Covariance.times.(!start))
        in
        Mat.mul_vec (Vanloan.propagate d ks.(!start)) c
      end)
    ks

let test_per_phase_caught () =
  List.iter
    (fun (name, sys, c, spp) ->
      if name = "sc_lowpass" || name = "sc_integrator" then begin
        let s = Covariance.sample ~samples_per_phase:spp sys in
        let tr = Covariance.output_trace s c in
        let ek, _, _ =
          Oracle.trace_errors s c ~forcing:(per_phase_forcing s c)
            ~trace:tr.Covariance.variance.Covariance.trace
            ~rows:tr.Covariance.rows
        in
        Printf.printf "%s: per-phase forcing %.2e off the dense recursion\n"
          name ek;
        if ek <= parity_tol then
          Alcotest.failf "%s: the per-phase variant passes the parity check"
            name
      end)
    (shipped_decks ())

(* The engine records the variance of its one pass; a fresh
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

(* A 40-state forcing pass allocates a fixed set of n×n buffers — K,
   Phi(t, 0), Phiᵀ and the five pieces of the chain blocks, which the
   run-end steps borrow as work matrices — whether the grid has 24 or
   96 samples per phase. *)
let test_stream_allocation () =
  let lad = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
  let n = lad.LAD.sys.Pwl.nstates in
  let buffers spp =
    let s = Covariance.sample ~samples_per_phase:spp lad.LAD.sys in
    let w =
      direct_major_words (fun () ->
          ignore (Covariance.output_trace s lad.LAD.output))
    in
    (Array.length s.Covariance.interval_op, Array.length s.Covariance.runs,
     int_of_float (Float.round (w /. float_of_int (n * n))))
  in
  let i24, r24, b24 = buffers 24 and i96, r96, b96 = buffers 96 in
  Printf.printf "spp 24: %d intervals, %d runs, %d n×n buffers\n" i24 r24 b24;
  Printf.printf "spp 96: %d intervals, %d runs, %d n×n buffers\n" i96 r96 b96;
  Alcotest.(check int) "same buffers at spp 24 and 96" b24 b96;
  if b96 > 9 then Alcotest.failf "%d n×n buffers, more than 9" b96

(* What the forcing pass counts: three n×n products per step it takes
   through a map or a short run's interval (K's two and T's one) and no
   power, and m(m-1)/2 chain columns per mapped run of m intervals. *)
let test_forcing_counts () =
  let lad = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
  let s = Covariance.sample ~samples_per_phase:96 lad.LAD.sys in
  let products = Scnoise_obs.Obs.counter "covariance_products"
  and columns = Scnoise_obs.Obs.counter "covariance_chain_columns" in
  let p0 = Scnoise_obs.Obs.value products
  and c0 = Scnoise_obs.Obs.value columns in
  ignore (Covariance.output_trace s lad.LAD.output);
  let steps, cols =
    Array.fold_left
      (fun (st, co) r ->
        let m = r.Covariance.len in
        match r.Covariance.map with
        | Some _ -> (st + 1, co + (m * (m - 1) / 2))
        | None -> (st + m, co))
      (0, 0) s.Covariance.runs
  in
  Alcotest.(check int) "n×n products" (3 * steps)
    (Scnoise_obs.Obs.value products - p0);
  Alcotest.(check int) "chain columns" cols (Scnoise_obs.Obs.value columns - c0)

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
          Alcotest.test_case "engine variance == Covariance.variance" `Quick
            test_engine_variance;
          Alcotest.test_case "unroll buffers independent of grid size" `Quick
            test_stream_allocation;
          Alcotest.test_case "forcing products and chain columns" `Quick
            test_forcing_counts;
        ] );
      (* a long group name widens the report's group column and
         truncates the test names of every group *)
      ( "forcing",
        [
          Alcotest.test_case "ladders == dense recursion" `Quick
            test_forcing_ladders;
          Alcotest.test_case "shipped decks == dense recursion" `Quick
            test_forcing_decks;
          Alcotest.test_case "stiff ladder-100 == dense recursion" `Quick
            test_forcing_stiff_ladder;
          Alcotest.test_case "per-phase variant is caught" `Quick
            test_per_phase_caught;
          Alcotest.test_case "runs below, at and above the cap" `Quick
            test_forcing_chain_cap;
        ] );
    ]
