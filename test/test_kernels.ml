(* Property tests for the blocked complex kernels, which must be
   bit-compatible with their single-column counterparts on random
   inputs, and for the Schur-form sweep, which must agree with the
   dense per-frequency reference ([Oracle.bvp_reference]) on the
   bundled circuits. *)

module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Mat = Scnoise_linalg.Mat
module Ctrap = Scnoise_ode.Ctrapezoid
module Bvp = Scnoise_core.Periodic_bvp
module Psd = Scnoise_core.Psd
module Db = Scnoise_util.Db
module LP = Scnoise_circuits.Sc_lowpass
module RC = Scnoise_circuits.Switched_rc

(* --- random generators (seeded, n <= 12) --- *)

type spec = { n : int; seed : int }

let spec_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    int_range 0 1_000_000 >|= fun seed -> { n; seed })

let spec_arb =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "{n=%d; seed=%d}" s.n s.seed)
    spec_gen

let rng_of spec = Random.State.make [| spec.seed; spec.n; 0x5ca1e |]

let rnd rng = Random.State.float rng 4.0 -. 2.0

let random_cvec rng n = Cvec.init n (fun _ -> Cx.make (rnd rng) (rnd rng))

(* Diagonally dominant so LU never hits the singularity guard. *)
let random_dd_cmat rng n =
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then Cx.make (float_of_int n +. 2.0 +. rnd rng) (rnd rng)
          else Cx.make (0.3 *. rnd rng) (0.3 *. rnd rng)))

let bits z = (Int64.bits_of_float z.Cx.re, Int64.bits_of_float z.Cx.im)

let cvec_equal_bits a b =
  Cvec.dim a = Cvec.dim b
  &&
  let ok = ref true in
  for i = 0 to Cvec.dim a - 1 do
    if bits (Cvec.get a i) <> bits (Cvec.get b i) then ok := false
  done;
  !ok

(* --- the oracle's dense complex LU --- *)

let prop_lu_solve =
  QCheck.Test.make ~count:80 ~name:"LU solve reconstructs rhs" spec_arb
    (fun spec ->
      let rng = rng_of spec in
      let m = random_dd_cmat rng spec.n in
      let x = Array.init spec.n (fun _ -> Cx.make (rnd rng) (rnd rng)) in
      let got = Oracle.clu_solve (Oracle.clu_factor m) (Oracle.cmul_vec m x) in
      Cvec.max_abs_diff (Cvec.of_array got) (Cvec.of_array x) < 1e-9)

(* --- random stable phase matrices --- *)

let random_stable_a rng n =
  Mat.init n n (fun i j ->
      if i = j then -.(float_of_int n +. 1.5) *. 1e6 +. (1e5 *. rnd rng)
      else 3e5 *. rnd rng)

(* --- block columns are width-1 solves --- *)

(* Column b of a width-w block solve is bitwise the width-1 solve at
   omegas.(b), at every output sample, from DC through the band above
   ~4 kHz where the low-pass once needed per-column fallback steppers. *)
let test_block_width_parity () =
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  let fx = Bvp_fixture.of_engine eng in
  let npts = Bvp.n_points fx.Bvp_fixture.bvp in
  let omegas =
    Array.map
      (fun f -> 2.0 *. Float.pi *. f)
      (Scnoise_util.Grid.linspace 0.0 16_000.0 16)
  in
  let single =
    Array.map
      (fun o ->
        let y = Cvec.panel_create ~dim:npts ~width:1 in
        Bvp_fixture.solve fx ~omegas:[| o |] y;
        y)
      omegas
  in
  List.iter
    (fun width ->
      let start = ref 0 in
      while !start < Array.length omegas do
        let len = min width (Array.length omegas - !start) in
        let y = Cvec.panel_create ~dim:npts ~width:len in
        Bvp_fixture.solve fx ~omegas:(Array.sub omegas !start len) y;
        for col = 0 to len - 1 do
          let want = single.(!start + col) in
          let same = ref true in
          for i = 0 to npts - 1 do
            let k = 2 * ((i * len) + col) in
            if
              Int64.bits_of_float y.(k) <> Int64.bits_of_float want.(2 * i)
              || Int64.bits_of_float y.(k + 1)
                 <> Int64.bits_of_float want.((2 * i) + 1)
            then same := false
          done;
          Alcotest.(check bool)
            (Printf.sprintf "width %d: column %d bitwise width-1" width
               (!start + col))
            true !same
        done;
        start := !start + len
      done)
    [ 3; 16 ]

(* --- Schur sweep vs the reference solve --- *)

let reference_psd eng freqs =
  let cov = Psd.covariance eng in
  Bvp_fixture.reference_psd (Bvp_fixture.of_engine eng)
    ~period:cov.Scnoise_core.Covariance.sys.Scnoise_circuit.Pwl.period freqs

let check_db_close name freqs fast slow =
  Array.iteri
    (fun i f ->
      let ddb = abs_float (Db.of_power fast.(i) -. Db.of_power slow.(i)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s @ %g Hz within 1e-9 dB (got %.3e)" name f ddb)
        true (ddb <= 1e-9))
    freqs

let demod_parity name prep freqs () =
  let eng = prep () in
  let freqs = Array.of_list freqs in
  check_db_close name freqs
    (Array.map (fun f -> Psd.psd eng ~f) freqs)
    (reference_psd eng freqs)

let prep_lowpass () =
  let b = LP.build LP.default in
  Psd.prepare ~samples_per_phase:64 b.LP.sys ~output:b.LP.output

let prep_switched_rc () =
  let b = RC.build RC.default in
  Psd.prepare ~samples_per_phase:64 b.RC.sys ~output:b.RC.output

(* --- GC budget: the hot loop must stay allocation-light --- *)

let test_gc_budget () =
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  let freqs = [| 100.0; 1e3; 4e3; 8e3; 16e3 |] in
  (* warm up: fills per-domain scratch and the stepper caches *)
  Array.iter (fun f -> ignore (Psd.psd eng ~f)) freqs;
  let reps = 400 in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to reps do
    Array.iter (fun f -> ignore (Psd.psd eng ~f)) freqs
  done;
  let per_point =
    (Gc.allocated_bytes () -. a0) /. float_of_int (reps * Array.length freqs)
  in
  (* measured ~2.4 KB/point (seed: ~1 MB); the budget leaves headroom
     for GC-boundary accounting noise while still failing loudly if
     boxing returns to the hot path *)
  let budget = 48_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "per-point allocation %.0f B under %.0f KB budget"
       per_point (budget /. 1000.0))
    true (per_point < budget)

(* A serving daemon prepares solver after solver on one domain.  The
   block inverses a solve needs live in the domain's workspace; the
   next solver must recycle them, or live heap grows with every solver
   ever run. *)
let test_workspace_bounded () =
  let b = LP.build LP.default in
  let cov = Scnoise_core.Covariance.sample ~samples_per_phase:32 b.LP.sys in
  let fresh_sweep () =
    ignore (Psd.psd (Psd.of_sampled cov ~output:b.LP.output) ~f:8e3)
  in
  for _ = 1 to 10 do
    fresh_sweep ()
  done;
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live0 = live () in
  for _ = 1 to 200 do
    fresh_sweep ()
  done;
  let grown = live () - live0 in
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %d words over 200 solvers (bound 16384)"
       grown)
    true (grown < 16384)

(* The 100-state parasitic ladder the e2e benchmark runs (48 samples
   per phase), on its 33-point log sweep plus DC and 50 kHz: the
   Schur solve against the dense reference at the size the engine
   actually runs. *)
let test_ladder100_oracle () =
  let module LAD = Scnoise_circuits.Sc_ladder in
  let b = LAD.build (LAD.with_parasitics (LAD.with_stages 50)) in
  let eng = Psd.prepare ~samples_per_phase:48 b.LAD.sys ~output:b.LAD.output in
  let freqs =
    Array.concat
      [
        [| 0.0 |];
        Scnoise_util.Grid.logspace 100.0 40_000.0 33;
        [| 50_000.0 |];
      ]
  in
  let fast = Psd.sweep ~pool:(Scnoise_par.Pool.create ~jobs:1 ()) eng freqs in
  let slow = reference_psd eng freqs in
  let worst = ref 0.0 in
  Array.iteri
    (fun i _ ->
      worst :=
        Float.max !worst
          (abs_float (Db.of_power fast.(i) -. Db.of_power slow.(i))))
    freqs;
  Printf.printf "ladder-100 Schur vs reference: max |dPSD| = %.3e dB\n"
    !worst;
  check_db_close "ladder-100" freqs fast slow

(* --- blocked multi-RHS kernels ---

   Every blocked kernel promises per-column bitwise identity with its
   scalar counterpart; these properties check that promise on random
   sizes, widths and seeds, including widths that don't divide
   anything nicely. *)

module Pool = Scnoise_par.Pool
module Obs = Scnoise_obs.Obs
module SI = Scnoise_circuits.Sc_integrator

type bspec = { bn : int; bw : int; bseed : int }

let bspec_arb =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "{n=%d; w=%d; seed=%d}" s.bn s.bw s.bseed)
    QCheck.Gen.(
      int_range 1 10 >>= fun n ->
      int_range 1 17 >>= fun w ->
      int_range 0 1_000_000 >|= fun seed -> { bn = n; bw = w; bseed = seed })

let brng s = Random.State.make [| s.bseed; s.bn; s.bw; 0xb10c |]

(* a random panel together with its columns as standalone vectors *)
let random_panel rng ~dim ~width =
  let cols = Array.init width (fun _ -> random_cvec rng dim) in
  let p = Cvec.panel_create ~dim ~width in
  Array.iteri (fun b v -> Cvec.panel_set_col v p ~width ~col:b) cols;
  (p, cols)

(* A Schur panel step at per-column frequencies == the width-1 step of
   each column with its own block inverses.  The random phase matrices'
   clustered diagonals leave complex pairs in most draws (93 % from 2 to
   10 states), so T's 2×2 blocks are exercised. *)
let prop_step_schur_panel =
  QCheck.Test.make ~count:80
    ~name:"step_schur_into panel == per-column width-1 (bitwise)" bspec_arb
    (fun s ->
      let rng = brng s in
      let tmat =
        Ctrap.quasi (fst (Scnoise_linalg.Eig.schur (random_stable_a rng s.bn)))
      in
      let omegas =
        Array.init s.bw (fun _ ->
            2.0 *. Float.pi *. (10.0 ** (1.0 +. Random.State.float rng 6.0)))
      in
      let p, cols = random_panel rng ~dim:s.bn ~width:s.bw in
      let g = random_cvec rng s.bn in
      let panel = Ctrap.schur_create ~dim:s.bn ~width:s.bw in
      Array.iteri
        (fun col omega ->
          Ctrap.schur_start_shifted panel ~tmat ~h:1e-7 ~col ~omega)
        omegas;
      let out = Cvec.panel_create ~dim:s.bn ~width:s.bw in
      Ctrap.step_schur_into panel ~g ~p ~into:out;
      let single = Ctrap.schur_create ~dim:s.bn ~width:1 in
      let scalar = Cvec.create s.bn and got = Cvec.create s.bn in
      let ok = ref true in
      Array.iteri
        (fun b v ->
          Ctrap.schur_start_shifted single ~tmat ~h:1e-7 ~col:0
            ~omega:omegas.(b);
          Ctrap.step_schur_into single ~g ~p:(Cvec.data v)
            ~into:(Cvec.data scalar);
          Cvec.panel_get_col out ~width:s.bw ~col:b ~into:got;
          if not (cvec_equal_bits got scalar) then ok := false)
        cols;
      !ok)

(* the panel kernels must reject in-place operation: the gather /
   zero-then-accumulate phases read their inputs after writing *)
let test_block_aliasing () =
  let n = 3 and width = 4 in
  let rng = Random.State.make [| 0xa11a5 |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let rejects name f =
    let raised =
      try
        f ();
        false
      with Invalid_argument _ -> true
    in
    Alcotest.(check bool) (name ^ " rejects aliasing") true raised
  in
  let p = Cvec.panel_create ~dim:n ~width in
  Array.iteri (fun k _ -> p.(k) <- rnd ()) p;
  let tmat =
    Ctrap.quasi (fst (Scnoise_linalg.Eig.schur (random_stable_a rng n)))
  in
  let st = Ctrap.schur_create ~dim:n ~width in
  for col = 0 to width - 1 do
    Ctrap.schur_start_shifted st ~tmat ~h:1e-7 ~col ~omega:1e3
  done;
  let g = random_cvec rng n in
  rejects "Ctrapezoid.step_schur_into" (fun () ->
      Ctrap.step_schur_into st ~g ~p ~into:p)

(* --- batched sweeps --- *)

let counter = Obs.counter_value

let test_sweep_edges () =
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:32 b.LP.sys ~output:b.LP.output in
  let pool = Pool.create ~jobs:2 () in
  let regions0 = counter "pool.regions" in
  Alcotest.(check (array (float 0.0)))
    "empty sweep returns [||]" [||]
    (Psd.sweep ~pool eng [||]);
  Alcotest.(check int) "empty sweep leaves the pool untouched" regions0
    (counter "pool.regions");
  let blocks0 = counter "bvp_block_solves" in
  let single = Psd.sweep ~pool eng [| 1234.5 |] in
  Alcotest.(check int) "single-point sweep allocates no panel" blocks0
    (counter "bvp_block_solves");
  Alcotest.(check bool) "single-point sweep matches psd" true
    (Int64.bits_of_float single.(0)
    = Int64.bits_of_float (Psd.psd eng ~f:1234.5))

(* Block columns are width-1 solves (test_block_width_parity), so the
   auto-width sweep is bitwise the pointwise PSD at any job count. *)
let test_sweep_batch_parity () =
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:64 b.LP.sys ~output:b.LP.output in
  let freqs = Scnoise_util.Grid.linspace 100.0 16_000.0 41 in
  Alcotest.(check bool) "the sweep runs blocked" true
    (Psd.batch_width eng ~npoints:(Array.length freqs) > 1);
  let pointwise = Array.map (fun f -> Psd.psd eng ~f) freqs in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "auto-width sweep (jobs %d) bit-identical to psd" jobs)
        true
        (Oracle.bits_equal
           (Psd.sweep ~pool:(Pool.create ~jobs ()) eng freqs)
           pointwise))
    [ 1; 4 ]

let batched_vs_reference name prep freqs () =
  let eng = prep () in
  let pool = Pool.create ~jobs:1 () in
  check_db_close name freqs (Psd.sweep ~pool eng freqs)
    (reference_psd eng freqs)

(* The O(n^3) work of the Schur sweep is paid at preparation: one
   reduction per phase and one of the monodromy, and none while a
   point or a 16-wide block solves. *)
let test_schur_reductions () =
  let b = LP.build LP.default in
  let r0 = counter "schur_reductions" in
  let eng = Psd.prepare ~samples_per_phase:64 b.LP.sys ~output:b.LP.output in
  let phases = Array.length b.LP.sys.Scnoise_circuit.Pwl.phases in
  Alcotest.(check int) "one reduction per phase and of the monodromy"
    (phases + 1)
    (counter "schur_reductions" - r0);
  let r1 = counter "schur_reductions" in
  ignore (Psd.psd eng ~f:1e3);
  ignore
    (Psd.sweep ~pool:(Pool.create ~jobs:1 ()) eng
       (Scnoise_util.Grid.linspace 100.0 16_000.0 16));
  Alcotest.(check int) "no reduction while sweeping" r1
    (counter "schur_reductions")

(* The closure's phase factors e^{-jwt_i}, formed by recurrence inside
   each run of equal steps, against cos and sin of the exact grid time
   at every point: on the low-pass at 128 samples per phase and on the
   hundred-state ladder, across each circuit's band. *)
let test_phase_factors () =
  let module LAD = Scnoise_circuits.Sc_ladder in
  let check name eng freqs =
    let bvp = Psd.bvp eng and times = Bvp.times (Psd.bvp eng) in
    let worst = ref 0.0 in
    Array.iter
      (fun f ->
        let omega = 2.0 *. Float.pi *. f in
        let got = Bvp.phase_factors bvp ~omega in
        Array.iteri
          (fun i t ->
            let want = Cx.cis (-.omega *. t) in
            worst :=
              Float.max !worst (Cx.modulus (Cx.( -: ) (Cvec.get got i) want)))
          times)
      freqs;
    Alcotest.(check bool)
      (Printf.sprintf "%s: max |factor - cis| = %.3e within 1e-12" name !worst)
      true (!worst <= 1e-12)
  in
  let b = LP.build LP.default in
  check "sc_lowpass spp 128"
    (Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output)
    (Scnoise_util.Grid.linspace 0.0 16_000.0 65);
  let lad = LAD.build (LAD.with_parasitics (LAD.with_stages 50)) in
  check "ladder-100"
    (Psd.prepare ~samples_per_phase:48 lad.LAD.sys ~output:lad.LAD.output)
    (Array.append (Scnoise_util.Grid.logspace 100.0 40_000.0 33) [| 50_000.0 |])

(* A phase matrix on which the QR iteration stalls — the monodromy of
   the band-pass at q = 8, whose stability the Floquet check cannot
   show — stands in for a 9-state band-pass phase: preparing the sweep
   raises the typed [Reduction_failed] naming that phase, not the
   eigenvalue solver's bare exception. *)
let test_reduction_failed () =
  let module Pwl = Scnoise_circuit.Pwl in
  let module Cov = Scnoise_core.Covariance in
  let module Front = Scnoise_serve.Front in
  let module BP = Scnoise_circuits.Sc_bandpass in
  let q8 =
    match Front.load_file "decks/sc_bandpass_q8.scn" with
    | Error e -> Alcotest.fail (Front.message e)
    | Ok l -> (
        match Front.gate ~name:"q8" l with
        | Ok c -> c.Front.sys
        | Error e -> Alcotest.fail (Front.message e))
  in
  let stuck = Pwl.monodromy q8 in
  (match Scnoise_linalg.Eig.schur stuck with
  | _ -> Alcotest.fail "the q = 8 monodromy no longer stalls the QR iteration"
  | exception Scnoise_linalg.Eig.No_convergence _ -> ());
  let b = BP.build BP.default in
  let cov = Cov.sample ~samples_per_phase:16 b.BP.sys in
  let sys = cov.Cov.sys in
  let phases = Array.copy sys.Pwl.phases in
  phases.(0) <- { (phases.(0)) with Pwl.a = stuck };
  let cov = { cov with Cov.sys = { sys with Pwl.phases } } in
  match Psd.of_sampled cov ~output:b.BP.output with
  | _ -> Alcotest.fail "a stalled reduction was accepted"
  | exception Bvp.Reduction_failed why ->
      Alcotest.(check string) "names the phase"
        "the real Schur reduction of the phase 0 matrix did not converge" why

let prep_integrator () =
  let b = SI.build SI.default in
  Psd.prepare ~samples_per_phase:64 b.SI.sys ~output:b.SI.output

(* [Bvp.forcing] (accumulated along the rows of each phase basis,
   k0 + k1 formed once per state) against the column loop it replaced
   ([Oracle.bvp_forcing]), bit for bit: the PSD forcing K(t_i) c of the
   shipped low-pass, switched-RC and integrator and of ladder-40, and
   random complex endpoints with signed zeros that switch with the
   clock, as a transfer forcing does. *)
let test_forcing_oracle () =
  let module LAD = Scnoise_circuits.Sc_ladder in
  let rng = Random.State.make [| 0xf0c |] in
  let ladder40 () =
    let b = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
    Psd.prepare ~samples_per_phase:48 b.LAD.sys ~output:b.LAD.output
  in
  let check name cov bvp ~kl ~kr =
    let bases =
      Array.map
        (fun (ph : Scnoise_circuit.Pwl.phase) ->
          snd (Scnoise_linalg.Eig.schur ph.Scnoise_circuit.Pwl.a))
        cov.Scnoise_core.Covariance.sys.Scnoise_circuit.Pwl.phases
    in
    let got = (Bvp.forcing bvp ~kl ~kr :> Cvec.t array)
    and want = Oracle.bvp_forcing cov ~bases ~kl ~kr in
    Alcotest.(check int) (name ^ ": intervals") (Array.length want)
      (Array.length got);
    Array.iteri
      (fun i g ->
        if not (Oracle.bits_equal want.(i) (Cvec.data g)) then
          Alcotest.failf "%s: interval %d differs from the column loop" name i)
      got
  in
  List.iter
    (fun (name, eng) ->
      let cov = Psd.covariance eng and c = Psd.output eng in
      let forcing, _, rows = Oracle.output_trace cov c in
      let bvp = Bvp.of_sampled cov ~output:c ~rows in
      let k = Array.map Cvec.of_real forcing in
      check (name ^ " K c") cov bvp ~kl:(Array.get k) ~kr:(fun i -> k.(i + 1));
      let n = Array.length c in
      let entry () =
        match Random.State.int rng 8 with
        | 0 -> -0.0
        | 1 -> 0.0
        | _ -> rnd rng
      in
      let cols =
        Array.init 2 (fun _ -> Cvec.init n (fun _ -> Cx.make (entry ()) (entry ())))
      in
      let phase = cov.Scnoise_core.Covariance.interval_phase in
      let kl i = cols.(phase.(i) mod 2) and kr i = cols.((phase.(i) + 1) mod 2) in
      check (name ^ " switched") cov bvp ~kl ~kr)
    [
      ("lowpass", prep_lowpass ()); ("switched_rc", prep_switched_rc ());
      ("integrator", prep_integrator ()); ("ladder-40", ladder40 ());
    ]

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "kernels"
    [
      qsuite "clu" [ prop_lu_solve ];
      ( "bvp",
        [
          Alcotest.test_case "block columns == width-1 solves (bitwise)" `Quick
            test_block_width_parity;
          Alcotest.test_case "demod parity lowpass" `Quick
            (demod_parity "lowpass" prep_lowpass
               [ 0.0; 10.0; 320.0; 1e3; 3.3e3; 4.1e3; 5e3; 7.7e3; 1.2e4;
                 1.6e4 ]);
          Alcotest.test_case "demod parity switched_rc" `Quick
            (demod_parity "switched_rc" prep_switched_rc
               [ 0.0; 10.0; 1e3; 4.1e3; 1.6e4; 2.5e4; 3e5 ]);
          Alcotest.test_case "hot loop allocation budget" `Slow test_gc_budget;
          Alcotest.test_case "workspace bounded across solvers" `Quick
            test_workspace_bounded;
          Alcotest.test_case "ladder-100 oracle" `Slow test_ladder100_oracle;
          Alcotest.test_case "closure phase factors == cis" `Slow
            test_phase_factors;
          Alcotest.test_case "forcing == column-loop oracle" `Quick
            test_forcing_oracle;
        ] );
      qsuite "blocked kernels" [ prop_step_schur_panel ];
      ( "batched sweeps",
        [
          Alcotest.test_case "panel kernels reject aliasing" `Quick
            test_block_aliasing;
          Alcotest.test_case "sweep edge cases" `Quick test_sweep_edges;
          Alcotest.test_case "batched == scalar at any width and jobs" `Quick
            test_sweep_batch_parity;
          Alcotest.test_case "batched vs reference backend (switched_rc)"
            `Quick
            (batched_vs_reference "switched_rc" prep_switched_rc
               [| 10.0; 320.0; 1e3; 2.5e4 |]);
          Alcotest.test_case "batched vs reference backend (sc_integrator)"
            `Quick
            (batched_vs_reference "sc_integrator" prep_integrator
               [| 10.0; 1e3; 3.3e3 |]);
          Alcotest.test_case "schur reductions counted" `Quick
            test_schur_reductions;
          Alcotest.test_case "stalled reduction is a typed error" `Quick
            test_reduction_failed;
        ] );
    ]
