module Vec = Scnoise_linalg.Vec
module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Trapezoid = Scnoise_ode.Trapezoid
module Ctrapezoid = Scnoise_ode.Ctrapezoid

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let mat_of rows = Mat.of_arrays (Array.of_list (List.map Array.of_list rows))

(* --- Trapezoid --- *)

let test_trapezoid_homogeneous_accuracy () =
  let a = mat_of [ [ -3.0 ] ] in
  let x =
    Trapezoid.integrate ~a
      ~forcing:(fun _ -> [| 0.0 |])
      ~t0:0.0 ~t1:1.0 ~steps:2000 [| 1.0 |]
  in
  check_close ~eps:1e-6 "e^{-3}" (exp (-3.0)) x.(0)

let test_trapezoid_forced_constant () =
  (* dx/dt = -x + 1 -> steady state 1; trapezoid is exact at steady state *)
  let a = mat_of [ [ -1.0 ] ] in
  let x =
    Trapezoid.integrate ~a
      ~forcing:(fun _ -> [| 1.0 |])
      ~t0:0.0 ~t1:40.0 ~steps:800 [| 0.0 |]
  in
  check_close ~eps:1e-9 "steady state" 1.0 x.(0)

let test_trapezoid_a_stability () =
  (* very stiff system with a large step must not blow up *)
  let a = mat_of [ [ -1e9 ] ] in
  let st = Trapezoid.make ~a ~h:1.0 in
  let x = ref [| 1.0 |] in
  for _ = 1 to 100 do
    x := Trapezoid.step_homogeneous st !x
  done;
  if abs_float !x.(0) > 1.0 then Alcotest.fail "trapezoidal A-stability violated"

let test_trapezoid_second_order () =
  let a = mat_of [ [ -2.0 ] ] in
  let err steps =
    let x =
      Trapezoid.integrate ~a
        ~forcing:(fun _ -> [| 0.0 |])
        ~t0:0.0 ~t1:1.0 ~steps [| 1.0 |]
    in
    abs_float (x.(0) -. exp (-2.0))
  in
  let ratio = err 50 /. err 100 in
  if ratio < 3.3 || ratio > 4.7 then
    Alcotest.failf "expected ~4x error reduction, got %g" ratio

let test_trapezoid_trajectory () =
  let a = mat_of [ [ 0.0 ] ] in
  let tr =
    Trapezoid.trajectory ~a
      ~forcing:(fun t -> [| t |])
      ~t0:0.0 ~t1:1.0 ~steps:100 [| 0.0 |]
  in
  let _, last = tr.(100) in
  (* trapezoid integrates t exactly *)
  check_close ~eps:1e-12 "∫t dt" 0.5 last.(0)

let test_backward_euler_step () =
  let a = mat_of [ [ -1.0 ] ] in
  let x = Trapezoid.backward_euler_step ~a ~h:0.1 ~x:[| 1.0 |] ~f1:[| 0.0 |] in
  check_close "be step" (1.0 /. 1.1) x.(0)

(* --- complex trapezoid: the dense oracle stepper --- *)

let cvec_of (v : Complex.t array) = Cvec.of_array v

let test_ctrapezoid_matches_real () =
  (* zero shift on a real system must reproduce the real stepper *)
  let a = mat_of [ [ -1.5; 0.3 ]; [ 0.0; -0.7 ] ] in
  let st_r = Trapezoid.make ~a ~h:0.01 in
  let st_c = Oracle.trapezoid ~a ~omega:0.0 ~h:0.01 in
  let xr = ref [| 1.0; -0.5 |] in
  let xc = ref (Array.map Cx.re !xr) in
  let f = Array.map Cx.re [| 0.1; 0.2 |] in
  for _ = 1 to 100 do
    xr := Trapezoid.step st_r ~x:!xr ~f0:[| 0.1; 0.2 |] ~f1:[| 0.1; 0.2 |];
    xc := st_c ~p:!xc ~k0:f ~k1:f
  done;
  if Vec.max_abs_diff !xr (Cvec.real (cvec_of !xc)) > 1e-12 then
    Alcotest.fail "complex stepper with zero shift diverged from real";
  if Vec.norm_inf (Cvec.imag (cvec_of !xc)) > 1e-12 then
    Alcotest.fail "imaginary part should stay zero"

let test_ctrapezoid_shift_analytic () =
  (* dP/dt = (-a - jw) P, P(0)=1: |P(t)| = e^{-at}, arg = -wt *)
  let a0 = 2.0 and w = 5.0 in
  let a = mat_of [ [ -.a0 ] ] in
  let h = 1e-4 in
  let st = Oracle.trapezoid ~a ~omega:w ~h in
  let zero = [| Cx.zero |] in
  let p = ref [| Cx.one |] in
  let steps = 10_000 in
  for _ = 1 to steps do
    p := st ~p:!p ~k0:zero ~k1:zero
  done;
  let t = h *. float_of_int steps in
  let expected = Cx.( *: ) (Cx.re (exp (-.a0 *. t))) (Cx.cis (-.w *. t)) in
  let got = !p.(0) in
  if Cx.modulus (Cx.( -: ) got expected) > 1e-4 then
    Alcotest.failf "shifted decay wrong: got %g%+gi, want %g%+gi"
      got.Cx.re got.Cx.im expected.Cx.re expected.Cx.im

let test_ctrapezoid_trajectory_steady_state () =
  (* dP/dt = (-a - jw)P + k: steady state k/(a + jw) *)
  let a0 = 3.0 and w = 7.0 and k = 2.0 in
  let a = mat_of [ [ -.a0 ] ] in
  let kvec = [| Cx.re k |] in
  let st = Oracle.trapezoid ~a ~omega:w ~h:1e-3 in
  let p = ref [| Cx.zero |] in
  for _ = 1 to 20_000 do
    p := st ~p:!p ~k0:kvec ~k1:kvec
  done;
  let expected = Cx.( /: ) (Cx.re k) (Cx.make a0 w) in
  if Cx.modulus (Cx.( -: ) !p.(0) expected) > 1e-5 then
    Alcotest.fail "complex steady state wrong"

(* --- quasi-triangular shifted stepper --- *)

module Eig = Scnoise_linalg.Eig

(* A non-stiff 9-state system stepped far past its time constants
   (h |A| ~ 10), whose real Schur form carries 2×2 blocks: the
   block inverses have work to do. *)
let schur_case () =
  let rng = Random.State.make [| 0x4e55 |] in
  let n = 9 in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let a = Mat.init n n (fun _ _ -> 1e6 *. rnd ()) in
  let b = Cvec.init n (fun _ -> Cx.make (rnd ()) (rnd ())) in
  (a, b)

let pairs t =
  let c = ref 0 in
  for i = 0 to Mat.rows t - 2 do
    if Mat.get t (i + 1) i <> 0.0 then incr c
  done;
  !c

let rel_err x y = Cvec.max_abs_diff x y /. Cvec.norm_inf y

(* the oracle's dense complex LU solve of m x = b *)
let dense_solve m b =
  Cvec.of_array (Oracle.clu_solve (Oracle.clu_factor m) (Cvec.to_array b))

(* v -> m v for a real matrix and a complex vector *)
let apply m v =
  Cvec.init (Mat.rows m) (fun r ->
      let acc = ref Cx.zero in
      for j = 0 to Mat.cols m - 1 do
        acc := Cx.( +: ) !acc (Cx.scale (Mat.get m r j) (Cvec.get v j))
      done;
      !acc)

(* The shifted back-substitution in the Schur basis against the dense
   complex LU of I - h/2 (A - jwI) in the original one, at DC, at a low
   frequency and at 100 kHz, where wh/2 ~ 6 rivals T's entries. *)
let test_schur_matches_clu () =
  let a, b = schur_case () in
  let n = Mat.rows a in
  let t, z = Eig.schur a in
  Alcotest.(check bool)
    (Printf.sprintf "T carries 2x2 blocks (%d)" (pairs t))
    true (pairs t > 0);
  let tmat = Ctrapezoid.quasi t in
  let h = 2e-5 in
  List.iter
    (fun (label, omega) ->
      let st = Ctrapezoid.schur_create ~dim:n ~width:1 in
      Ctrapezoid.schur_start_shifted st ~tmat ~h ~col:0 ~omega;
      (* x = Z M_T^{-1} Zᵀ b *)
      let y = Cvec.data (apply (Mat.transpose z) b) in
      Ctrapezoid.schur_solve_in_place st y;
      let x = apply z (Cvec.of_data y) in
      let w = 0.5 *. h in
      let dense =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let re = (if i = j then 1.0 else 0.0) -. (w *. Mat.get a i j) in
                Cx.make re (if i = j then w *. omega else 0.0)))
      in
      let err = rel_err x (dense_solve dense b) in
      if err > 1e-12 then
        Alcotest.failf "%s: relative error %.3e vs dense LU" label err)
    [
      ("DC", 0.0);
      ("1 kHz", 2.0 *. Float.pi *. 1e3);
      ("100 kHz", 2.0 *. Float.pi *. 1e5);
    ]

(* The closure's rotated monodromy d I - alpha T with |alpha| = 1,
   against the dense complex LU of the same matrix; a stepper that no
   start has bound to a matrix refuses to solve. *)
let test_schur_general () =
  let a, b = schur_case () in
  let n = Mat.rows a in
  (match
     Ctrapezoid.schur_solve_in_place
       (Ctrapezoid.schur_create ~dim:n ~width:1)
       (Cvec.data (Cvec.copy b))
   with
  | () -> Alcotest.fail "solved before any start"
  | exception Invalid_argument _ -> ());
  let t, _ = Eig.schur (Mat.scale 1e-6 a) in
  let tmat = Ctrapezoid.quasi t in
  List.iter
    (fun theta ->
      let alpha = Cx.cis theta in
      let st = Ctrapezoid.schur_create ~dim:n ~width:1 in
      Ctrapezoid.schur_start st ~tmat ~col:0 ~d:Cx.one ~alpha;
      let x = Cvec.copy b in
      Ctrapezoid.schur_solve_in_place st (Cvec.data x);
      let dense =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let z = Cx.scale (Mat.get t i j) alpha in
                if i = j then Cx.( -: ) Cx.one z else Cx.neg z))
      in
      let err = rel_err x (dense_solve dense b) in
      if err > 1e-12 then
        Alcotest.failf "theta %g: relative error %.3e vs dense LU" theta err)
    [ 0.0; 0.3; 2.0; -2.9 ]

(* A width-4 panel of per-column frequencies solves every column
   bitwise like its width-1 start. *)
let test_schur_panel_bitwise () =
  let a, _ = schur_case () in
  let n = Mat.rows a in
  let tmat = Ctrapezoid.quasi (fst (Eig.schur a)) in
  let omegas = [| 0.0; 2e3; 6.3e7; 6.3e5 |] in
  let width = Array.length omegas in
  let rng = Random.State.make [| 0xb17 |] in
  let panel =
    Array.init (2 * n * width) (fun _ -> Random.State.float rng 2.0 -. 1.0)
  in
  (* float k of column b's interleaved vector, inside the panel *)
  let at b k = (2 * (((k / 2) * width) + b)) + (k mod 2) in
  let st = Ctrapezoid.schur_create ~dim:n ~width in
  Array.iteri
    (fun col omega ->
      Ctrapezoid.schur_start_shifted st ~tmat ~h:2e-5 ~col ~omega)
    omegas;
  let cols =
    Array.init width (fun b -> Array.init (2 * n) (fun k -> panel.(at b k)))
  in
  Ctrapezoid.schur_solve_in_place st panel;
  Array.iteri
    (fun b col ->
      let one = Ctrapezoid.schur_create ~dim:n ~width:1 in
      Ctrapezoid.schur_start_shifted one ~tmat ~h:2e-5 ~col:0 ~omega:omegas.(b);
      Ctrapezoid.schur_solve_in_place one col;
      for k = 0 to (2 * n) - 1 do
        let got = panel.(at b k) in
        if Int64.bits_of_float got <> Int64.bits_of_float col.(k) then
          Alcotest.failf "column %d entry %d: %h vs %h" b k got col.(k)
      done)
    cols

(* Twenty trapezoid steps of a width-3 panel in the Schur basis, each
   column at its own frequency and mapped back by Z, against the dense
   complex-LU stepper [Oracle.trapezoid] in the original coordinates. *)
let test_schur_step_vs_oracle () =
  let a, _ = schur_case () in
  let n = Mat.rows a in
  let t, z = Eig.schur a in
  let tmat = Ctrapezoid.quasi t in
  let h = 2e-5 in
  let omegas = [| 0.0; 2.0 *. Float.pi *. 3e3; 2.0 *. Float.pi *. 1e5 |] in
  let width = Array.length omegas in
  let rng = Random.State.make [| 0x57e9 |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let ks = Array.init 21 (fun _ -> Cvec.init n (fun _ -> Cx.make (rnd ()) (rnd ()))) in
  let st = Ctrapezoid.schur_create ~dim:n ~width in
  Array.iteri
    (fun col omega -> Ctrapezoid.schur_start_shifted st ~tmat ~h ~col ~omega)
    omegas;
  let zt = Mat.transpose z in
  let p = ref (Cvec.panel_create ~dim:n ~width)
  and into = ref (Cvec.panel_create ~dim:n ~width) in
  let oracle = Array.map (fun omega -> Oracle.trapezoid ~a ~omega ~h) omegas in
  let want = Array.map (fun _ -> Array.make n Cx.zero) omegas in
  for s = 0 to 19 do
    let g =
      Cvec.scale_re (0.5 *. h)
        (apply zt
           (Cvec.init n (fun i -> Cx.( +: ) (Cvec.get ks.(s) i) (Cvec.get ks.(s + 1) i))))
    in
    Ctrapezoid.step_schur_into st ~g ~p:!p ~into:!into;
    let last = !p in
    p := !into;
    into := last;
    Array.iteri
      (fun b _ ->
        want.(b) <-
          oracle.(b) ~p:want.(b) ~k0:(Cvec.to_array ks.(s))
            ~k1:(Cvec.to_array ks.(s + 1)))
      omegas
  done;
  let col = Cvec.create n in
  Array.iteri
    (fun b _ ->
      Cvec.panel_get_col !p ~width ~col:b ~into:col;
      let err = rel_err (apply z col) (Cvec.of_array want.(b)) in
      if err > 1e-11 then
        Alcotest.failf "column %d: relative error %.3e vs Oracle.trapezoid" b
          err)
    omegas

(* A random real quasi-upper-triangular matrix: a random upper
   triangle whose diagonal carries 2×2 blocks (nonzero subdiagonal
   entries, never adjacent) at random places, at a random scale. *)
let random_quasi rng n =
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let scale = 10.0 ** Random.State.float rng 7.0 in
  let t =
    Mat.init n n (fun i j ->
        if j < i then 0.0
        else if i = j then -.scale *. (0.1 +. Random.State.float rng 1.0)
        else scale *. rnd ())
  in
  let i = ref 0 in
  while !i < n - 1 do
    if Random.State.bool rng then begin
      Mat.set t (!i + 1) !i (scale *. (0.05 +. Random.State.float rng 1.0));
      i := !i + 2
    end
    else incr i
  done;
  t

type step_case = { sn : int; sw : int; sseed : int }

(* The shipped shifted step == the oracle's general-coefficient step
   with d = 1 + j omega h/2 and alpha = h/2, bit for bit, column by
   column: each column with its own omega (0, negative or positive)
   and its own h in [1e-9, 1e-3]. *)
let prop_step_vs_reference =
  QCheck.Test.make ~count:300
    ~name:"step_schur_into == Oracle.schur_step (bitwise)"
    (QCheck.make
       ~print:(fun c -> Printf.sprintf "{n=%d; w=%d; seed=%d}" c.sn c.sw c.sseed)
       QCheck.Gen.(
         int_range 1 12 >>= fun sn ->
         int_range 1 17 >>= fun sw ->
         int_range 0 1_000_000 >|= fun sseed -> { sn; sw; sseed }))
    (fun c ->
      let rng = Random.State.make [| c.sseed; c.sn; c.sw; 0x5e9 |] in
      let rnd () = Random.State.float rng 2.0 -. 1.0 in
      let n = c.sn and width = c.sw in
      let t = random_quasi rng n in
      let tmat = Ctrapezoid.quasi t in
      let omegas =
        Array.init width (fun _ ->
            match Random.State.int rng 4 with
            | 0 -> 0.0
            | k ->
                let w = 2.0 *. Float.pi *. (10.0 ** Random.State.float rng 7.0) in
                if k = 1 then -.w else w)
      in
      let hs = Array.init width (fun _ -> 10.0 ** (-9.0 +. Random.State.float rng 6.0)) in
      let st = Ctrapezoid.schur_create ~dim:n ~width in
      Array.iteri
        (fun col omega ->
          Ctrapezoid.schur_start_shifted st ~tmat ~h:hs.(col) ~col ~omega)
        omegas;
      let p = Array.init (2 * n * width) (fun _ -> rnd ()) in
      let g = Cvec.init n (fun _ -> Cx.make (rnd ()) (rnd ())) in
      let into = Cvec.panel_create ~dim:n ~width in
      Ctrapezoid.step_schur_into st ~g ~p ~into;
      let entry a b i = { Complex.re = a.(2 * ((i * width) + b)); im = a.((2 * ((i * width) + b)) + 1) } in
      let g = Array.init n (fun i -> Cvec.get g i) in
      let ok = ref true in
      Array.iteri
        (fun b omega ->
          let w = 0.5 *. hs.(b) in
          let x =
            Oracle.schur_step ~t ~d:{ Complex.re = 1.0; im = w *. omega }
              ~alpha:{ Complex.re = w; im = 0.0 }
              ~p:(Array.init n (entry p b)) ~g
          in
          Array.iteri
            (fun i (z : Complex.t) ->
              let got = entry into b i in
              if
                Int64.bits_of_float got.re <> Int64.bits_of_float z.re
                || Int64.bits_of_float got.im <> Int64.bits_of_float z.im
              then ok := false)
            x)
        omegas;
      !ok)

(* Columns run in groups of 4, then 2, then 1 inside the step and
   solve kernels; widths 1 to 9 cover every group and tail.  Every
   column of a width-w step (shifted starts) and of a width-w solve
   (plain starts with their own complex d and alpha) must equal its
   own width-1 run bit for bit. *)
let bits_of_panel a = Array.map Int64.bits_of_float a

let prop_groups_match_width1 =
  QCheck.Test.make ~count:150
    ~name:"grouped columns == width-1 runs, widths 1..9 (bitwise)"
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "{n=%d; seed=%d}" n seed)
       QCheck.Gen.(pair (int_range 1 12) (int_range 0 1_000_000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 0x960 |] in
      let rnd () = Random.State.float rng 2.0 -. 1.0 in
      let t = random_quasi rng n in
      let tmat = Ctrapezoid.quasi t in
      let tmax = Array.fold_left (fun m v -> Float.max m (abs_float v)) 0.0 (Mat.data t) in
      let g = Cvec.init n (fun _ -> Cx.make (rnd ()) (rnd ())) in
      let column a ~width b =
        Array.init (2 * n) (fun k -> a.((2 * (((k / 2) * width) + b)) + (k mod 2)))
      in
      let ok = ref true in
      for width = 1 to 9 do
        let omegas = Array.init width (fun _ -> 2.0 *. Float.pi *. (10.0 ** (7.0 *. rnd ()))) in
        let hs = Array.init width (fun _ -> 10.0 ** (-9.0 +. Random.State.float rng 6.0)) in
        let ds = Array.init width (fun _ -> Cx.make 1.0 (rnd ())) in
        let alphas = Array.init width (fun _ -> Cx.make (rnd () /. tmax) (rnd () /. tmax)) in
        let p = Array.init (2 * n * width) (fun _ -> rnd ()) in
        let step = Ctrapezoid.schur_create ~dim:n ~width in
        let solve = Ctrapezoid.schur_create ~dim:n ~width in
        for col = 0 to width - 1 do
          Ctrapezoid.schur_start_shifted step ~tmat ~h:hs.(col) ~col ~omega:omegas.(col);
          Ctrapezoid.schur_start solve ~tmat ~col ~d:ds.(col) ~alpha:alphas.(col)
        done;
        let stepped = Cvec.panel_create ~dim:n ~width and solved = Array.copy p in
        Ctrapezoid.step_schur_into step ~g ~p ~into:stepped;
        Ctrapezoid.schur_solve_in_place solve solved;
        for b = 0 to width - 1 do
          let one = Ctrapezoid.schur_create ~dim:n ~width:1 in
          let into = Cvec.panel_create ~dim:n ~width:1 in
          Ctrapezoid.schur_start_shifted one ~tmat ~h:hs.(b) ~col:0 ~omega:omegas.(b);
          Ctrapezoid.step_schur_into one ~g ~p:(column p ~width b) ~into;
          if bits_of_panel into <> bits_of_panel (column stepped ~width b) then ok := false;
          let x = column p ~width b in
          Ctrapezoid.schur_start one ~tmat ~col:0 ~d:ds.(b) ~alpha:alphas.(b);
          Ctrapezoid.schur_solve_in_place one x;
          if bits_of_panel x <> bits_of_panel (column solved ~width b) then ok := false
        done
      done;
      !ok)

(* STEP-SMOKE's grids: the shipped shifted step over a prepared
   engine's own grid (the low-pass at 128 samples per phase, the
   40-state ladder at 48) equals [Oracle.schur_step] at every column of
   every step, on STEP-SMOKE's 16-wide panel and on a 7-wide one (a
   group of 4, one of 2 and a tail). *)
let test_step_grids_vs_oracle () =
  let module LP = Scnoise_circuits.Sc_lowpass in
  let module LAD = Scnoise_circuits.Sc_ladder in
  let module Psd = Scnoise_core.Psd in
  let lp = LP.build LP.default in
  let lad = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
  List.iter
    (fun (name, e) ->
      let grid = Step_grid.of_engine e in
      List.iter
        (fun width ->
          let omegas =
            Array.map
              (fun f -> 2.0 *. Float.pi *. f)
              (Scnoise_util.Grid.logspace 100.0 16_000.0 width)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s, width %d: every step == Oracle.schur_step" name width)
            true
            (Step_grid.matches_reference grid ~omegas))
        [ 16; 7 ])
    [
      ("sc_lowpass", Psd.prepare ~samples_per_phase:128 lp.LP.sys ~output:lp.LP.output);
      ( "ladder-40",
        Psd.prepare ~samples_per_phase:48 lad.LAD.sys ~output:lad.LAD.output );
    ]

(* Whole sweeps at widths 1, 3, 4, 5 and 16 and at jobs 1 and 4: the
   solve layer's output samples of every block column equal the width-1
   solve's, and [Psd.sweep] equals pointwise [Psd.psd], bit for bit.
   sc_delta_sigma's phase 1 carries a 2×2 Schur block. *)
let test_sweeps_every_width () =
  let module Psd = Scnoise_core.Psd in
  let module Bvp = Scnoise_core.Periodic_bvp in
  let module Pool = Scnoise_par.Pool in
  let module LP = Scnoise_circuits.Sc_lowpass in
  let module DS = Scnoise_circuits.Sc_delta_sigma in
  let module LAD = Scnoise_circuits.Sc_ladder in
  let lp = LP.build LP.default and ds = DS.build DS.default in
  let lad = LAD.build (LAD.with_parasitics (LAD.with_stages 4)) in
  let freqs = Scnoise_util.Grid.logspace 100.0 40_000.0 21 in
  let omegas = Array.map (fun f -> 2.0 *. Float.pi *. f) freqs in
  let nf = Array.length freqs in
  List.iter
    (fun (name, e) ->
      let fx = Bvp_fixture.of_engine e in
      let npts = Bvp.n_points fx.Bvp_fixture.bvp in
      let solve_tiles pool width =
        let starts = Array.init ((nf + width - 1) / width) (fun k -> k * width) in
        Pool.map pool
          (fun _ start ->
            let len = min width (nf - start) in
            let y = Cvec.panel_create ~dim:npts ~width:len in
            Bvp_fixture.solve fx ~omegas:(Array.sub omegas start len) y;
            Array.init len (fun b -> Array.init (2 * npts) (fun k ->
                y.((2 * (((k / 2) * len) + b)) + (k mod 2)))))
          starts
        |> Array.to_list |> Array.concat
      in
      let serial = Pool.create ~jobs:1 () in
      let want = solve_tiles serial 1 in
      let pointwise = Array.map (fun f -> Psd.psd e ~f) freqs in
      List.iter
        (fun jobs ->
          let pool = Pool.create ~jobs () in
          List.iter
            (fun width ->
              let got = solve_tiles pool width in
              Alcotest.(check bool)
                (Printf.sprintf "%s: width %d, jobs %d == width 1" name width jobs)
                true
                (Array.for_all2 Oracle.bits_equal got want))
            [ 1; 3; 4; 5; 16 ];
          Alcotest.(check bool)
            (Printf.sprintf "%s: sweep at jobs %d == psd" name jobs)
            true
            (Oracle.bits_equal (Psd.sweep ~pool e freqs) pointwise);
          Pool.shutdown pool)
        [ 1; 4 ];
      Pool.shutdown serial)
    [
      ("sc_lowpass", Psd.prepare ~samples_per_phase:96 lp.LP.sys ~output:lp.LP.output);
      ("sc_delta_sigma", Psd.prepare ~samples_per_phase:96 ds.DS.sys ~output:ds.DS.output);
      ("ladder-8", Psd.prepare ~samples_per_phase:48 lad.LAD.sys ~output:lad.LAD.output);
    ]

(* Only shifted columns step: a column last started by plain
   [schur_start], even after a shifted start, refuses. *)
let test_step_needs_shifted_start () =
  let a, _ = schur_case () in
  let n = Mat.rows a in
  let tmat = Ctrapezoid.quasi (fst (Eig.schur a)) in
  let st = Ctrapezoid.schur_create ~dim:n ~width:2 in
  let g = Cvec.create n and p = Cvec.panel_create ~dim:n ~width:2 in
  let into = Cvec.panel_create ~dim:n ~width:2 in
  let refuses what =
    match Ctrapezoid.step_schur_into st ~g ~p ~into with
    | () -> Alcotest.failf "stepped %s" what
    | exception Invalid_argument _ -> ()
  in
  refuses "before any start";
  for col = 0 to 1 do
    Ctrapezoid.schur_start_shifted st ~tmat ~h:2e-5 ~col ~omega:1e3
  done;
  Ctrapezoid.step_schur_into st ~g ~p ~into;
  Ctrapezoid.schur_start st ~tmat ~col:1 ~d:(Cx.make 1.0 1e-2)
    ~alpha:(Cx.re 1e-5);
  refuses "a column after a plain start"

(* A shifted start allocates nothing: it shares the plain start's core
   on plain floats, with no complex record built for it. *)
let test_shifted_start_allocates_nothing () =
  let a, _ = schur_case () in
  let n = Mat.rows a in
  let tmat = Ctrapezoid.quasi (fst (Eig.schur a)) in
  let st = Ctrapezoid.schur_create ~dim:n ~width:4 in
  let start () =
    for col = 0 to 3 do
      Ctrapezoid.schur_start_shifted st ~tmat ~h:2e-5 ~col ~omega:1e3
    done
  in
  start ();
  let w0 = Gc.minor_words () in
  start ();
  let w1 = Gc.minor_words () in
  (* [Gc.minor_words] itself boxes its result: take the cost of a
     read with nothing between *)
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words per shifted start" 0.0
    (w1 -. w0 -. (w2 -. w1))

let prop_trapezoid_linear_in_ic =
  QCheck.Test.make ~count:50 ~name:"trapezoid step linear in the state"
    QCheck.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (x1, x2) ->
      let a = mat_of [ [ -1.0; 0.5 ]; [ 0.0; -2.0 ] ] in
      let st = Trapezoid.make ~a ~h:0.01 in
      let zero = [| 0.0; 0.0 |] in
      let s v = Trapezoid.step st ~x:v ~f0:zero ~f1:zero in
      let lhs = s [| x1; x2 |] in
      let rhs =
        Vec.add
          (Vec.scale x1 (s [| 1.0; 0.0 |]))
          (Vec.scale x2 (s [| 0.0; 1.0 |]))
      in
      Vec.max_abs_diff lhs rhs <= 1e-10)

let () =
  Alcotest.run "ode"
    [
      ( "trapezoid",
        [
          Alcotest.test_case "homogeneous" `Quick test_trapezoid_homogeneous_accuracy;
          Alcotest.test_case "forced" `Quick test_trapezoid_forced_constant;
          Alcotest.test_case "A-stability" `Quick test_trapezoid_a_stability;
          Alcotest.test_case "2nd order" `Quick test_trapezoid_second_order;
          Alcotest.test_case "trajectory" `Quick test_trapezoid_trajectory;
          Alcotest.test_case "backward euler" `Quick test_backward_euler_step;
          QCheck_alcotest.to_alcotest prop_trapezoid_linear_in_ic;
        ] );
      ( "ctrapezoid",
        [
          Alcotest.test_case "matches real" `Quick test_ctrapezoid_matches_real;
          Alcotest.test_case "shifted decay" `Quick test_ctrapezoid_shift_analytic;
          Alcotest.test_case "steady state" `Quick test_ctrapezoid_trajectory_steady_state;
        ] );
      ( "schur",
        [
          Alcotest.test_case "shifted == dense LU" `Quick test_schur_matches_clu;
          Alcotest.test_case "rotated == dense LU" `Quick test_schur_general;
          Alcotest.test_case "panel column == width 1" `Quick
            test_schur_panel_bitwise;
          Alcotest.test_case "steps == Oracle.trapezoid per column" `Quick
            test_schur_step_vs_oracle;
          QCheck_alcotest.to_alcotest prop_step_vs_reference;
          QCheck_alcotest.to_alcotest prop_groups_match_width1;
          Alcotest.test_case "shipped grids == Oracle.schur_step" `Quick
            test_step_grids_vs_oracle;
          Alcotest.test_case "sweeps bitwise at every width and jobs" `Quick
            test_sweeps_every_width;
          Alcotest.test_case "step needs a shifted start" `Quick
            test_step_needs_shifted_start;
          Alcotest.test_case "shifted start allocates nothing" `Quick
            test_shifted_start_allocates_nothing;
        ] );
    ]
