module Vec = Scnoise_linalg.Vec
module Mat = Scnoise_linalg.Mat
module Lu = Scnoise_linalg.Lu
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Expm = Scnoise_linalg.Expm
module Lyapunov = Scnoise_linalg.Lyapunov
module Vanloan = Scnoise_linalg.Vanloan
module Eig = Scnoise_linalg.Eig
module Chol = Scnoise_linalg.Chol

let check_close ?(eps = 1e-10) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let check_mat_close ?(eps = 1e-10) msg expected actual =
  let d = Mat.max_abs_diff expected actual in
  let scale = 1.0 +. Mat.max_abs expected in
  if d > eps *. scale then
    Alcotest.failf "%s: max abs diff %g (scale %g)" msg d scale

let mat_of rows = Mat.of_arrays (Array.of_list (List.map Array.of_list rows))

(* deterministic pseudo-random matrices for property-ish unit tests *)
let rand_state = Random.State.make [| 20260704 |]

let random_mat n =
  Mat.init n n (fun _ _ -> Random.State.float rand_state 2.0 -. 1.0)

let random_stable_mat n =
  (* diag-dominant negative-definite-ish: A = M - (n + spectral slack) I *)
  let m = random_mat n in
  Mat.sub m (Mat.scale (float_of_int n +. 1.0) (Mat.identity n))

(* --- Vec --- *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  check_close "dot" 32.0 (Vec.dot a b);
  check_close "norm2" (sqrt 14.0) (Vec.norm2 a);
  check_close "norm_inf" 3.0 (Vec.norm_inf a);
  let c = Vec.add a b in
  check_close "add" 9.0 c.(2);
  let d = Vec.sub b a in
  check_close "sub" 3.0 d.(0);
  let y = Vec.copy b in
  Vec.axpy 2.0 a y;
  check_close "axpy" 6.0 y.(0);
  check_close "max_abs_diff" 3.0 (Vec.max_abs_diff a b)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: length mismatch")
    (fun () -> ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

(* --- Mat --- *)

let test_mat_mul_identity () =
  let a = random_mat 5 in
  check_mat_close "A I = A" a (Mat.mul a (Mat.identity 5));
  check_mat_close "I A = A" a (Mat.mul (Mat.identity 5) a)

let test_mat_transpose_involution () =
  let a = random_mat 4 in
  check_mat_close "transpose involution" a (Mat.transpose (Mat.transpose a))

let test_mat_mul_assoc () =
  let a = random_mat 4 and b = random_mat 4 and c = random_mat 4 in
  check_mat_close "associativity"
    (Mat.mul (Mat.mul a b) c)
    (Mat.mul a (Mat.mul b c))

let test_mat_mul_vec () =
  let a = mat_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let v = [| 1.0; 1.0 |] in
  let r = Mat.mul_vec a v in
  check_close "r0" 3.0 r.(0);
  check_close "r1" 7.0 r.(1);
  let rt = Mat.mul_transpose_vec a v in
  check_close "rt0" 4.0 rt.(0);
  check_close "rt1" 6.0 rt.(1);
  (* the _into forms overwrite a stale buffer and refuse to alias *)
  let out = [| nan; nan |] in
  Mat.mul_vec_into a v out;
  Alcotest.(check (array (float 0.0))) "mul_vec_into" r out;
  Mat.mul_transpose_vec_into a v out;
  Alcotest.(check (array (float 0.0))) "mul_transpose_vec_into" rt out;
  Alcotest.check_raises "mul_vec_into aliased"
    (Invalid_argument "Mat.mul_vec_into: aliased output") (fun () ->
      Mat.mul_vec_into a v v);
  Alcotest.check_raises "mul_transpose_vec_into aliased"
    (Invalid_argument "Mat.mul_transpose_vec_into: aliased output")
    (fun () -> Mat.mul_transpose_vec_into a v v)

let test_mat_submatrix_cat () =
  let a = mat_of [ [ 1.0; 2.0; 3.0 ]; [ 4.0; 5.0; 6.0 ]; [ 7.0; 8.0; 9.0 ] ] in
  let s = Mat.submatrix a ~rows:[ 0; 2 ] ~cols:[ 1 ] in
  check_close "s00" 2.0 (Mat.get s 0 0);
  check_close "s10" 8.0 (Mat.get s 1 0);
  let h = Mat.hcat a a in
  Alcotest.(check int) "hcat cols" 6 (Mat.cols h);
  check_close "hcat" 1.0 (Mat.get h 0 3);
  let v = Mat.vcat a a in
  Alcotest.(check int) "vcat rows" 6 (Mat.rows v);
  check_close "vcat" 1.0 (Mat.get v 3 0)

let test_mat_norms () =
  let a = mat_of [ [ 1.0; -2.0 ]; [ 3.0; 4.0 ] ] in
  check_close "norm_inf" 7.0 (Mat.norm_inf a);
  check_close "norm_fro" (sqrt 30.0) (Mat.norm_fro a);
  check_close "max_abs" 4.0 (Mat.max_abs a)

let test_mat_symmetrize () =
  let a = mat_of [ [ 1.0; 2.0 ]; [ 0.0; 3.0 ] ] in
  let s = Mat.symmetrize a in
  check_close "off" 1.0 (Mat.get s 0 1);
  check_close "off sym" 1.0 (Mat.get s 1 0)

(* --- Lu --- *)

let test_lu_solve_known () =
  let a = mat_of [ [ 2.0; 1.0 ]; [ 1.0; 3.0 ] ] in
  let x = Lu.solve_dense a [| 5.0; 10.0 |] in
  check_close "x0" 1.0 x.(0);
  check_close "x1" 3.0 x.(1)

let test_lu_det () =
  let a = mat_of [ [ 2.0; 1.0 ]; [ 1.0; 3.0 ] ] in
  check_close "det" 5.0 (Lu.det (Lu.factor a));
  (* permutation parity *)
  let p = mat_of [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ] in
  check_close "det of swap" (-1.0) (Lu.det (Lu.factor p))

let test_lu_inverse () =
  let a = random_mat 6 in
  let inv = Lu.inverse (Lu.factor a) in
  check_mat_close ~eps:1e-8 "A A^{-1} = I" (Mat.identity 6) (Mat.mul a inv)

let test_lu_singular () =
  let a = mat_of [ [ 1.0; 2.0 ]; [ 2.0; 4.0 ] ] in
  match Lu.factor a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_lu_random_roundtrip () =
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rand_state 8 in
    let a = Mat.add (random_mat n) (Mat.scale (float_of_int n) (Mat.identity n)) in
    let x = Array.init n (fun _ -> Random.State.float rand_state 2.0 -. 1.0) in
    let b = Mat.mul_vec a x in
    let x' = Lu.solve_dense a b in
    if Vec.max_abs_diff x x' > 1e-9 then Alcotest.fail "solve roundtrip"
  done

let test_lu_solve_mat () =
  let a = Mat.add (random_mat 4) (Mat.scale 5.0 (Mat.identity 4)) in
  let b = random_mat 4 in
  let x = Lu.solve_mat (Lu.factor a) b in
  check_mat_close ~eps:1e-9 "A X = B" b (Mat.mul a x)

(* Runs [f] with the sanitizer (on in the SCNOISE_SANITIZE=1 leg)
   off: for tests whose operands are non-finite on purpose, or that
   count allocations, which the sanitizer's scans add to. *)
let without_sanitizer f =
  let module Sanitize = Scnoise_linalg.Sanitize in
  let before = Sanitize.enabled () in
  Sanitize.set_enabled false;
  Fun.protect ~finally:(fun () -> Sanitize.set_enabled before) f

(* Past its first call on a domain at a size, [solve_mat] allocates
   nothing but its result: an extra allocation per solve shifts the
   collector's pacing, and with it the peak heap, of every caller. *)
let test_lu_solve_mat_alloc () =
  without_sanitizer @@ fun () ->
  let n = 40 in
  let a = Mat.add (random_mat n) (Mat.scale 5.0 (Mat.identity n)) in
  let b = random_mat n in
  let lu = Lu.factor a in
  ignore (Lu.solve_mat lu b);
  let w0 = Gc.minor_words () in
  let x = Lu.solve_mat lu b in
  let words = Gc.minor_words () -. w0 in
  (* the result's record; its n * n floats go to the major heap *)
  if words > 8.0 then
    Alcotest.failf "solve_mat allocated %.0f minor words besides its result"
      words;
  check_mat_close ~eps:1e-9 "A X = B" b (Mat.mul a x)

(* The reductions box nothing per entry: at n = 100 a boxing
   [Stdlib.max] would allocate 40,000 words per call. *)
let test_max_abs_alloc () =
  without_sanitizer @@ fun () ->
  let a = random_mat 100 and b = random_mat 100 in
  ignore (Mat.max_abs a +. Mat.max_abs_diff a b);
  let w0 = Gc.minor_words () in
  let x = Mat.max_abs a in
  let y = Mat.max_abs_diff a b in
  let words = Gc.minor_words () -. w0 in
  if words > 8.0 then
    Alcotest.failf "max_abs and max_abs_diff allocated %.0f minor words"
      words;
  if not (x > 0.0 && y > 0.0) then Alcotest.fail "max_abs of a random matrix"

let test_lu_rcond () =
  let good = Mat.identity 3 in
  if Lu.rcond_estimate (Lu.factor good) < 0.9 then Alcotest.fail "I rcond";
  let bad = mat_of [ [ 1.0; 0.0 ]; [ 0.0; 1e-14 ] ] in
  if Lu.rcond_estimate (Lu.factor bad) > 1e-10 then Alcotest.fail "bad rcond"

(* --- complex --- *)

let test_cx_arith () =
  let open Cx in
  let z = make 3.0 4.0 in
  check_close "modulus" 5.0 (modulus z);
  let w = z *: conj z in
  check_close "z conj z re" 25.0 w.re;
  check_close "z conj z im" 0.0 w.im;
  let e = cis (Float.pi /. 2.0) in
  check_close ~eps:1e-12 "cis re" 0.0 e.re;
  check_close "cis im" 1.0 e.im;
  if not (is_finite z) then Alcotest.fail "finite";
  if is_finite (make nan 0.0) then Alcotest.fail "nan not finite"

let test_cvec () =
  let a = Cvec.init 3 (fun i -> Cx.make (float_of_int i) 1.0) in
  check_close "norm_inf" (sqrt 5.0) (Cvec.norm_inf a);
  let r = Cvec.real a in
  check_close "real part" 2.0 r.(2);
  let s = Cvec.scale_re (-2.0) a in
  check_close "-2 (0+1i) = -2i" (-2.0) (Cvec.get s 0).Cx.im

(* The oracle's dense complex LU reconstructs the right-hand side of a
   diagonally dominant system, of general random ones, and of one whose
   leading entry is zero, which only a row interchange can factor. *)
let test_clu_roundtrip () =
  let roundtrip name a x =
    let lu = Oracle.clu_factor a in
    let x' = Oracle.clu_solve lu (Oracle.cmul_vec a x) in
    if Cvec.max_abs_diff (Cvec.of_array x) (Cvec.of_array x') > 1e-9 then
      Alcotest.failf "%s: complex solve roundtrip" name;
    lu
  in
  (* drawn from the suite's shared stream, as the later groups expect *)
  let n = 5 in
  let dominant =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let d = if i = j then 6.0 else 0.0 in
            Cx.make
              (d +. Random.State.float rand_state 1.0)
              (Random.State.float rand_state 1.0)))
  in
  let x = Array.init n (fun _ -> Cx.make (Random.State.float rand_state 1.0) 0.5) in
  ignore (roundtrip "dominant" dominant x);
  let rng = Random.State.make [| 0xc10 |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let cx () = Cx.make (rnd ()) (rnd ()) in
  for k = 1 to 4 do
    let a = Array.init 6 (fun _ -> Array.init 6 (fun _ -> cx ())) in
    ignore (roundtrip (Printf.sprintf "random %d" k) a (Array.init 6 (fun _ -> cx ())))
  done;
  let lu =
    roundtrip "zero leading entry"
      [|
        [| Cx.zero; Cx.make 1.0 1.0; Cx.re 2.0 |];
        [| Cx.re 3.0; Cx.re 1.0; Cx.re (-1.0) |];
        [| Cx.re 1.0; Cx.make 0.0 2.0; Cx.re 1.0 |];
      |]
      [| Cx.re 1.0; Cx.make 0.5 (-1.0); Cx.make 0.0 2.0 |]
  in
  let _, _, perm = lu in
  Alcotest.(check bool) "first column pivoted" true (perm.(0) <> 0)

(* --- Expm --- *)

let test_expm_zero () =
  check_mat_close "expm 0 = I" (Mat.identity 4) (Expm.expm (Mat.create 4 4))

let test_expm_diag () =
  let a = Mat.diag [| 1.0; -2.0; 0.5 |] in
  let e = Expm.expm a in
  check_close "e^1" (exp 1.0) (Mat.get e 0 0);
  check_close "e^-2" (exp (-2.0)) (Mat.get e 1 1);
  check_close "e^0.5" (exp 0.5) (Mat.get e 2 2);
  check_close "off-diag" 0.0 (Mat.get e 0 1)

let test_expm_nilpotent () =
  let a = mat_of [ [ 0.0; 1.0 ]; [ 0.0; 0.0 ] ] in
  let e = Expm.expm a in
  check_mat_close "expm nilpotent" (mat_of [ [ 1.0; 1.0 ]; [ 0.0; 1.0 ] ]) e

let test_expm_rotation () =
  let w = 3.0 in
  let a = mat_of [ [ 0.0; -.w ]; [ w; 0.0 ] ] in
  let t = 0.7 in
  let e = Expm.expm_scaled a t in
  let c = cos (w *. t) and s = sin (w *. t) in
  check_mat_close "rotation" (mat_of [ [ c; -.s ]; [ s; c ] ]) e

let test_expm_inverse_property () =
  let a = random_mat 5 in
  let e1 = Expm.expm a in
  let e2 = Expm.expm (Mat.scale (-1.0) a) in
  check_mat_close ~eps:1e-8 "e^A e^{-A} = I" (Mat.identity 5) (Mat.mul e1 e2)

let test_expm_large_norm () =
  (* exercises scaling-and-squaring: stiff decay rate *)
  let a = Mat.diag [| -1e6; -2e6 |] in
  let e = Expm.expm_scaled a 1e-5 in
  check_close ~eps:1e-9 "stiff decay" (exp (-10.0)) (Mat.get e 0 0);
  check_close ~eps:1e-9 "stiff decay 2" (exp (-20.0)) (Mat.get e 1 1)

let test_expm_semigroup () =
  let a = random_mat 4 in
  let half = Expm.expm_scaled a 0.5 in
  let full = Expm.expm a in
  check_mat_close ~eps:1e-8 "e^{A} = (e^{A/2})²" full (Mat.mul half half)

(* --- Kron --- *)

let test_kron_identity () =
  let a = random_mat 3 in
  check_mat_close "I1 ⊗ A" a (Kron.kron (Mat.identity 1) a)

let test_vec_unvec_roundtrip () =
  let a = Mat.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  check_mat_close "unvec ∘ vec" a (Kron.unvec 3 4 (Kron.vec a))

let test_kron_vec_identity () =
  (* vec(A X B) = (Bᵀ ⊗ A) vec X *)
  let a = random_mat 3 and x = random_mat 3 and b = random_mat 3 in
  let lhs = Kron.vec (Mat.mul a (Mat.mul x b)) in
  let rhs = Mat.mul_vec (Kron.kron (Mat.transpose b) a) (Kron.vec x) in
  if Vec.max_abs_diff lhs rhs > 1e-10 then Alcotest.fail "kron-vec identity"

(* --- Eig --- *)

let sort_complex zs =
  let l = Array.to_list zs in
  List.sort
    (fun (a : Cx.t) (b : Cx.t) ->
      match compare a.re b.re with 0 -> compare a.im b.im | c -> c)
    l

let check_spectrum ?(eps = 1e-8) msg expected actual =
  let e = sort_complex expected and a = sort_complex actual in
  if List.length e <> List.length a then Alcotest.failf "%s: count" msg;
  List.iter2
    (fun (x : Cx.t) (y : Cx.t) ->
      if Cx.modulus (Cx.( -: ) x y) > eps *. (1.0 +. Cx.modulus x) then
        Alcotest.failf "%s: eigenvalue mismatch (%g%+gi) vs (%g%+gi)" msg x.re
          x.im y.re y.im)
    e a

let test_eig_diag () =
  let a = Mat.diag [| 3.0; -1.0; 7.0 |] in
  check_spectrum "diag"
    [| Cx.re 3.0; Cx.re (-1.0); Cx.re 7.0 |]
    (Eig.eigenvalues a)

let test_eig_triangular () =
  let a = mat_of [ [ 2.0; 5.0; 1.0 ]; [ 0.0; -3.0; 2.0 ]; [ 0.0; 0.0; 4.0 ] ] in
  check_spectrum "triangular"
    [| Cx.re 2.0; Cx.re (-3.0); Cx.re 4.0 |]
    (Eig.eigenvalues a)

let test_eig_rotation () =
  let a = mat_of [ [ 0.0; -1.0 ]; [ 1.0; 0.0 ] ] in
  check_spectrum "rotation"
    [| Cx.make 0.0 1.0; Cx.make 0.0 (-1.0) |]
    (Eig.eigenvalues a)

let test_eig_ring_oscillator () =
  (* Linear 3-stage ring oscillator from the source paper: per stage
     dV_i/dt = (1/RC)(-V_i - 2 V_{i-1}); eigenvalues -3/RC and
     ±j·sqrt(3)/RC. *)
  let rc = 2e-9 in
  let g = 1.0 /. rc in
  let a =
    mat_of
      [
        [ -.g; 0.0; -2.0 *. g ];
        [ -2.0 *. g; -.g; 0.0 ];
        [ 0.0; -2.0 *. g; -.g ];
      ]
  in
  let s3 = sqrt 3.0 in
  check_spectrum ~eps:1e-6 "ring oscillator"
    [| Cx.re (-3.0 *. g); Cx.make 0.0 (s3 *. g); Cx.make 0.0 (-.s3 *. g) |]
    (Eig.eigenvalues a)

let test_eig_trace_det () =
  for _ = 1 to 10 do
    let n = 2 + Random.State.int rand_state 6 in
    let a = random_mat n in
    let eigs = Eig.eigenvalues a in
    let tr = ref 0.0 in
    for i = 0 to n - 1 do
      tr := !tr +. Mat.get a i i
    done;
    let sum = Array.fold_left Cx.( +: ) Cx.zero eigs in
    check_close ~eps:1e-7 "trace = sum of eigenvalues" !tr sum.Cx.re;
    if abs_float sum.Cx.im > 1e-7 then Alcotest.fail "eig sum not real";
    let det = Lu.det (Lu.factor a) in
    let prod = Array.fold_left Cx.( *: ) Cx.one eigs in
    check_close ~eps:1e-6 "det = product of eigenvalues" det prod.Cx.re
  done

let test_eig_spectral_radius () =
  let a = mat_of [ [ 0.5; 0.4 ]; [ 0.0; -0.3 ] ] in
  check_close "radius" 0.5 (Eig.spectral_radius a);
  if not (Eig.is_schur_stable a) then Alcotest.fail "schur stable";
  check_close "abscissa" 0.5 (Eig.spectral_abscissa a)

let test_hessenberg_structure_and_spectrum () =
  let a = random_mat 6 in
  let h, _ = Eig.hessenberg a in
  (* zero below the first subdiagonal *)
  for i = 0 to 5 do
    for j = 0 to 5 do
      if i > j + 1 && abs_float (Mat.get h i j) > 1e-12 then
        Alcotest.failf "H(%d,%d) = %g not annihilated" i j (Mat.get h i j)
    done
  done;
  (* similarity: same spectrum *)
  check_spectrum ~eps:1e-7 "hessenberg similarity" (Eig.eigenvalues a)
    (Eig.eigenvalues h)

(* A = U H Uᵀ with U orthogonal, to rounding, from 1 to 100 states —
   and again on the H of each reduction, an input that is already
   Hessenberg (whose reflectors at most flip signs). *)
let test_hessenberg_factor () =
  let check name a =
    let n = Mat.rows a in
    let h, u = Eig.hessenberg a in
    for i = 0 to n - 1 do
      for j = 0 to i - 2 do
        if Mat.get h i j <> 0.0 then
          Alcotest.failf "%s: H(%d,%d) = %g below the subdiagonal" name i j
            (Mat.get h i j)
      done
    done;
    let resid =
      Mat.norm_fro (Mat.sub a (Mat.mul u (Mat.mul h (Mat.transpose u))))
    in
    let orth =
      Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose u) u) (Mat.identity n))
    in
    if resid > 1e-13 *. Mat.norm_fro a then
      Alcotest.failf "%s: ||A - U H Uᵀ|| = %.3e (||A|| = %.3e)" name resid
        (Mat.norm_fro a);
    if orth > 1e-14 *. float_of_int n then
      Alcotest.failf "%s: ||UᵀU - I|| = %.3e" name orth;
    h
  in
  List.iter
    (fun n ->
      let h = check (Printf.sprintf "random n=%d" n) (random_mat n) in
      ignore (check (Printf.sprintf "hessenberg n=%d" n) h))
    [ 1; 2; 3; 9; 40; 100 ]

(* A = Z T Zᵀ ([Eig.schur]) to a few ulps of ||A||, with Z orthogonal
   and T quasi-upper-triangular in standard form: exact zeros below the
   subdiagonal, a nonzero subdiagonal entry only inside a 2×2 block
   [[a b] [c a]] with b c < 0, and the blocks' eigenvalues those of
   [Eig.eigenvalues] where they are well conditioned.  The cases: random
   dense matrices of 1 to 12 states, the phases and the monodromy of
   the hundred-state ladder the sweep reduces, a Jordan block, the
   sc_integrator's singular phases, the band-pass phases and a phase
   with a complex pair (the paper's ring oscillator). *)
let test_schur_factor () =
  let module Pwl = Scnoise_circuit.Pwl in
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let module SI = Scnoise_circuits.Sc_integrator in
  let module BP = Scnoise_circuits.Sc_bandpass in
  let eps = epsilon_float in
  let blocks = ref 0 in
  let check ?(spectrum = false) name a =
    let n = Mat.rows a in
    let t, z = Eig.schur a in
    let resid =
      Mat.norm_fro (Mat.sub a (Mat.mul z (Mat.mul t (Mat.transpose z))))
    in
    if resid > 100.0 *. eps *. Mat.norm_fro a then
      Alcotest.failf "%s: ||Z T Zᵀ - A|| = %.3e (||A|| = %.3e)" name resid
        (Mat.norm_fro a);
    let orth =
      Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose z) z) (Mat.identity n))
    in
    if orth > 1e-14 *. float_of_int n then
      Alcotest.failf "%s: ||ZᵀZ - I|| = %.3e" name orth;
    let eigs = ref [] in
    let i = ref 0 in
    while !i < n do
      let k = !i in
      for r = k + 2 to n - 1 do
        if Mat.get t r k <> 0.0 then
          Alcotest.failf "%s: T(%d,%d) = %g below the subdiagonal" name r k
            (Mat.get t r k)
      done;
      if k + 1 < n && Mat.get t (k + 1) k <> 0.0 then begin
        incr blocks;
        let a = Mat.get t k k and b = Mat.get t k (k + 1)
        and c = Mat.get t (k + 1) k and d = Mat.get t (k + 1) (k + 1) in
        if a <> d || b *. c >= 0.0 then
          Alcotest.failf "%s: 2x2 block at %d not standard: [%g %g; %g %g]"
            name k a b c d;
        if k + 2 < n && Mat.get t (k + 2) (k + 1) <> 0.0 then
          Alcotest.failf "%s: blocks at %d and %d touch" name k (k + 1);
        let im = sqrt (abs_float b) *. sqrt (abs_float c) in
        eigs := Cx.make a im :: Cx.make a (-.im) :: !eigs;
        i := k + 2
      end
      else begin
        eigs := Cx.re (Mat.get t k k) :: !eigs;
        i := k + 1
      end
    done;
    if spectrum then
      check_spectrum ~eps:1e-9 (name ^ ": spectrum") (Eig.eigenvalues a)
        (Array.of_list !eigs)
  in
  let rng = Random.State.make [| 0x5c40 |] in
  for n = 1 to 12 do
    for k = 0 to 3 do
      check ~spectrum:true
        (Printf.sprintf "random %dx%d #%d" n n k)
        (Mat.init n n (fun _ _ -> Random.State.float rng 2.0 -. 1.0))
    done
  done;
  let random_blocks = !blocks in
  Alcotest.(check bool)
    (Printf.sprintf "random cases carry complex pairs (%d blocks)"
       random_blocks)
    true (random_blocks > 0);
  let lad =
    (Ladder.build (Ladder.with_parasitics (Ladder.with_stages 50))).Ladder.sys
  in
  Array.iteri
    (fun p (ph : Pwl.phase) ->
      check (Printf.sprintf "ladder-100 A%d" p) ph.Pwl.a)
    lad.Pwl.phases;
  check "ladder-100 monodromy" (Pwl.monodromy lad);
  check "jordan block"
    (Mat.init 6 6 (fun i j ->
         if i = j then -2.0 else if j = i + 1 then 1.0 else 0.0));
  let si = (SI.build SI.default).SI.sys in
  Alcotest.(check bool) "sc_integrator has a singular phase" true
    (Array.exists
       (fun (ph : Pwl.phase) ->
         Array.exists
           (fun z -> Cx.modulus z <= 1e-15 *. Mat.norm_fro ph.Pwl.a)
           (Eig.eigenvalues ph.Pwl.a))
       si.Pwl.phases);
  Array.iteri
    (fun p (ph : Pwl.phase) ->
      check (Printf.sprintf "sc_integrator A%d" p) ph.Pwl.a)
    si.Pwl.phases;
  Array.iteri
    (fun p (ph : Pwl.phase) ->
      check ~spectrum:true (Printf.sprintf "sc_bandpass A%d" p) ph.Pwl.a)
    (BP.build BP.default).BP.sys.Pwl.phases;
  (* the source paper's three-stage ring oscillator: -3/RC and
     ±j sqrt(3)/RC *)
  let b0 = !blocks in
  let g = 1.0 /. 2e-9 in
  check ~spectrum:true "ring oscillator"
    (mat_of
       [
         [ -.g; 0.0; -2.0 *. g ];
         [ -2.0 *. g; -.g; 0.0 ];
         [ 0.0; -2.0 *. g; -.g ];
       ]);
  Alcotest.(check int) "the ring oscillator's complex pair is one block" 1
    (!blocks - b0)

(* Accumulating U leaves the reduction's arithmetic alone: the
   eigenvalues keep the bits they had before the factor was
   returned. *)
let test_eigenvalues_bits () =
  let a =
    Mat.init 9 9 (fun i j -> sin (float_of_int (((i + 1) * (j + 2)) + (i * i))))
  in
  let golden =
    [|
      (0x3ffba416530f8080L, 0x3ff005763b676ca5L);
      (0x3ffba416530f8080L, 0xbff005763b676ca5L);
      (0x3ff01799bcce3f15L, 0x3ffcdc47a3d35314L);
      (0x3ff01799bcce3f15L, 0xbffcdc47a3d35314L);
      (0x3fde417c50ec7c7bL, 0x0L);
      (0xbff1e25169c6472eL, 0x3ff54a23e759c787L);
      (0xbff1e25169c6472eL, 0xbff54a23e759c787L);
      (0xbffb294ee9eb8bc6L, 0x0L);
      (0xbff30174b723b6c6L, 0x0L);
    |]
  in
  let bits (z : Cx.t) = (Int64.bits_of_float z.re, Int64.bits_of_float z.im) in
  let got = Array.map bits (Eig.eigenvalues a) in
  Alcotest.(check bool) "eigenvalues bit-identical to the golden" true
    (got = golden)

let test_eig_companion () =
  (* companion of p(x) = x³ - 6x² + 11x - 6 = (x-1)(x-2)(x-3) *)
  let a =
    mat_of [ [ 6.0; -11.0; 6.0 ]; [ 1.0; 0.0; 0.0 ]; [ 0.0; 1.0; 0.0 ] ]
  in
  check_spectrum ~eps:1e-7 "companion"
    [| Cx.re 1.0; Cx.re 2.0; Cx.re 3.0 |]
    (Eig.eigenvalues a)

(* --- Lyapunov --- *)

let test_lyap_continuous_scalar () =
  let a = mat_of [ [ -2.0 ] ] and q = mat_of [ [ 4.0 ] ] in
  let x = Kron.solve_continuous a q in
  check_close "scalar lyap" 1.0 (Mat.get x 0 0)

let test_lyap_continuous_residual () =
  let a = random_stable_mat 5 in
  let b = random_mat 5 in
  let q = Mat.mul b (Mat.transpose b) in
  let x = Kron.solve_continuous a q in
  let resid =
    Mat.add (Mat.add (Mat.mul a x) (Mat.mul x (Mat.transpose a))) q
  in
  if Mat.max_abs resid > 1e-8 *. (1.0 +. Mat.max_abs q) then
    Alcotest.fail "continuous lyapunov residual"

let test_lyap_discrete_kron_vs_doubling () =
  let phi = Mat.scale 0.4 (random_mat 5) in
  let b = random_mat 5 in
  let q = Mat.mul b (Mat.transpose b) in
  let x1 = Kron.solve_discrete phi q in
  let x2 = Lyapunov.solve_discrete_doubling phi q in
  check_mat_close ~eps:1e-10 "kron vs doubling" x1 x2;
  check_close ~eps:1e-9 "residual kron" 0.0
    (Lyapunov.residual_discrete phi q x1);
  check_close ~eps:1e-9 "residual doubling" 0.0
    (Lyapunov.residual_discrete phi q x2)

let test_lyap_discrete_unstable () =
  let phi = Mat.scale 1.5 (Mat.identity 3) in
  let q = Mat.identity 3 in
  match Lyapunov.solve_discrete_doubling phi q with
  | exception Lyapunov.Not_stable _ -> ()
  | _ -> Alcotest.fail "expected Not_stable"

(* --- Van Loan --- *)

let test_vanloan_scalar_rc () =
  (* dx = a x dt + sqrt(q0) dW: Phi = e^{a tau},
     Qd = q0 (e^{2 a tau} - 1)/(2a). *)
  let a0 = -3.0 and q0 = 2.0 and tau = 0.4 in
  let d =
    Vanloan.discretize ~a:(mat_of [ [ a0 ] ]) ~q:(mat_of [ [ q0 ] ]) ~tau
  in
  check_close "phi" (exp (a0 *. tau)) (Mat.get d.Vanloan.phi 0 0);
  check_close "qd"
    (q0 *. ((exp (2.0 *. a0 *. tau) -. 1.0) /. (2.0 *. a0)))
    (Mat.get d.Vanloan.qd 0 0)

let test_vanloan_zero_tau () =
  let d =
    Vanloan.discretize ~a:(random_mat 3) ~q:(Mat.identity 3) ~tau:0.0
  in
  check_mat_close "phi = I" (Mat.identity 3) d.Vanloan.phi;
  check_close "qd = 0" 0.0 (Mat.max_abs d.Vanloan.qd)

let test_vanloan_compose () =
  (* Discretising over tau must equal two successive tau/2 steps. *)
  let a = random_stable_mat 4 in
  let b = random_mat 4 in
  let q = Mat.mul b (Mat.transpose b) in
  let full = Vanloan.discretize ~a ~q ~tau:0.3 in
  let half = Vanloan.discretize ~a ~q ~tau:0.15 in
  let phi2 = Mat.mul half.Vanloan.phi half.Vanloan.phi in
  check_mat_close ~eps:1e-9 "phi composes" full.Vanloan.phi phi2;
  let qd2 = Vanloan.propagate half half.Vanloan.qd in
  check_mat_close ~eps:1e-9 "qd composes" full.Vanloan.qd qd2

let test_vanloan_stationary_limit () =
  (* For stable A, the discrete steady state over any tau equals the
     continuous Lyapunov solution. *)
  let a = random_stable_mat 4 in
  let b = random_mat 4 in
  let q = Mat.mul b (Mat.transpose b) in
  let k_inf = Kron.solve_continuous a q in
  let d = Vanloan.discretize ~a ~q ~tau:0.7 in
  let k_dis = Kron.solve_discrete d.Vanloan.phi d.Vanloan.qd in
  check_mat_close ~eps:1e-7 "continuous vs discrete steady state" k_inf k_dis

let test_vanloan_stiff_path_matches_chunked () =
  (* above the stiffness threshold the implementation composes safe
     augmented sub-steps by binary powering; it must agree with
     composing many smaller ones in sequence *)
  let a = Mat.diag [| -1e8; -3e7 |] in
  let b = mat_of [ [ 1.0; 0.2 ]; [ 0.0; 0.5 ] ] in
  let q = Mat.mul b (Mat.transpose b) in
  let tau = 1e-5 in
  (* stiffness 1e3 >> threshold *)
  assert (Mat.norm_inf a *. tau > Vanloan.stiff_threshold);
  let d = Vanloan.discretize ~a ~q ~tau in
  let chunks = 200 in
  let step = Vanloan.discretize ~a ~q ~tau:(tau /. float_of_int chunks) in
  let phi = ref (Mat.identity 2) and qd = ref (Mat.create 2 2) in
  for _ = 1 to chunks do
    phi := Mat.mul step.Vanloan.phi !phi;
    qd := Vanloan.propagate step !qd
  done;
  check_mat_close ~eps:1e-9 "phi stiff" !phi d.Vanloan.phi;
  check_mat_close ~eps:1e-9 "qd stiff" !qd d.Vanloan.qd;
  (* a singular A — a zero row, the state of a held capacitor — has
     no stationary form; binary powering of the sub-step must agree
     with composing the same sub-step one at a time *)
  let a =
    mat_of
      [ [ 0.0; 0.0; 0.0 ]; [ 2e5; -7e5; 1e5 ]; [ 0.0; 3e5; -9e5 ] ]
  in
  let b = mat_of [ [ 0.3; 0.0 ]; [ 1.0; 0.2 ]; [ 0.0; 0.5 ] ] in
  let q = Mat.mul b (Mat.transpose b) and tau = 1e-3 in
  let stiffness = Mat.norm_inf a *. tau in
  let chunks = int_of_float (ceil (stiffness /. Vanloan.stiff_threshold)) in
  Alcotest.(check int) "sub-steps" 60 chunks;
  let d = Vanloan.discretize ~a ~q ~tau in
  let step = Vanloan.discretize ~a ~q ~tau:(tau /. float_of_int chunks) in
  let phi = ref (Mat.identity 3) and qd = ref (Mat.create 3 3) in
  for _ = 1 to chunks do
    phi := Mat.mul step.Vanloan.phi !phi;
    qd := Vanloan.propagate step !qd
  done;
  let rel msg x y =
    let e = Mat.max_abs_diff x y /. Mat.max_abs x in
    if not (e <= 1e-12) then Alcotest.failf "%s: %.3e relative" msg e
  in
  rel "phi singular stiff" !phi d.Vanloan.phi;
  rel "qd singular stiff" !qd d.Vanloan.qd;
  (* the held state integrates its own noise: qd_00 = q_00 tau *)
  check_close ~eps:1e-12 "held qd" (0.09 *. tau) (Mat.get d.Vanloan.qd 0 0)

let test_vanloan_marginal_chunked_fallback () =
  (* A = 0 (lossless): qd must be exactly Q tau *)
  let q = mat_of [ [ 2.0; 0.5 ]; [ 0.5; 1.0 ] ] in
  let d = Vanloan.discretize ~a:(Mat.create 2 2) ~q ~tau:0.7 in
  check_mat_close "phi = I" (Mat.identity 2) d.Vanloan.phi;
  check_mat_close ~eps:1e-12 "qd = Q tau" (Mat.scale 0.7 q) d.Vanloan.qd;
  (* and a marginal-but-large-norm case takes the stiff path *)
  let a = mat_of [ [ 0.0; 1e6 ]; [ -1e6; 0.0 ] ] in
  (* pure rotation: Lyapunov operator singular *)
  let d2 = Vanloan.discretize ~a ~q:(Mat.identity 2) ~tau:1e-3 in
  (* the transition must stay orthogonal (energy preserved) *)
  let gram = Mat.mul (Mat.transpose d2.Vanloan.phi) d2.Vanloan.phi in
  check_mat_close ~eps:1e-9 "orthogonal phi" (Mat.identity 2) gram;
  (* and the accumulated noise of an isotropic rotation is tau I *)
  check_mat_close ~eps:1e-9 "qd rotation" (Mat.scale 1e-3 (Mat.identity 2))
    d2.Vanloan.qd

let test_vanloan_discretize_b () =
  let a = mat_of [ [ -1.0; 0.0 ]; [ 0.0; -2.0 ] ] in
  let b = mat_of [ [ 1.0; 1.0 ]; [ 0.0; 1.0 ] ] in
  let d1 = Vanloan.discretize_b ~a ~b ~tau:0.2 in
  let d2 =
    Vanloan.discretize ~a ~q:(Mat.mul b (Mat.transpose b)) ~tau:0.2
  in
  check_mat_close "b wrapper" d2.Vanloan.qd d1.Vanloan.qd

(* --- Chol --- *)

let test_chol_known () =
  let m = mat_of [ [ 4.0; 2.0 ]; [ 2.0; 5.0 ] ] in
  let l = Chol.factor m in
  check_mat_close "L Lt = M" m (Mat.mul l (Mat.transpose l));
  check_close "l00" 2.0 (Mat.get l 0 0);
  check_close "upper zero" 0.0 (Mat.get l 0 1)

let test_chol_solve () =
  let m = mat_of [ [ 4.0; 2.0 ]; [ 2.0; 5.0 ] ] in
  let l = Chol.factor m in
  let x = [| 1.0; -2.0 |] in
  let b = Mat.mul_vec m x in
  let x' = Chol.solve l b in
  if Vec.max_abs_diff x x' > 1e-12 then Alcotest.fail "chol solve"

let test_chol_random_spd () =
  for _ = 1 to 10 do
    let n = 1 + Random.State.int rand_state 6 in
    let g = random_mat n in
    let m = Mat.add (Mat.mul g (Mat.transpose g)) (Mat.scale 0.1 (Mat.identity n)) in
    let l = Chol.factor m in
    check_mat_close ~eps:1e-9 "random spd" m (Mat.mul l (Mat.transpose l))
  done

let test_chol_semidefinite () =
  (* rank-1 PSD matrix: factorisation must not fail *)
  let v = [| 1.0; 2.0; 3.0 |] in
  let m = Mat.init 3 3 (fun i j -> v.(i) *. v.(j)) in
  let l = Chol.factor m in
  check_mat_close ~eps:1e-6 "rank-1" m (Mat.mul l (Mat.transpose l))

let test_chol_is_psd () =
  if not (Chol.is_psd (Mat.identity 3)) then Alcotest.fail "I is psd";
  let indef = mat_of [ [ 1.0; 2.0 ]; [ 2.0; 1.0 ] ] in
  if Chol.is_psd indef then Alcotest.fail "indefinite accepted"

let test_chol_indefinite_raises () =
  let indef = mat_of [ [ -1.0; 0.0 ]; [ 0.0; -1.0 ] ] in
  match Chol.factor indef with
  | exception Chol.Not_psd _ -> ()
  | _ -> Alcotest.fail "negative definite accepted"

(* --- qcheck properties --- *)

let small_mat_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    list_repeat (n * n) (float_range (-2.0) 2.0) >|= fun xs ->
    (n, Array.of_list xs))

let small_mat_arb =
  QCheck.make
    ~print:(fun (n, d) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat ";" (Array.to_list (Array.map string_of_float d))))
    small_mat_gen

let mat_of_flat (n, d) = Mat.init n n (fun i j -> d.((i * n) + j))

let prop_expm_det =
  (* det e^A = e^{tr A} *)
  QCheck.Test.make ~count:50 ~name:"det expm = exp trace" small_mat_arb
    (fun (n, d) ->
      let a = mat_of_flat (n, d) in
      let e = Expm.expm a in
      let tr = ref 0.0 in
      for i = 0 to n - 1 do
        tr := !tr +. Mat.get a i i
      done;
      let det = Lu.det (Lu.factor e) in
      abs_float (det -. exp !tr) <= 1e-6 *. (1.0 +. exp !tr))

let prop_lu_solve =
  QCheck.Test.make ~count:50 ~name:"lu solves diagonally dominated systems"
    small_mat_arb (fun (n, d) ->
      let a =
        Mat.add (mat_of_flat (n, d))
          (Mat.scale (3.0 *. float_of_int n) (Mat.identity n))
      in
      let x = Array.init n (fun i -> float_of_int i +. 0.5) in
      let b = Mat.mul_vec a x in
      let x' = Lu.solve_dense a b in
      Vec.max_abs_diff x x' <= 1e-8)

let prop_eig_count =
  QCheck.Test.make ~count:50 ~name:"eigenvalue count = n" small_mat_arb
    (fun (n, d) -> Array.length (Eig.eigenvalues (mat_of_flat (n, d))) = n)

(* --- bitwise kernel properties ---

   The dense kernels promise the same floating-point result, bit for
   bit, as the straightforward loops they replaced.  Those loops live
   on as references ([Oracle.gemm] for the product); every comparison
   is on [Int64.bits_of_float], so a reordered sum, a fused
   multiply-add or a lost signed zero fails. *)

let check_bits msg expected actual =
  if not (Oracle.bits_equal expected actual) then begin
    let k = ref 0 in
    while
      !k < Array.length expected
      && Int64.equal
           (Int64.bits_of_float expected.(!k))
           (Int64.bits_of_float actual.(!k))
    do
      incr k
    done;
    if !k < Array.length expected && !k < Array.length actual then
      Alcotest.failf "%s: entry %d is %h, reference %h" msg !k actual.(!k)
        expected.(!k)
    else Alcotest.failf "%s: length %d, reference %d" msg
        (Array.length actual) (Array.length expected)
  end

let bit_rng = Random.State.make [| 0x6b17 |]

let bit_rand () = Random.State.float bit_rng 2.0 -. 1.0

(* operand shapes the tiled kernel must get right: dense, scattered
   zeros with whole zero rows and columns and signed zeros, block upper
   triangular (the Van Loan layout), banded and identity *)
let structured kind r c =
  match kind with
  | `Dense -> Mat.init r c (fun _ _ -> bit_rand ())
  | `Holes ->
      let zr = Array.init r (fun _ -> Random.State.int bit_rng 4 = 0)
      and zc = Array.init c (fun _ -> Random.State.int bit_rng 4 = 0) in
      Mat.init r c (fun i j ->
          if zr.(i) || zc.(j) then 0.0
          else
            match Random.State.int bit_rng 5 with
            | 0 -> 0.0
            | 1 -> -0.0
            | _ -> bit_rand ())
  | `Block ->
      let h = r / 2 and w = c / 2 in
      Mat.init r c (fun i j -> if i >= h && j < w then 0.0 else bit_rand ())
  | `Band ->
      let w = Random.State.int bit_rng 3 in
      Mat.init r c (fun i j -> if abs (i - j) <= w then bit_rand () else 0.0)
  | `Identity -> Mat.init r c (fun i j -> if i = j then 1.0 else 0.0)

let kinds = [ `Dense; `Holes; `Block; `Band; `Identity ]

let test_mul_bitwise () =
  let dims = [ (1, 1, 1); (37, 37, 37); (3, 5, 7); (33, 20, 35); (2, 9, 4) ] in
  let random_dims =
    List.init 40 (fun _ ->
        let d () = 1 + Random.State.int bit_rng 37 in
        (* odd heights and widths off a multiple of 4 exercise the tails *)
        let odd x = if x mod 2 = 0 then x - 1 else x in
        let off4 x = if x mod 4 = 0 then x + 1 else x in
        (odd (d ()), d (), off4 (d ())))
  in
  List.iter
    (fun (m, p, n) ->
      List.iter
        (fun ka ->
          List.iter
            (fun kb ->
              let a = structured ka m p and b = structured kb p n in
              check_bits
                (Printf.sprintf "mul %dx%d * %dx%d" m p p n)
                (Oracle.gemm a b)
                (Mat.data (Mat.mul a b)))
            kinds)
        kinds)
    (dims @ random_dims)

(* [inf * 0] is NaN, so a non-finite [a] must not let the kernel trim
   the leading and trailing zero rows of [b] from its range of k *)
let test_mul_nonfinite () =
  List.iter
    (fun x ->
      let edge k = k = 0 || k = 5 in
      let a =
        Mat.init 5 6 (fun i j -> if i = 2 && edge j then x else bit_rand ())
      in
      let b = Mat.init 6 9 (fun k _ -> if edge k then 0.0 else bit_rand ()) in
      check_bits "mul with non-finite a" (Oracle.gemm a b)
        (Mat.data (Mat.mul a b));
      (* and a zero column of [a] still skips a non-finite row of [b] *)
      let a' = Mat.transpose b and b' = Mat.transpose a in
      check_bits "mul with non-finite b" (Oracle.gemm a' b')
        (Mat.data (Mat.mul a' b'));
      (* scattered zeros of [a] against scattered non-finite [b] *)
      let a'' = structured `Holes 7 9 in
      let b'' =
        Mat.init 9 6 (fun _ _ ->
            if Random.State.int bit_rng 4 = 0 then x else bit_rand ())
      in
      check_bits "mul with scattered non-finite b" (Oracle.gemm a'' b'')
        (Mat.data (Mat.mul a'' b'')))
    [ infinity; neg_infinity; Float.nan ]

(* [Lu.solve_mat] against one [Lu.solve] per column.  The factors and
   right-hand sides cover what the kernel's skips must get right: zero
   factor entries and empty or narrow row spans (block, band, holes,
   and the real Padé system of a ladder Van Loan step), signed zeros,
   an all-zero [b], non-finite [b], a finite [b] whose solve overflows
   part-way, after which a zero factor must still meet an infinite row
   (0 * inf is NaN), and an infinite factor, which must still meet a
   zero. *)
let check_solve_mat msg lu b =
  let n = Mat.rows b and nc = Mat.cols b in
  let reference = Array.make (n * nc) 0.0 in
  for c = 0 to nc - 1 do
    let xc = Lu.solve lu (Mat.col b c) in
    for i = 0 to n - 1 do
      reference.((i * nc) + c) <- xc.(i)
    done
  done;
  check_bits msg reference (Mat.data (Lu.solve_mat lu b))

let kind_name = function
  | `Dense -> "dense"
  | `Holes -> "holes"
  | `Block -> "block"
  | `Band -> "band"
  | `Identity -> "identity"

(* labelled right-hand sides: every structured kind, all zeros, a
   dense one with a single -0.0 (which must run at full width right
   after the empty spans of the zero one), and scattered infinities and
   NaNs *)
let solve_rhs n nc =
  List.map (fun k -> (kind_name k, structured k n nc)) kinds
  @ [
      ("zero", Mat.create n nc);
      ( "dense with one -0.0",
        Mat.init n nc (fun i j -> if i = 0 && j = 0 then -0.0 else bit_rand ())
      );
    ]
  @ List.map
      (fun x ->
        ( Printf.sprintf "scattered %g" x,
          Mat.init n nc (fun _ _ ->
              if Random.State.int bit_rng 4 = 0 then x else bit_rand ()) ))
      [ infinity; neg_infinity; Float.nan ]

let test_solve_mat_bitwise () =
  without_sanitizer @@ fun () ->
  List.iter
    (fun n ->
      List.iter
        (fun ka ->
          let a =
            Mat.add (structured ka n n)
              (Mat.scale (float_of_int n) (Mat.identity n))
          in
          let lu = Lu.factor a in
          List.iter
            (fun nc ->
              List.iter
                (fun (kb, b) ->
                  check_solve_mat
                    (Printf.sprintf "solve_mat %s n=%d, %s b nc=%d"
                       (kind_name ka) n kb nc)
                    lu b)
                (solve_rhs n nc))
            [ 1; 3; 8; 41 ])
        [ `Dense; `Block; `Band; `Holes ])
    [ 1; 2; 7; 24; 40; 80 ];
  (* the Padé system of one 8-state ladder Van Loan step, as the
     exponential solves it, and against the structured right-hand
     sides *)
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let module Pwl = Scnoise_circuit.Pwl in
  let sys =
    (Ladder.build (Ladder.with_parasitics (Ladder.with_stages 4))).Ladder.sys
  in
  let ph = sys.Pwl.phases.(0) in
  let pade =
    Expm.pade13
      (Oracle.augmented ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau:(ph.Pwl.tau /. 48.0))
  in
  let lu = Lu.factor pade.Expm.lhs in
  check_solve_mat "solve_mat ladder Padé system" lu pade.Expm.rhs;
  List.iter
    (fun nc ->
      List.iter
        (fun (kb, b) ->
          check_solve_mat
            (Printf.sprintf "solve_mat ladder Padé lhs, %s b nc=%d" kb nc)
            lu b)
        (solve_rhs 16 nc))
    [ 1; 3; 8; 41 ];
  (* row 1 overflows (x1 = b1 + x0), and row 3 reaches it through
     l31 = 0 *)
  let a =
    Mat.of_arrays
      [|
        [| 1.0; 0.0; 0.0; 0.0 |];
        [| -1.0; 1.0; 0.0; 0.0 |];
        [| 0.0; 0.0; 1.0; 0.0 |];
        [| 0.5; 0.0; 0.0; 1.0 |];
      |]
  in
  let b =
    Mat.of_arrays
      [| [| 1.5e308; 1.0 |]; [| 1.5e308; 1.0 |]; [| 1.0; 0.0 |]; [| 1.0; 1.0 |] |]
  in
  check_solve_mat "solve_mat overflow part-way" (Lu.factor a) b;
  (* u01 = inf meets x1 = 0 in column 0: inf * 0 is NaN *)
  let a = Mat.of_arrays [| [| 1.0; infinity |]; [| 0.0; 1.0 |] |] in
  let b = Mat.of_arrays [| [| 1.0; 1.0 |]; [| 0.0; 1.0 |] |] in
  check_solve_mat "solve_mat non-finite factor" (Lu.factor a) b

let test_elementwise_bitwise () =
  List.iter
    (fun (r, c) ->
      let a = structured `Holes r c and b = structured `Dense r c in
      let ad = Mat.data a and bd = Mat.data b in
      let len = r * c in
      check_bits "add" (Array.init len (fun k -> ad.(k) +. bd.(k)))
        (Mat.data (Mat.add a b));
      check_bits "sub" (Array.init len (fun k -> ad.(k) -. bd.(k)))
        (Mat.data (Mat.sub a b));
      check_bits "scale" (Array.init len (fun k -> -0.37 *. ad.(k)))
        (Mat.data (Mat.scale (-0.37) a));
      let max_abs_diff x y =
        let acc = ref 0.0 in
        Array.iteri
          (fun k v -> acc := max !acc (abs_float (v -. (Mat.data y).(k))))
          (Mat.data x);
        !acc
      in
      let a_nan =
        Mat.init r c (fun i j ->
            if i = 0 && j = 0 then Float.nan else ad.((i * c) + j))
      in
      check_bits "max_abs_diff"
        [| max_abs_diff a b; max_abs_diff a_nan b; max_abs_diff b a_nan |]
        [| Mat.max_abs_diff a b; Mat.max_abs_diff a_nan b;
           Mat.max_abs_diff b a_nan |];
      (* [Stdlib.max] keeps a NaN only while no later entry replaces
         it, so one in the first and one in the last entry differ *)
      let max_abs x =
        Array.fold_left (fun acc v -> max acc (abs_float v)) 0.0 (Mat.data x)
      in
      let nan_last =
        Mat.init r c (fun i j ->
            if i = r - 1 && j = c - 1 then Float.nan else ad.((i * c) + j))
      in
      check_bits "max_abs"
        [| max_abs a; max_abs b; max_abs a_nan; max_abs nan_last;
           max_abs (Mat.scale (-1.0) b) |]
        [| Mat.max_abs a; Mat.max_abs b; Mat.max_abs a_nan;
           Mat.max_abs nan_last; Mat.max_abs (Mat.scale (-1.0) b) |];
      let t = Mat.transpose a in
      Alcotest.(check (pair int int)) "transpose dims" (c, r)
        (Mat.rows t, Mat.cols t);
      check_bits "transpose"
        (Array.init len (fun k -> ad.(((k mod r) * c) + (k / r))))
        (Mat.data t);
      let s = structured `Dense r r in
      let sd = Mat.data s in
      check_bits "symmetrize"
        (Array.init (r * r) (fun k ->
             let i = k / r and j = k mod r in
             0.5 *. (sd.((i * r) + j) +. sd.((j * r) + i))))
        (Mat.data (Mat.symmetrize s)))
    [ (1, 1); (1, 7); (6, 1); (5, 5); (13, 8); (40, 40) ]

(* [mul_into] writes the product's bits over whatever its output held,
   and refuses an output that shares storage with an operand. *)
let test_mul_into_bitwise () =
  List.iter
    (fun (m, p, n) ->
      List.iter
        (fun ka ->
          let a = structured ka m p and b = structured `Holes p n in
          let c = Mat.init m n (fun _ _ -> Float.nan) in
          Mat.mul_into a b c;
          check_bits
            (Printf.sprintf "mul_into %dx%d * %dx%d" m p p n)
            (Mat.data (Mat.mul a b)) (Mat.data c))
        kinds)
    [ (1, 1, 1); (3, 5, 7); (33, 20, 35); (40, 40, 40) ];
  let a = structured `Dense 6 6 and b = structured `Dense 6 6 in
  let rejects msg f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" msg
    | exception Invalid_argument _ -> ()
  in
  rejects "output aliases a" (fun () -> Mat.mul_into a b a);
  rejects "output aliases b" (fun () -> Mat.mul_into a b b);
  rejects "output aliases both" (fun () -> Mat.mul_into a a a);
  rejects "output too small" (fun () -> Mat.mul_into a b (Mat.create 5 6));
  (* the supports live in a per-domain scratch: once it has grown, a
     product allocates (next to) nothing *)
  let a = structured `Holes 60 60 and b = structured `Dense 60 60 in
  let c = Mat.create 60 60 in
  Mat.mul_into a b c;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    Mat.mul_into a b c
  done;
  let words = (Gc.minor_words () -. w0) /. 10.0 in
  if words > 16.0 then
    Alcotest.failf "mul_into allocated %.0f words per call" words;
  (* empty matrices share one empty array, which is not an alias *)
  Mat.mul_into (Mat.create 0 3) (Mat.create 3 0) (Mat.create 0 0)

(* [propagate_into] against the expression [propagate] used to be —
   two products, add, symmetrise — over stale buffers, and against
   [propagate] itself. *)
let test_propagate_into_bitwise () =
  List.iter
    (fun n ->
      let d =
        Vanloan.discretize ~a:(random_stable_mat n)
          ~q:(Mat.symmetrize (structured `Dense n n))
          ~tau:0.05
      in
      let k = Mat.symmetrize (structured `Holes n n) in
      let reference =
        Mat.symmetrize
          (Mat.add
             (Mat.mul d.Vanloan.phi (Mat.mul k (Mat.transpose d.Vanloan.phi)))
             d.Vanloan.qd)
      in
      let stale () = Mat.init n n (fun _ _ -> Float.nan) in
      let out = stale () in
      Vanloan.propagate_into d
        ~phi_t:(Mat.transpose d.Vanloan.phi)
        ~work:(stale ()) ~work':(stale ()) k ~out;
      let msg = Printf.sprintf "propagate_into n=%d" n in
      check_bits msg (Mat.data reference) (Mat.data out);
      check_bits (msg ^ " vs propagate") (Mat.data (Vanloan.propagate d k))
        (Mat.data out))
    [ 1; 2; 5; 13; 40 ];
  let n = 4 in
  let d =
    Vanloan.discretize ~a:(random_stable_mat n) ~q:(Mat.identity n) ~tau:0.1
  in
  let work = Mat.create n n and work' = Mat.create n n in
  match
    Vanloan.propagate_into d ~phi_t:(Mat.transpose d.Vanloan.phi) ~work ~work'
      (Mat.identity n) ~out:work'
  with
  | () -> Alcotest.fail "propagate_into accepted out = work'"
  | exception Invalid_argument _ -> ()

(* The two row paths of the product.  The ladder's Van Loan matrix and
   its Padé powers have rows sparse inside a support spanning both
   blocks (the axpy path), its exponential has zero-free rows (the
   tiles). *)
let ladder_vanloan stages phase =
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let sys =
    (Ladder.build (Ladder.with_parasitics (Ladder.with_stages stages)))
      .Ladder.sys
  in
  let ph = sys.Scnoise_circuit.Pwl.phases.(phase) in
  Oracle.augmented ~a:ph.Scnoise_circuit.Pwl.a ~q:ph.Scnoise_circuit.Pwl.q
    ~tau:(ph.Scnoise_circuit.Pwl.tau /. 48.0)

let test_mul_ladder_vanloan () =
  List.iter
    (fun phase ->
      let m = ladder_vanloan 50 phase in
      let m2 = Mat.mul m m in
      let m4 = Mat.mul m2 m2 in
      let m6 = Mat.mul m2 m4 in
      let r = Expm.expm m in
      List.iter
        (fun (name, a, b) ->
          check_bits
            (Printf.sprintf "ladder-100 phase %d: %s" phase name)
            (Oracle.gemm a b) (Mat.data (Mat.mul a b)))
        [ ("a a", m, m); ("a2 a2", m2, m2); ("a2 a4", m2, m4);
          ("a6 a6", m6, m6); ("a a6", m, m6); ("a6 a", m6, m);
          ("expm expm", r, r); ("a expm", m, r); ("expm a", r, m) ])
    [ 0; 1 ]

(* [Lu.factor] against [Oracle.lu_factor], the row-at-a-time loop its
   grouped elimination replaced: factors, pivots, the sign (through
   [Lu.det], which multiplies it into the diagonal) and the [Singular]
   column, bit for bit.  Random matrices of 1 to 12 states with zero
   rows and columns, signed zeros, infinities and NaNs, so that the
   rows a pivot updates split into groups of four and a tail in every
   way and some multipliers are zero or not finite; and the Padé
   systems of the two ladder-100 Van Loan steps (200 states). *)
let test_lu_factor_oracle () =
  without_sanitizer @@ fun () ->
  let rng = Random.State.make [| 0x1f7 |] in
  let check name m =
    let n = Mat.rows m in
    let got = match Lu.factor m with t -> Ok t | exception Lu.Singular k -> Error k in
    match (Oracle.lu_factor m, got) with
    | Ok (lu, piv, sign), Ok t ->
        let f, piv' = Lu.packed t in
        check_bits (name ^ ": factors") lu (Mat.data f);
        Alcotest.(check (array int)) (name ^ ": pivots") piv piv';
        let det = ref sign in
        for i = 0 to n - 1 do
          det := !det *. lu.((i * n) + i)
        done;
        check_bits (name ^ ": sign") [| !det |] [| Lu.det t |]
    | Error k, Error k' -> Alcotest.(check int) (name ^ ": singular column") k k'
    | Error k, Ok _ -> Alcotest.failf "%s: factored; the loop stops at column %d" name k
    | Ok _, Error k -> Alcotest.failf "%s: singular at column %d; the loop factors" name k
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for n = 1 to 12 do
    for case = 1 to 30 do
      let zr = Array.init n (fun _ -> Random.State.int rng 8 = 0)
      and zc = Array.init n (fun _ -> Random.State.int rng 8 = 0)
      and odd = Random.State.int rng 3 = 0 in
      let m =
        Mat.init n n (fun i j ->
            if zr.(i) || zc.(j) then 0.0
            else
              match Random.State.int rng 12 with
              | 0 -> -0.0
              | 1 -> 0.0
              | 2 when odd -> pick [ infinity; neg_infinity; Float.nan ]
              | _ -> Random.State.float rng 2.0 -. 1.0)
      in
      check (Printf.sprintf "random %dx%d #%d" n n case) m
    done
  done;
  List.iter
    (fun phase ->
      check
        (Printf.sprintf "ladder-100 Van Loan phase %d Padé lhs" phase)
        (Oracle.pade13 (ladder_vanloan 50 phase)).Expm.lhs)
    [ 0; 1 ]

(* [Mat.mul_into] against [Oracle.gemm] on the operands each of its
   classification's fallbacks serves: rows of [a] with zeros at either
   end and inside ([0.0] and [-0.0]), with infinities or NaN at a
   support's ends or inside it, all-zero rows, and runs of rows that
   share a support (the tiles); columns of [b] with zeros at the top
   and bottom and inside, non-finite entries, all-zero rows and
   columns; every product at a random [~rows] prefix too.  Rows past
   the prefix must keep what they held.

   Every entry that is not NaN must match bit for bit, and a NaN must
   meet a NaN.  Which NaN a sum of two NaNs yields (here the operand
   NaN against the [inf *. 0] one, which differ in sign) is the
   hardware's pick of the instruction's first operand, and the
   compiler orders the operands of the loop and of the kernel's axpy
   differently; no sum of numbers depends on it. *)
let test_mul_into_fallbacks () =
  let rng = Random.State.make [| 0x3c1 |] in
  let rand () = Random.State.float rng 2.0 -. 1.0 in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  (* one line of [len]: its support, interior zeros and non-finite
     entries drawn per line *)
  let shape len =
    let lo = if Random.State.bool rng then Random.State.int rng len else 0 in
    let hi =
      if Random.State.bool rng then lo + Random.State.int rng (len - lo)
      else len - 1
    in
    (lo, hi, Random.State.int rng 3, Random.State.int rng 4 = 0,
     Random.State.int rng 7 = 0)
  in
  let line len (lo, hi, holes, nonfinite, empty) =
    Array.init len (fun k ->
        if empty || k < lo || k > hi then 0.0
        else if nonfinite && (k = lo || k = hi || Random.State.int rng 6 = 0)
        then pick [ infinity; neg_infinity; Float.nan ]
        else if holes > 0 && Random.State.int rng 4 < holes then
          pick [ 0.0; -0.0 ]
        else rand ())
  in
  (* [r] lines, each sharing the previous one's shape half the time *)
  let lines r len =
    let s = ref (shape len) in
    Array.init r (fun _ ->
        if Random.State.bool rng then s := shape len;
        line len !s)
  in
  for case = 1 to 400 do
    let m = 1 + Random.State.int rng 13
    and p = 1 + Random.State.int rng 13
    and n = 1 + Random.State.int rng 13 in
    let ar = lines m p and bc = lines n p in
    let a = Mat.init m p (fun i k -> ar.(i).(k))
    and b = Mat.init p n (fun k j -> bc.(j).(k)) in
    let want = Oracle.gemm a b in
    List.iter
      (fun rows ->
        let c = Mat.init m n (fun _ _ -> Float.nan) in
        Mat.mul_into ~rows a b c;
        let nan_class x = if Float.is_nan x then Float.nan else x in
        check_bits
          (Printf.sprintf "case %d: mul_into ~rows:%d of %dx%d * %dx%d" case
             rows m p p n)
          (Array.init (m * n) (fun k ->
               if k < rows * n then nan_class want.(k) else Float.nan))
          (Array.map nan_class (Mat.data c)))
      [ m; Random.State.int rng (m + 1) ]
  done

(* Row classes at their edges: zero-free pairs on a narrow shared
   support (against [b] columns with zero stretches, so the tiles' [k]
   range is clipped), pairs whose supports differ, a [-0.0] or [0.0]
   inside a dense support (which must leave the tiles: [-0.0 *. inf]
   is NaN), a non-finite entry in a sparse row (which must not trim the
   [b] rows' supports: [inf *. 0] is NaN), zero-free rows beside sparse
   ones, odd heights and widths off a multiple of 4. *)
let test_mul_row_classes () =
  let dense_in lo hi r c =
    Mat.init r c (fun _ k -> if k >= lo && k <= hi then bit_rand () else 0.0)
  in
  let b_with_edges p n =
    (* zero leading and trailing rows and columns, plus an infinity *)
    Mat.init p n (fun k j ->
        if k < 2 || k >= p - 2 || j = 0 || j = n - 1 then 0.0
        else if k = p / 2 && j = 1 then infinity
        else bit_rand ())
  in
  let cases =
    [
      ("shared narrow support", dense_in 3 9 6 14, b_with_edges 14 9);
      ( "supports differ by row",
        Mat.init 7 12 (fun i k -> if abs (i - k) <= 2 then bit_rand () else 0.0),
        b_with_edges 12 10 );
      ( "-0.0 and 0.0 inside a support",
        Mat.init 5 11 (fun i k ->
            if k = 5 then (if i mod 2 = 0 then -0.0 else 0.0) else bit_rand ()),
        Mat.init 11 7 (fun k _ -> if k = 5 then infinity else bit_rand ()) );
      ( "non-finite in a sparse row",
        Mat.init 5 12 (fun i k ->
            if i = 2 then
              if k = 1 then infinity else if k = 10 then bit_rand () else 0.0
            else if k mod 3 = 0 then bit_rand ()
            else 0.0),
        b_with_edges 12 6 );
      ( "non-finite zero-free pair",
        Mat.init 4 8 (fun i k ->
            if i = 0 && k = 0 then Float.nan
            else if i = 1 && k = 7 then neg_infinity
            else bit_rand ()),
        b_with_edges 8 9 );
      ( "mixed pairs, odd height",
        Mat.init 9 13 (fun i k ->
            if i mod 3 = 1 && k mod 2 = 0 then 0.0 else bit_rand ()),
        b_with_edges 13 11 );
      ( "empty rows",
        Mat.init 6 7 (fun i _ -> if i = 2 || i = 3 || i = 5 then 0.0 else bit_rand ()),
        b_with_edges 7 5 );
    ]
  in
  List.iter
    (fun (name, a, b) ->
      check_bits ("mul: " ^ name) (Oracle.gemm a b) (Mat.data (Mat.mul a b));
      let c = Mat.init (Mat.rows a) (Mat.cols b) (fun _ _ -> Float.nan) in
      Mat.mul_into a b c;
      check_bits ("mul_into: " ^ name) (Oracle.gemm a b) (Mat.data c))
    cases

(* [Expm.pade13] (fused entry loops, products into fixed buffers)
   against the composition it replaced, on every distinct step the
   covariance grid discretises: the shipped circuits' grids at the
   default density, each step as the augmented matrix
   [Vanloan.discretize] exponentiates (a stiff step's sub-step). *)
let test_pade13_oracle () =
  let module Pwl = Scnoise_circuit.Pwl in
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let module LP = Scnoise_circuits.Sc_lowpass in
  let module BP = Scnoise_circuits.Sc_bandpass in
  let ladder stages =
    (Ladder.build (Ladder.with_parasitics (Ladder.with_stages stages)))
      .Ladder.sys
  in
  List.iter
    (fun (name, sys) ->
      let _, steps =
        Oracle.covariance_grid ~samples_per_phase:96 sys
      in
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun (p, h) ->
          let key = (p, Int64.bits_of_float h) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let ph = sys.Pwl.phases.(p) in
            let stiffness = Mat.norm_inf ph.Pwl.a *. h in
            let tau =
              if stiffness <= Vanloan.stiff_threshold then h
              else h /. ceil (stiffness /. Vanloan.stiff_threshold)
            in
            let m = Oracle.augmented ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau in
            let e = Oracle.pade13 m and x = Expm.pade13 m in
            let msg = Printf.sprintf "%s phase %d h=%h" name p h in
            check_bits (msg ^ " lhs") (Mat.data e.Expm.lhs) (Mat.data x.Expm.lhs);
            check_bits (msg ^ " rhs") (Mat.data e.Expm.rhs) (Mat.data x.Expm.rhs);
            Alcotest.(check int) (msg ^ " squarings") e.Expm.squarings
              x.Expm.squarings
          end)
        steps)
    [ ("ladder-40", ladder 20); ("ladder-100", ladder 50);
      ("sc_lowpass", (LP.build LP.default).LP.sys);
      ("sc_bandpass", (BP.build BP.default).BP.sys) ]

(* --- the block-structured Van Loan exponential ---

   [Vanloan.discretize] runs the Padé exponential on the three n×n
   blocks of [[-A, Q], [0, Aᵀ]] tau and forms only F12 and F22;
   [Oracle.vanloan] is the 2n composition it replaced ([Expm.expm] of
   the assembled matrix, then the blocks read out).  Phi and Qd must
   agree bit for bit, and so must the exponential and factorisation
   counts. *)

let count name f =
  let c0 = Scnoise_obs.Obs.counter_value name in
  let r = f () in
  (r, Scnoise_obs.Obs.counter_value name - c0)

(* Whether the shipped and the oracle discretisation agree bit for bit,
   with the same [expm_calls] and [lu_factorizations]; fails with
   [msg] otherwise. *)
let check_vanloan msg ~a ~q ~tau =
  let run f =
    let (d, calls), facts =
      count "lu_factorizations" (fun () -> count "expm_calls" f)
    in
    (d, calls, facts)
  in
  let d, calls, facts = run (fun () -> Vanloan.discretize ~a ~q ~tau)
  and o, ocalls, ofacts = run (fun () -> Oracle.vanloan ~a ~q ~tau) in
  check_bits (msg ^ " phi") (Mat.data o.Vanloan.phi) (Mat.data d.Vanloan.phi);
  check_bits (msg ^ " qd") (Mat.data o.Vanloan.qd) (Mat.data d.Vanloan.qd);
  Alcotest.(check int) (msg ^ " expm_calls") ocalls calls;
  Alcotest.(check int) (msg ^ " lu_factorizations") ofacts facts

(* [Lu.factor_in_place] is [Lu.factor] in the matrix's own storage and
   [Lu.solve_mat_into] is [Lu.solve_mat] into a given matrix, bit for
   bit; an output sharing the right-hand side's or the factors' storage
   is refused. *)
let test_lu_in_place () =
  let rng = Random.State.make [| 0x1a2 |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  List.iter
    (fun n ->
      let a = Mat.init n n (fun i j -> if i = j then 3.0 +. rnd () else rnd ()) in
      let b = Mat.init n 5 (fun _ _ -> rnd ()) in
      let lu = Lu.factor a in
      let m = Mat.copy a in
      let lu' = Lu.factor_in_place m in
      let f, piv = Lu.packed lu and f', piv' = Lu.packed lu' in
      check_bits "factor_in_place factors" (Mat.data f) (Mat.data f');
      Alcotest.(check (array int)) "factor_in_place pivots" piv piv';
      check_bits "factor_in_place keeps them in the matrix" (Mat.data f)
        (Mat.data m);
      let out = Mat.create n 5 in
      Lu.solve_mat_into lu' b ~out;
      check_bits "solve_mat_into" (Mat.data (Lu.solve_mat lu b)) (Mat.data out);
      let refused what f =
        match f () with
        | () -> Alcotest.failf "solve_mat_into accepted %s" what
        | exception Invalid_argument _ -> ()
      in
      refused "out = b" (fun () -> Lu.solve_mat_into lu b ~out:b);
      if n = 5 then
        refused "out = the factors" (fun () -> Lu.solve_mat_into lu' b ~out:m))
    [ 1; 5; 12 ]

(* [Btri.mul] against the i-k-j loop on the assembled 2n matrices, its
   zero block included: dense, banded, sparse and empty block rows (the
   tile and axpy paths), signed zeros, and n from 1 to 13 so that the
   tiles' column remainders run.  With [~left:false], C11 keeps what
   it held. *)
let test_btri_mul () =
  let module Btri = Scnoise_linalg.Btri in
  let rng = Random.State.make [| 0xb7e1 |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let entry kind i k =
    match kind with
    | 0 -> rnd ()
    | 1 -> if abs (i - k) <= 1 then rnd () else 0.0
    | 2 -> (
        match Random.State.int rng 4 with 0 -> rnd () | 1 -> -0.0 | _ -> 0.0)
    | _ -> if i mod 3 = 0 then 0.0 else rnd ()
  in
  let random n kind =
    let b = Btri.create n in
    let d = Btri.data b in
    List.iter
      (fun blk ->
        let o = Btri.offset b blk in
        for i = 0 to n - 1 do
          for k = 0 to n - 1 do
            d.(o + (i * n) + k) <- entry kind i k
          done
        done)
      [ Btri.x11; Btri.x12; Btri.x22 ];
    Btri.classify b;
    b
  in
  let assemble n b =
    let d = Btri.data b in
    Mat.init (2 * n) (2 * n) (fun i j ->
        if i < n && j < n then d.(Btri.offset b Btri.x11 + (i * n) + j)
        else if i < n then d.(Btri.offset b Btri.x12 + (i * n) + j - n)
        else if j < n then 0.0
        else d.(Btri.offset b Btri.x22 + ((i - n) * n) + j - n))
  in
  for n = 1 to 13 do
    for kx = 0 to 3 do
      for ky = 0 to 3 do
        let x = random n kx and y = random n ky in
        let assemble = assemble n in
        let c = Btri.create n in
        Btri.mul x y c;
        let full = Oracle.gemm_mat (assemble x) (assemble y) in
        let msg = Printf.sprintf "n=%d kinds %d x %d" n kx ky in
        check_bits msg (Mat.data full) (Mat.data (assemble c));
        let stale = Array.copy (Btri.data c) in
        Btri.mul ~left:false y x c;
        let full = Oracle.gemm_mat (assemble y) (assemble x) in
        let got = assemble c in
        for i = 0 to (2 * n) - 1 do
          for j = 0 to (2 * n) - 1 do
            let v = Mat.get got i j in
            let want =
              if i < n && j < n then stale.(Btri.offset c Btri.x11 + (i * n) + j)
              else Mat.get full i j
            in
            if Int64.bits_of_float v <> Int64.bits_of_float want then
              Alcotest.failf "%s ~left:false (%d, %d): %h, want %h" msg i j v
                want
          done
        done
      done
    done
  done

(* Random blocks of n = 1 .. 12 with tau scaled so that the scaling
   exponent s runs from 0 to 5; a zero row in A (a held node: A
   singular), and Q with signed zeros and all-zero rows.  Q dominates
   the norm as s grows, so ‖A‖tau stays in the augmented range. *)
let vanloan_case_gen =
  QCheck.Gen.(
    triple (int_range 1 12) (int_range 0 5) (int_range 0 0x3fff_ffff))

let vanloan_case (n, s, seed) =
  let rng = Random.State.make [| seed |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let held = Random.State.int rng (n + 1) in
  let a =
    Mat.init n n (fun i j ->
        if i = held then 0.0
        else if Random.State.int rng 4 = 0 then 0.0
        else rnd () -. if i = j then 2.0 else 0.0)
  in
  let qscale = 4.0 *. (2.0 ** float_of_int s) in
  let zero_row = Random.State.int rng (n + 1) in
  let q =
    Mat.init n n (fun i j ->
        if i = zero_row then if Random.State.bool rng then 0.0 else -0.0
        else
          match Random.State.int rng 5 with
          | 0 -> 0.0
          | 1 -> -0.0
          | _ -> qscale *. rnd () +. if i = j then qscale else 0.0)
  in
  let norm = Mat.norm_inf (Oracle.augmented ~a ~q ~tau:1.0) in
  let u = 0.55 +. (0.4 *. Random.State.float rng 1.0) in
  let tau =
    if norm = 0.0 then 1.0 else 5.371920351148152 *. (2.0 ** float_of_int s) *. u /. norm
  in
  (a, q, tau)

let prop_vanloan_oracle =
  QCheck.Test.make ~count:300
    ~name:"discretize == 2n composition, bit for bit"
    (QCheck.make
       ~print:(fun (n, s, seed) -> Printf.sprintf "n=%d s=%d seed=%d" n s seed)
       vanloan_case_gen)
    (fun ((n, s, seed) as case) ->
      let a, q, tau = vanloan_case case in
      check_vanloan (Printf.sprintf "n=%d s=%d seed=%d" n s seed) ~a ~q ~tau;
      true)

(* The random cases reach every scaling exponent from 0 to 5 on the
   augmented (non-stiff) path. *)
let test_vanloan_cases_cover_squarings () =
  let seen = Array.make 6 false in
  for seed = 0 to 199 do
    let n = 1 + (seed mod 12) and s = seed mod 6 in
    let a, q, tau = vanloan_case (n, s, seed) in
    if Mat.norm_inf a *. tau <= Vanloan.stiff_threshold then begin
      let got =
        (Expm.pade13 (Oracle.augmented ~a ~q ~tau)).Expm.squarings
      in
      if got <= 5 then seen.(got) <- true
    end
  done;
  Array.iteri
    (fun s hit ->
      if not hit then Alcotest.failf "no augmented case with s = %d" s)
    seen

(* Every distinct step of the shipped circuits' grids and of the
   ladders, the stiff 10 ohm ladder-100 included (its steps are
   composed sub-steps). *)
let test_vanloan_oracle_decks () =
  let module Pwl = Scnoise_circuit.Pwl in
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let module LP = Scnoise_circuits.Sc_lowpass in
  let module BP = Scnoise_circuits.Sc_bandpass in
  let module SCI = Scnoise_circuits.Sc_integrator in
  let module DS = Scnoise_circuits.Sc_delta_sigma in
  let module RC = Scnoise_circuits.Switched_rc in
  let ladder p = (Ladder.build (Ladder.with_parasitics p)).Ladder.sys in
  List.iter
    (fun (name, sys) ->
      let _, steps = Oracle.covariance_grid ~samples_per_phase:96 sys in
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun (p, h) ->
          let key = (p, Int64.bits_of_float h) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let ph = sys.Pwl.phases.(p) in
            check_vanloan
              (Printf.sprintf "%s phase %d h=%h" name p h)
              ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau:h
          end)
        steps)
    [ ("switched_rc", (RC.build RC.default).RC.sys);
      ("sc_lowpass", (LP.build LP.default).LP.sys);
      ("sc_integrator", (SCI.build SCI.default).SCI.sys);
      ("sc_bandpass", (BP.build BP.default).BP.sys);
      ("sc_delta_sigma", (DS.build DS.default).DS.sys);
      ("ladder-8", ladder (Ladder.with_stages 4));
      ("ladder-40", ladder (Ladder.with_stages 20));
      ("ladder-100", ladder (Ladder.with_stages 50));
      ( "stiff ladder-100",
        ladder
          { (Ladder.with_stages 50) with Ladder.r = 10.0; r_switch = 10.0 } );
    ]

(* The affine-map chains step through buffers they own: binary
   powering over 1000 steps and the doubling steady state each allocate
   a fixed handful of n×n matrices, not a few per step (five per
   composition when every step allocated its transpose, work matrices
   and output). *)
let test_chain_buffers () =
  let n = 40 in
  let matrix_bytes = float_of_int (8 * n * n) in
  let d =
    Vanloan.discretize ~a:(random_stable_mat n)
      ~q:(Mat.identity n) ~tau:0.05
  in
  (* empty the minor heap at both readings, so the count is this call's
     alone, whatever ran before *)
  let bytes f =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor ();
    (Gc.allocated_bytes () -. a0) /. matrix_bytes
  in
  let repeat = bytes (fun () -> Vanloan.repeat d 1000) in
  if repeat > 12.0 then
    Alcotest.failf "repeat 1000 allocated %.1f matrices" repeat;
  let steps = Scnoise_obs.Obs.counter "lyapunov.doubling_steps" in
  let s0 = Scnoise_obs.Obs.value steps in
  let doubling =
    bytes (fun () -> Lyapunov.solve_discrete_doubling d.Vanloan.phi d.Vanloan.qd)
  in
  let taken = Scnoise_obs.Obs.value steps - s0 in
  if taken < 4 then Alcotest.failf "doubling took only %d steps" taken;
  if doubling > 10.0 then
    Alcotest.failf "doubling (%d steps) allocated %.1f matrices" taken doubling

(* End to end: the 40-state ladder's covariance trace as the PSD
   engine reads it — k0, the monodromy, the forcing K(t_i) c, the rows
   cᵀ Phi(t_i, 0) and the variance, through every Van Loan step,
   product and solve above — is bitwise the same at 1 and 4 jobs. *)
let test_ladder_trace_jobs () =
  let module Cov = Scnoise_core.Covariance in
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let module Pool = Scnoise_par.Pool in
  let b = Ladder.build (Ladder.with_parasitics (Ladder.with_stages 20)) in
  let trace jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let s = Cov.sample ~samples_per_phase:48 ~pool b.Ladder.sys in
    let tr = Cov.output_trace s b.Ladder.output in
    Array.concat
      (Mat.data s.Cov.k0 :: Mat.data s.Cov.phi_period
       :: tr.Cov.variance.Cov.trace
       :: (Array.to_list tr.Cov.forcing @ Array.to_list tr.Cov.rows))
  in
  check_bits "ladder n=40 covariance trace, jobs 1 vs 4" (trace 1) (trace 4)

(* [mul_into ~rows] writes the first rows of the product, bit for bit,
   and leaves the later rows of its output as they were. *)
let test_mul_into_rows () =
  let rng = Random.State.make [| 0x2f0c |] in
  let rand () = Random.State.float rng 2.0 -. 1.0 in
  List.iter
    (fun (m, p, n) ->
      let a = Mat.init m p (fun i k -> if (i + k) mod 5 = 0 then 0.0 else rand ())
      and b = Mat.init p n (fun _ _ -> rand ()) in
      let full = Mat.data (Mat.mul a b) in
      for rows = 0 to m do
        let c = Mat.init m n (fun _ _ -> Float.nan) in
        Mat.mul_into ~rows a b c;
        check_bits
          (Printf.sprintf "mul_into ~rows:%d of %dx%d" rows m p)
          (Array.init (m * n) (fun k -> if k < rows * n then full.(k) else Float.nan))
          (Mat.data c)
      done)
    [ (1, 1, 1); (7, 5, 9); (16, 12, 12) ];
  match Mat.mul_into ~rows:4 (Mat.create 3 3) (Mat.create 3 3) (Mat.create 3 3) with
  | () -> Alcotest.fail "a row count past the operand accepted"
  | exception Invalid_argument _ -> ()

(* [Eig.hessenberg] (H and U) and [Eig.eigenvalues] against the column
   loop they replaced ([Oracle.hessenberg], then the same QR stage),
   bit for bit.  The cases: the phases and the monodromy of the
   hundred-state ladder the BVP reduces, random dense matrices of 1 to
   12 states, and columns the loop leaves alone — already reduced
   (alpha = 0 on a triangular or block matrix), or with entries whose
   squares underflow — and non-finite input, where the reduction's
   j >= k bound on the left update must give way to the full range.
   The loop's second guard, vnorm2 > 0, cannot fail
   once alpha > 0: vnorm2 sums the same squares with the first one
   replaced by a larger (a_{k+1,k} and alpha have opposite signs). *)
let test_hessenberg_oracle () =
  let module Pwl = Scnoise_circuit.Pwl in
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let rng = Random.State.make [| 0x4e55 |] in
  let rand () = Random.State.float rng 2.0 -. 1.0 in
  let eigen f =
    match f () with
    | z -> Ok (Array.map (fun (z : Cx.t) -> (Int64.bits_of_float z.re,
                                             Int64.bits_of_float z.im)) z)
    | exception Eig.No_convergence i -> Error i
  in
  let check name a =
    let h, u = Eig.hessenberg a and h', u' = Oracle.hessenberg a in
    check_bits (name ^ ": H") (Mat.data h') (Mat.data h);
    check_bits (name ^ ": U") (Mat.data u') (Mat.data u);
    if eigen (fun () -> Eig.eigenvalues a)
       <> eigen (fun () -> Eig.hessenberg_eigenvalues h')
    then Alcotest.failf "%s: eigenvalues differ from the reference" name
  in
  let lad = (Ladder.build (Ladder.with_parasitics (Ladder.with_stages 50))).Ladder.sys in
  Array.iteri
    (fun p (ph : Pwl.phase) -> check (Printf.sprintf "ladder-100 A%d" p) ph.Pwl.a)
    lad.Pwl.phases;
  check "ladder-100 monodromy" (Pwl.monodromy lad);
  for n = 1 to 12 do
    check (Printf.sprintf "random %dx%d" n n) (Mat.init n n (fun _ _ -> rand ()))
  done;
  check "upper triangular" (Mat.init 7 7 (fun i j -> if i <= j then rand () else 0.0));
  check "zero first columns"
    (Mat.init 8 8 (fun _ j -> if j < 3 then 0.0 else rand ()));
  check "block diagonal"
    (Mat.init 9 9 (fun i j -> if (i < 4) = (j < 4) then rand () else 0.0));
  check "underflowing squares"
    (Mat.init 6 6 (fun i j ->
         if j = 0 && i > 0 then 1e-170 *. rand ()
         else if j = 1 && i > 1 then -0.0
         else rand ()));
  check "signed zeros"
    (Mat.init 6 6 (fun i j -> if (i + j) mod 3 = 0 then -0.0 else rand ()));
  (* non-finite input: the left update's columns left of the step then
     hold NaN below the subdiagonal, which the j >= k bound must not
     skip — an infinity below the subdiagonal, a NaN above it, and
     finite entries whose squares overflow, so that v is infinite *)
  check "infinity below the subdiagonal"
    (Mat.init 9 9 (fun i j -> if i = 6 && j = 1 then infinity else rand ()));
  check "NaN above the diagonal"
    (Mat.init 9 9 (fun i j -> if i = 0 && j = 5 then Float.nan else rand ()));
  check "overflowing squares"
    (Mat.init 9 9 (fun i j -> if j = 2 && i > 3 then 1e200 *. rand () else rand ()))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "ops" `Quick test_vec_ops;
          Alcotest.test_case "mismatch" `Quick test_vec_mismatch;
        ] );
      ( "mat",
        [
          Alcotest.test_case "mul identity" `Quick test_mat_mul_identity;
          Alcotest.test_case "transpose" `Quick test_mat_transpose_involution;
          Alcotest.test_case "mul assoc" `Quick test_mat_mul_assoc;
          Alcotest.test_case "mul_vec" `Quick test_mat_mul_vec;
          Alcotest.test_case "submatrix/cat" `Quick test_mat_submatrix_cat;
          Alcotest.test_case "norms" `Quick test_mat_norms;
          Alcotest.test_case "symmetrize" `Quick test_mat_symmetrize;
          Alcotest.test_case "max_abs allocation" `Quick test_max_abs_alloc;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve known" `Quick test_lu_solve_known;
          Alcotest.test_case "det" `Quick test_lu_det;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "random roundtrip" `Quick test_lu_random_roundtrip;
          Alcotest.test_case "solve_mat" `Quick test_lu_solve_mat;
          Alcotest.test_case "solve_mat allocation" `Quick
            test_lu_solve_mat_alloc;
          Alcotest.test_case "rcond" `Quick test_lu_rcond;
          QCheck_alcotest.to_alcotest prop_lu_solve;
        ] );
      ( "complex",
        [
          Alcotest.test_case "cx arith" `Quick test_cx_arith;
          Alcotest.test_case "cvec" `Quick test_cvec;
          Alcotest.test_case "clu roundtrip" `Quick test_clu_roundtrip;
        ] );
      ( "expm",
        [
          Alcotest.test_case "zero" `Quick test_expm_zero;
          Alcotest.test_case "diag" `Quick test_expm_diag;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "rotation" `Quick test_expm_rotation;
          Alcotest.test_case "inverse" `Quick test_expm_inverse_property;
          Alcotest.test_case "stiff" `Quick test_expm_large_norm;
          Alcotest.test_case "semigroup" `Quick test_expm_semigroup;
          QCheck_alcotest.to_alcotest prop_expm_det;
        ] );
      ( "kron",
        [
          Alcotest.test_case "identity" `Quick test_kron_identity;
          Alcotest.test_case "vec roundtrip" `Quick test_vec_unvec_roundtrip;
          Alcotest.test_case "vec(AXB)" `Quick test_kron_vec_identity;
        ] );
      ( "eig",
        [
          Alcotest.test_case "diag" `Quick test_eig_diag;
          Alcotest.test_case "triangular" `Quick test_eig_triangular;
          Alcotest.test_case "rotation" `Quick test_eig_rotation;
          Alcotest.test_case "ring oscillator" `Quick test_eig_ring_oscillator;
          Alcotest.test_case "trace/det" `Quick test_eig_trace_det;
          Alcotest.test_case "spectral radius" `Quick test_eig_spectral_radius;
          Alcotest.test_case "companion" `Quick test_eig_companion;
          Alcotest.test_case "hessenberg" `Quick test_hessenberg_structure_and_spectrum;
          Alcotest.test_case "hessenberg factor" `Quick test_hessenberg_factor;
          Alcotest.test_case "schur factor" `Quick test_schur_factor;
          Alcotest.test_case "eigenvalue bits" `Quick test_eigenvalues_bits;
          QCheck_alcotest.to_alcotest prop_eig_count;
        ] );
      ( "chol",
        [
          Alcotest.test_case "known" `Quick test_chol_known;
          Alcotest.test_case "solve" `Quick test_chol_solve;
          Alcotest.test_case "random spd" `Quick test_chol_random_spd;
          Alcotest.test_case "semidefinite" `Quick test_chol_semidefinite;
          Alcotest.test_case "is_psd" `Quick test_chol_is_psd;
          Alcotest.test_case "indefinite" `Quick test_chol_indefinite_raises;
        ] );
      ( "lyapunov",
        [
          Alcotest.test_case "continuous scalar" `Quick test_lyap_continuous_scalar;
          Alcotest.test_case "continuous residual" `Quick test_lyap_continuous_residual;
          Alcotest.test_case "kron vs doubling" `Quick test_lyap_discrete_kron_vs_doubling;
          Alcotest.test_case "unstable raises" `Quick test_lyap_discrete_unstable;
        ] );
      ( "bitwise",
        [
          Alcotest.test_case "mul == i-k-j loop" `Quick test_mul_bitwise;
          Alcotest.test_case "mul with non-finite operands" `Quick
            test_mul_nonfinite;
          Alcotest.test_case "solve_mat == per-column solve" `Quick
            test_solve_mat_bitwise;
          Alcotest.test_case "element-wise == Array.init" `Quick
            test_elementwise_bitwise;
          Alcotest.test_case "ladder n=40 trace, jobs 1 vs 4" `Quick
            test_ladder_trace_jobs;
          Alcotest.test_case "mul_into == mul, aliased output rejected"
            `Quick test_mul_into_bitwise;
          Alcotest.test_case "propagate_into == propagate" `Quick
            test_propagate_into_bitwise;
          Alcotest.test_case "mul on ladder-100 Van Loan operands" `Quick
            test_mul_ladder_vanloan;
          Alcotest.test_case "mul row classes == i-k-j loop" `Quick
            test_mul_row_classes;
          Alcotest.test_case "pade13 == composition oracle" `Quick
            test_pade13_oracle;
          Alcotest.test_case "Btri.mul == 2n i-k-j loop" `Quick
            test_btri_mul;
          Alcotest.test_case "factor_in_place, solve_mat_into" `Quick
            test_lu_in_place;
          QCheck_alcotest.to_alcotest prop_vanloan_oracle;
          Alcotest.test_case "random cases reach s = 0 .. 5" `Quick
            test_vanloan_cases_cover_squarings;
          Alcotest.test_case "discretize == 2n composition on the decks"
            `Quick test_vanloan_oracle_decks;
          Alcotest.test_case "factor == row-at-a-time loop" `Quick
            test_lu_factor_oracle;
          Alcotest.test_case "mul_into fallbacks == i-k-j loop" `Quick
            test_mul_into_fallbacks;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "mul_into ~rows == row prefix" `Quick
            test_mul_into_rows;
          Alcotest.test_case "hessenberg == column-loop oracle" `Quick
            test_hessenberg_oracle;
        ] );
      ( "vanloan",
        [
          Alcotest.test_case "scalar rc" `Quick test_vanloan_scalar_rc;
          Alcotest.test_case "zero tau" `Quick test_vanloan_zero_tau;
          Alcotest.test_case "composition" `Quick test_vanloan_compose;
          Alcotest.test_case "stationary limit" `Quick test_vanloan_stationary_limit;
          Alcotest.test_case "b wrapper" `Quick test_vanloan_discretize_b;
          Alcotest.test_case "stiff path" `Quick test_vanloan_stiff_path_matches_chunked;
          Alcotest.test_case "marginal fallback" `Quick test_vanloan_marginal_chunked_fallback;
          Alcotest.test_case "chains step in owned buffers" `Quick
            test_chain_buffers;
        ] );
    ]
