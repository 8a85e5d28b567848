type t = { phi : Mat.t; qd : Mat.t }

(* M = [[-A, Q], [0, Aᵀ]] * tau ;  expm M = [[F11, F12], [0, F22]]
   with F22 = e^{Aᵀ tau} and Phi F12 = ∫ e^{As} Q e^{Aᵀs} ds. *)
let augmented ~a ~q ~tau =
  let n = Mat.rows a in
  let n2 = 2 * n in
  let m = Mat.create n2 n2 in
  let md = Mat.data m and ad = Mat.data a and qs = Mat.data q in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      md.((i * n2) + j) <- -.tau *. ad.((i * n) + j);
      md.((i * n2) + n + j) <- tau *. qs.((i * n) + j);
      md.(((n + i) * n2) + n + j) <- tau *. ad.((j * n) + i)
    done
  done;
  m

(* Augmented-exponential construction.  Only safe when [norm(A) tau] is
   moderate: the top-left block holds [e^{-A tau}], which overflows for
   strongly stable stiff [A] over a long interval. *)
let discretize_augmented ~a ~q ~tau =
  let n = Mat.rows a in
  if tau = 0.0 then { phi = Mat.identity n; qd = Mat.create n n }
  else begin
    let n2 = 2 * n in
    let m = augmented ~a ~q ~tau in
    let f = Expm.expm m in
    let fd = Mat.data f in
    let f12 = Mat.create n n and phi = Mat.create n n in
    let f12d = Mat.data f12 and phid = Mat.data phi in
    for i = 0 to n - 1 do
      Array.blit fd ((i * n2) + n) f12d (i * n) n;
      (* Phi = F22ᵀ *)
      for j = 0 to n - 1 do
        phid.((i * n) + j) <- fd.(((n + j) * n2) + n + i)
      done
    done;
    let qd = Mat.symmetrize (Mat.mul phi f12) in
    { phi; qd }
  end

let propagate d k =
  Mat.symmetrize (Mat.add (Mat.mul d.phi (Mat.mul k (Mat.transpose d.phi))) d.qd)

(* Stiffness threshold on [norm(A) tau] below which the augmented form is
   numerically safe. *)
let stiff_threshold = 20.0

let discretize ~a ~q ~tau =
  if not (Mat.is_square a && Mat.is_square q) then
    invalid_arg "Vanloan.discretize: not square";
  let n = Mat.rows a in
  if Mat.rows q <> n then invalid_arg "Vanloan.discretize: size mismatch";
  if tau < 0.0 then invalid_arg "Vanloan.discretize: tau < 0";
  let stiffness = Mat.norm_inf a *. tau in
  if stiffness <= stiff_threshold then discretize_augmented ~a ~q ~tau
  else begin
    (* For a stable stiff phase, use the exact stationary form:
       K(tau) = Phi K(0) Phiᵀ + (Kinf - Phi Kinf Phiᵀ) with
       A Kinf + Kinf Aᵀ + Q = 0 — only decaying exponentials appear. *)
    match Lyapunov.solve_continuous a q with
    | k_inf ->
        let phi = Expm.expm_scaled a tau in
        let qd =
          Mat.symmetrize
            (Mat.sub k_inf (Mat.mul phi (Mat.mul k_inf (Mat.transpose phi))))
        in
        { phi; qd }
    | exception Lu.Singular _ ->
        (* Lossless/marginal modes: fall back to composing short
           augmented steps, each within the safe stiffness range. *)
        let chunks =
          int_of_float (ceil (stiffness /. stiff_threshold))
        in
        let h = tau /. float_of_int chunks in
        let step = discretize_augmented ~a ~q ~tau:h in
        let phi = ref (Mat.identity n) and qd = ref (Mat.create n n) in
        for _ = 1 to chunks do
          phi := Mat.mul step.phi !phi;
          qd := propagate step !qd
        done;
        { phi = !phi; qd = !qd }
  end

let discretize_b ~a ~b ~tau =
  let q = Mat.mul b (Mat.transpose b) in
  discretize ~a ~q ~tau
