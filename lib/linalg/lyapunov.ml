exception Not_stable of string

let c_doubling_steps = Scnoise_obs.Obs.counter "lyapunov.doubling_steps"

let solve_continuous a q =
  if not (Mat.is_square a && Mat.is_square q) then
    invalid_arg "Lyapunov.solve_continuous: not square";
  if Mat.rows a <> Mat.rows q then
    invalid_arg "Lyapunov.solve_continuous: size mismatch";
  let n = Mat.rows a in
  let ident = Mat.identity n in
  (* (I ⊗ A + A ⊗ I) vec X = -vec Q, using column-major vec. *)
  let lhs = Mat.add (Kron.kron ident a) (Kron.kron a ident) in
  let rhs = Array.map (fun x -> -.x) (Kron.vec q) in
  let x = Lu.solve_dense lhs rhs in
  Mat.symmetrize (Kron.unvec n n x)

let solve_discrete_kron phi q =
  if not (Mat.is_square phi && Mat.is_square q) then
    invalid_arg "Lyapunov.solve_discrete_kron: not square";
  if Mat.rows phi <> Mat.rows q then
    invalid_arg "Lyapunov.solve_discrete_kron: size mismatch";
  let n = Mat.rows phi in
  (* (I - Φ ⊗ Φ) vec X = vec Q. *)
  let lhs = Mat.sub (Mat.identity (n * n)) (Kron.kron phi phi) in
  let x = Lu.solve_dense lhs (Kron.vec q) in
  Mat.symmetrize (Kron.unvec n n x)

let solve_discrete_doubling ?(tol = 1e-14) ?(max_iter = 200) phi q =
  if not (Mat.is_square phi && Mat.is_square q) then
    invalid_arg "Lyapunov.solve_discrete_doubling: not square";
  if Mat.rows phi <> Mat.rows q then
    invalid_arg "Lyapunov.solve_discrete_doubling: size mismatch";
  let x = ref q and p = ref phi in
  let guard = max 1.0 (Mat.max_abs q) in
  let rec loop k =
    if k > max_iter then
      raise (Not_stable "doubling iteration did not converge")
    else begin
      Scnoise_obs.Obs.incr c_doubling_steps;
      let incr = Mat.mul !p (Mat.mul !x (Mat.transpose !p)) in
      let delta = Mat.max_abs incr in
      x := Mat.add !x incr;
      if Mat.max_abs !p > 1e154 then
        raise (Not_stable "monodromy powers diverge: spectral radius >= 1");
      if delta > guard *. 1e8 then
        raise (Not_stable "doubling iteration diverges: spectral radius >= 1");
      (* convergence is relative to the running solution: covariances
         live at the kT/C scale, so an absolute floor would stop orders
         of magnitude early *)
      if delta <= tol *. Mat.max_abs !x then Mat.symmetrize !x
      else begin
        p := Mat.mul !p !p;
        loop (k + 1)
      end
    end
  in
  loop 0

let solve_discrete phi q =
  try solve_discrete_doubling phi q with Not_stable _ ->
    solve_discrete_kron phi q

let residual_discrete phi q x =
  let rhs = Mat.add (Mat.mul phi (Mat.mul x (Mat.transpose phi))) q in
  Mat.max_abs_diff x rhs
