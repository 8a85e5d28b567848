exception Not_stable of string

let c_doubling_steps = Scnoise_obs.Obs.counter "lyapunov.doubling_steps"

(* Step k holds the map d_k = (phi^(2^k), x_k) of 2^k periods from
   K = 0; composing it with itself gives d_{k+1}.  The qd half is
   formed and tested first, so the converged step squares no phi it
   would not use.  Step k writes into the buffer pair [k land 1], so
   d_{k+1} never overwrites the d_k it is formed from, and the caller's
   [phi] and [q] are only read. *)
let solve_discrete_doubling ?(tol = 1e-14) ?(max_iter = 200) phi q =
  if not (Mat.is_square phi && Mat.is_square q) then
    invalid_arg "Lyapunov.solve_discrete_doubling: not square";
  if Mat.rows phi <> Mat.rows q then
    invalid_arg "Lyapunov.solve_discrete_doubling: size mismatch";
  let n = Mat.rows phi in
  let guard = max 1.0 (Mat.max_abs q) in
  let bufs = Vanloan.buffers n in
  let pair () = [| Mat.create n n; Mat.create n n |] in
  let phis = pair () and xs = pair () in
  let rec loop k (d : Vanloan.t) =
    if k > max_iter then
      raise (Not_stable "doubling iteration did not converge")
    else begin
      Scnoise_obs.Obs.incr c_doubling_steps;
      let x = xs.(k land 1) in
      Vanloan.step bufs d d.Vanloan.qd ~out:x;
      let delta = Mat.max_abs_diff x d.Vanloan.qd in
      if Mat.max_abs d.Vanloan.phi > 1e154 then
        raise (Not_stable "monodromy powers diverge: spectral radius >= 1");
      if delta > guard *. 1e8 then
        raise (Not_stable "doubling iteration diverges: spectral radius >= 1");
      (* convergence is relative to the running solution: covariances
         live at the kT/C scale, so an absolute floor would stop orders
         of magnitude early *)
      if delta <= tol *. Mat.max_abs x then x
      else begin
        let phi2 = phis.(k land 1) in
        Mat.mul_into d.Vanloan.phi d.Vanloan.phi phi2;
        loop (k + 1) { Vanloan.phi = phi2; qd = x }
      end
    end
  in
  loop 0 { Vanloan.phi; qd = q }

let residual_discrete phi q x =
  let rhs = Mat.add (Mat.mul phi (Mat.mul x (Mat.transpose phi))) q in
  Mat.max_abs_diff x rhs
