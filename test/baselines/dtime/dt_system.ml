module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Cx = Scnoise_linalg.Cx
module Lyapunov = Scnoise_linalg.Lyapunov

type t = {
  ad : Mat.t;
  bd : Mat.t;
  c : Vec.t;
  period : float;
}

let make ~ad ~bd ~c ~period =
  if not (Mat.is_square ad) then invalid_arg "Dt_system.make: Ad not square";
  let n = Mat.rows ad in
  if Mat.rows bd <> n then invalid_arg "Dt_system.make: Bd rows";
  if Array.length c <> n then invalid_arg "Dt_system.make: output row";
  if period <= 0.0 then invalid_arg "Dt_system.make: period <= 0";
  { ad; bd; c; period }

let state_covariance t =
  Lyapunov.solve_discrete_doubling t.ad (Mat.mul t.bd (Mat.transpose t.bd))

let variance t =
  let k = state_covariance t in
  Vec.dot t.c (Mat.mul_vec k t.c)

(* S_x(θ) = || Bdᵀ z ||² with (e^{jθ} I - Ad)ᵀ z = c. *)
let sampled_density t theta =
  let n = Mat.rows t.ad in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let d = if i = j then Cx.cis theta else Cx.zero in
            (* transpose of (e^{jθ} I - Ad) *)
            Cx.( -: ) d (Cx.re (Mat.get t.ad j i))))
  in
  let z = Oracle.clu_solve (Oracle.clu_factor m) (Array.map Cx.re t.c) in
  (* accumulate || Bdᵀ z ||² *)
  let acc = ref 0.0 in
  for col = 0 to Mat.cols t.bd - 1 do
    let s = ref Cx.zero in
    for i = 0 to n - 1 do
      s := Cx.( +: ) !s (Cx.scale (Mat.get t.bd i col) z.(i))
    done;
    acc := !acc +. (Cx.modulus !s ** 2.0)
  done;
  !acc

let spectrum_sampled t ~f =
  let theta = 2.0 *. Float.pi *. f *. t.period in
  t.period *. sampled_density t theta

let sinc x = if abs_float x < 1e-8 then 1.0 -. (x *. x /. 6.0) else sin x /. x

let spectrum_held ?(hold_fraction = 1.0) t ~f =
  if hold_fraction <= 0.0 || hold_fraction > 1.0 then
    invalid_arg "Dt_system.spectrum_held: need 0 < hold_fraction <= 1";
  let theta = 2.0 *. Float.pi *. f *. t.period in
  let w = hold_fraction *. t.period in
  let s = sinc (Float.pi *. f *. w) in
  w *. w /. t.period *. s *. s *. sampled_density t theta
