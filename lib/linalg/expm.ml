(* Higham's scaling-and-squaring with the order-13 Padé approximant.  We
   always use the order-13 approximant (skipping the lower-order fast
   paths).  The products and the solve run on the bit-faithful dense
   kernels of [Mat] and [Lu]; the Van Loan matrices [[-A, Q], [0, Aᵀ]]
   reach 2n = 200 here, and their zero block is skipped by [Mat.mul]'s
   support bounds and by [Lu.solve_mat]'s zero-factor and row-span skips
   rather than by a block-structured Padé, which would change the
   rounding of every covariance. *)

let pade13_coeffs =
  [| 64764752532480000.0; 32382376266240000.0; 7771770303897600.0;
     1187353796428800.0; 129060195264000.0; 10559470521600.0; 670442572800.0;
     33522128640.0; 1323241920.0; 40840800.0; 960960.0; 16380.0; 182.0; 1.0 |]

let theta13 = 5.371920351148152

let c_calls = Scnoise_obs.Obs.counter "expm_calls"

type pade = { lhs : Mat.t; rhs : Mat.t; squarings : int }

let pade13 a =
  if not (Mat.is_square a) then invalid_arg "Expm.pade13: not square";
  if Mat.rows a = 0 then invalid_arg "Expm.pade13: empty";
  let n = Mat.rows a in
  let norm = Mat.norm_inf a in
  let s =
    if norm <= theta13 then 0
    else int_of_float (ceil (log (norm /. theta13) /. log 2.0))
  in
  let s = max s 0 in
  let a = Mat.scale (1.0 /. (2.0 ** float_of_int s)) a in
  let b = pade13_coeffs in
  let ident = Mat.identity n in
  let a2 = Mat.mul a a in
  let a4 = Mat.mul a2 a2 in
  let a6 = Mat.mul a2 a4 in
  let u_inner =
    Mat.add
      (Mat.mul a6
         (Mat.add
            (Mat.add (Mat.scale b.(13) a6) (Mat.scale b.(11) a4))
            (Mat.scale b.(9) a2)))
      (Mat.add
         (Mat.add (Mat.scale b.(7) a6) (Mat.scale b.(5) a4))
         (Mat.add (Mat.scale b.(3) a2) (Mat.scale b.(1) ident)))
  in
  let u = Mat.mul a u_inner in
  let v =
    Mat.add
      (Mat.mul a6
         (Mat.add
            (Mat.add (Mat.scale b.(12) a6) (Mat.scale b.(10) a4))
            (Mat.scale b.(8) a2)))
      (Mat.add
         (Mat.add (Mat.scale b.(6) a6) (Mat.scale b.(4) a4))
         (Mat.add (Mat.scale b.(2) a2) (Mat.scale b.(0) ident)))
  in
  let lhs = Mat.sub v u in
  let rhs = Mat.add v u in
  { lhs; rhs; squarings = s }

let expm a =
  if not (Mat.is_square a) then invalid_arg "Expm.expm: not square";
  Sanitize.check_mat "Expm.expm" a;
  Scnoise_obs.Obs.incr c_calls;
  let n = Mat.rows a in
  if n = 0 then Mat.create 0 0
  else begin
    let { lhs; rhs; squarings } = pade13 a in
    (* r = (V - U)^{-1} (V + U) *)
    let lu = Lu.factor lhs in
    let r = ref (Lu.solve_mat lu rhs) in
    for _ = 1 to squarings do
      r := Mat.mul !r !r
    done;
    Sanitize.check_mat "Expm.expm (result)" !r;
    !r
  end

let expm_scaled a t = expm (Mat.scale t a)
