(* Higham's scaling-and-squaring with the order-13 Padé approximant.  We
   always use the order-13 approximant (skipping the lower-order fast
   paths).  The products and the solve run on the bit-faithful dense
   kernels of [Mat] and [Lu]; the Van Loan matrices [[-A, Q], [0, Aᵀ]]
   reach 2n = 200 here, and their zero block and the empty middle of
   their sparse rows are skipped by [Mat.mul_into]'s row paths and by
   [Lu.solve_mat]'s zero-factor and row-span skips rather than by a
   block-structured Padé, which would change the rounding of every
   covariance. *)

let pade13_coeffs =
  [| 64764752532480000.0; 32382376266240000.0; 7771770303897600.0;
     1187353796428800.0; 129060195264000.0; 10559470521600.0; 670442572800.0;
     33522128640.0; 1323241920.0; 40840800.0; 960960.0; 16380.0; 182.0; 1.0 |]

let theta13 = 5.371920351148152

let c_calls = Scnoise_obs.Obs.counter "expm_calls"

type pade = { lhs : Mat.t; rhs : Mat.t; squarings : int }

(* U and V are formed entry by entry with the float operations, in the
   order, of the composition [Oracle.pade13] keeps: scale, [Mat.add] and
   [Mat.sub] of whole matrices, and [b.(1) * I] and [b.(0) * I] with the
   identity's [1.0] and [0.0] entries.  The products go through
   [Mat.mul_into] into seven buffers allocated once; the last two
   return the system. *)
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
  let b = pade13_coeffs in
  let buffer () = Mat.create n n in
  let a1 = buffer () and a2 = buffer () and a4 = buffer () and a6 = buffer ()
  and t = buffer () and p = buffer () and w = buffer () in
  let x = Mat.data a and x1 = Mat.data a1 and x2 = Mat.data a2
  and x4 = Mat.data a4 and x6 = Mat.data a6 and td = Mat.data t
  and pd = Mat.data p and wd = Mat.data w in
  let sc = 1.0 /. (2.0 ** float_of_int s) in
  for k = 0 to (n * n) - 1 do
    x1.(k) <- sc *. x.(k)
  done;
  Mat.mul_into a1 a1 a2;
  Mat.mul_into a2 a2 a4;
  Mat.mul_into a2 a4 a6;
  (* the odd part: U = A (A6 (b13 A6 + b11 A4 + b9 A2)
                         + b7 A6 + b5 A4 + b3 A2 + b1 I) *)
  let b13 = b.(13) and b11 = b.(11) and b9 = b.(9) in
  for k = 0 to (n * n) - 1 do
    td.(k) <- ((b13 *. x6.(k)) +. (b11 *. x4.(k))) +. (b9 *. x2.(k))
  done;
  Mat.mul_into a6 t p;
  let b7 = b.(7) and b5 = b.(5) and b3 = b.(3) and b1 = b.(1) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = (i * n) + j and id = if i = j then 1.0 else 0.0 in
      td.(k) <-
        pd.(k)
        +. (((b7 *. x6.(k)) +. (b5 *. x4.(k)))
           +. ((b3 *. x2.(k)) +. (b1 *. id)))
    done
  done;
  Mat.mul_into a1 t p;
  (* the even part: V = A6 (b12 A6 + b10 A4 + b8 A2)
                        + b6 A6 + b4 A4 + b2 A2 + b0 I *)
  let b12 = b.(12) and b10 = b.(10) and b8 = b.(8) in
  for k = 0 to (n * n) - 1 do
    td.(k) <- ((b12 *. x6.(k)) +. (b10 *. x4.(k))) +. (b8 *. x2.(k))
  done;
  Mat.mul_into a6 t w;
  (* lhs = V - U into [t], rhs = V + U into [w] *)
  let b6 = b.(6) and b4 = b.(4) and b2 = b.(2) and b0 = b.(0) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = (i * n) + j and id = if i = j then 1.0 else 0.0 in
      let v =
        wd.(k)
        +. (((b6 *. x6.(k)) +. (b4 *. x4.(k)))
           +. ((b2 *. x2.(k)) +. (b0 *. id)))
      in
      td.(k) <- v -. pd.(k);
      wd.(k) <- v +. pd.(k)
    done
  done;
  { lhs = t; rhs = w; squarings = s }

let expm a =
  if not (Mat.is_square a) then invalid_arg "Expm.expm: not square";
  Sanitize.check_mat "Expm.expm" a;
  Scnoise_obs.Obs.incr c_calls;
  let n = Mat.rows a in
  if n = 0 then Mat.create 0 0
  else begin
    let { lhs; rhs; squarings } = pade13 a in
    (* r = (V - U)^{-1} (V + U); the factor copies [lhs], which then
       takes turns with [r] as the squarings' output *)
    let lu = Lu.factor lhs in
    let r = ref (Lu.solve_mat lu rhs) and spare = ref lhs in
    for _ = 1 to squarings do
      Mat.mul_into !r !r !spare;
      let sq = !spare in
      spare := !r;
      r := sq
    done;
    Sanitize.check_mat "Expm.expm (result)" !r;
    !r
  end

let expm_scaled a t = expm (Mat.scale t a)
