(* Higham's scaling-and-squaring with the order-13 Padé approximant.  We
   always use the order-13 approximant (skipping the lower-order fast
   paths).  The products and the solve run on the bit-faithful dense
   kernels of [Mat] and [Lu].  The Van Loan matrices [[-A, Q], [0, Aᵀ]]
   do not come here: [Vanloan] runs the same Padé on their three n×n
   blocks, with the coefficient table, the scaling exponent and the
   per-entry loops below, so its covariances are the bits this
   whole-matrix form would give. *)

let pade13_coeffs =
  [| 64764752532480000.0; 32382376266240000.0; 7771770303897600.0;
     1187353796428800.0; 129060195264000.0; 10559470521600.0; 670442572800.0;
     33522128640.0; 1323241920.0; 40840800.0; 960960.0; 16380.0; 182.0; 1.0 |]

let theta13 = 5.371920351148152

let c_calls = Scnoise_obs.Obs.counter "expm_calls"

let count_call () = Scnoise_obs.Obs.incr c_calls

type pade = { lhs : Mat.t; rhs : Mat.t; squarings : int }

let squarings norm =
  let s =
    if norm <= theta13 then 0
    else int_of_float (ceil (log (norm /. theta13) /. log 2.0))
  in
  max s 0

(* The per-entry steps of U and V, with the float operations, in the
   order, of the composition [Oracle.pade13] keeps: scale, [Mat.add] and
   [Mat.sub] of whole matrices, and [b.(1) * I] and [b.(0) * I] with
   the identity's [1.0] and [0.0] entries.  [odd] picks U's
   coefficients, otherwise V's.  Each runs over one [dim × dim] square
   stored row-major from [off] in every array it names; [diag] says
   whether the square's diagonal is the identity's, as it is for a
   diagonal block. *)
let check_square name arrays ~off ~dim =
  if off < 0 || dim < 0
     || List.exists (fun x -> Array.length x < off + (dim * dim)) arrays
  then invalid_arg ("Expm." ^ name ^ ": square out of range")

let poly_inner ~odd dst ~x6 ~x4 ~x2 ~off ~dim =
  check_square "poly_inner" [ dst; x6; x4; x2 ] ~off ~dim;
  let b = pade13_coeffs and e = if odd then 1 else 0 in
  let c6 = b.(12 + e) and c4 = b.(10 + e) and c2 = b.(8 + e) in
  for k = off to off + (dim * dim) - 1 do
    Array.unsafe_set dst k
      (((c6 *. Array.unsafe_get x6 k) +. (c4 *. Array.unsafe_get x4 k))
      +. (c2 *. Array.unsafe_get x2 k))
  done

let poly_tail ~odd dst ~x6 ~x4 ~x2 ~off ~dim ~diag =
  check_square "poly_tail" [ dst; x6; x4; x2 ] ~off ~dim;
  let b = pade13_coeffs and e = if odd then 1 else 0 in
  let c6 = b.(6 + e) and c4 = b.(4 + e) and c2 = b.(2 + e) and c0 = b.(e) in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let k = off + (i * dim) + j in
      let id = if diag && i = j then 1.0 else 0.0 in
      Array.unsafe_set dst k
        (Array.unsafe_get dst k
        +. (((c6 *. Array.unsafe_get x6 k) +. (c4 *. Array.unsafe_get x4 k))
           +. ((c2 *. Array.unsafe_get x2 k) +. (c0 *. id))))
    done
  done

(* The products go through [Mat.mul_into] into six buffers allocated
   once, and the polynomial tails run in place on the product they
   add to; the last two buffers return the system. *)
let pade13 a =
  if not (Mat.is_square a) then invalid_arg "Expm.pade13: not square";
  if Mat.rows a = 0 then invalid_arg "Expm.pade13: empty";
  let n = Mat.rows a in
  let s = squarings (Mat.norm_inf a) in
  let buffer () = Mat.create n n in
  let a1 = buffer () and a2 = buffer () and a4 = buffer () and a6 = buffer ()
  and t = buffer () and p = buffer () in
  let x = Mat.data a and x1 = Mat.data a1 and x2 = Mat.data a2
  and x4 = Mat.data a4 and x6 = Mat.data a6 and td = Mat.data t
  and pd = Mat.data p in
  let sc = 1.0 /. (2.0 ** float_of_int s) in
  for k = 0 to (n * n) - 1 do
    x1.(k) <- sc *. x.(k)
  done;
  Mat.mul_into a1 a1 a2;
  Mat.mul_into a2 a2 a4;
  Mat.mul_into a2 a4 a6;
  let poly_inner ~odd d = poly_inner ~odd d ~x6 ~x4 ~x2 ~off:0 ~dim:n
  and poly_tail ~odd d = poly_tail ~odd d ~x6 ~x4 ~x2 ~off:0 ~dim:n ~diag:true in
  (* the odd part: U = A (A6 (b13 A6 + b11 A4 + b9 A2)
                         + b7 A6 + b5 A4 + b3 A2 + b1 I), into [t] *)
  poly_inner ~odd:true td;
  Mat.mul_into a6 t p;
  poly_tail ~odd:true pd;
  Mat.mul_into a1 p t;
  (* the even part: V = A6 (b12 A6 + b10 A4 + b8 A2)
                        + b6 A6 + b4 A4 + b2 A2 + b0 I, into [a1] *)
  poly_inner ~odd:false pd;
  Mat.mul_into a6 p a1;
  poly_tail ~odd:false x1;
  (* lhs = V - U into [t], rhs = V + U into [a1] *)
  for k = 0 to (n * n) - 1 do
    let v = x1.(k) and u = td.(k) in
    td.(k) <- v -. u;
    x1.(k) <- v +. u
  done;
  { lhs = t; rhs = a1; squarings = s }

let expm a =
  if not (Mat.is_square a) then invalid_arg "Expm.expm: not square";
  Sanitize.check_mat "Expm.expm" a;
  count_call ();
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
