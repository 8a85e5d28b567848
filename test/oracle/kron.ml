(* Kronecker products, column-major vectorisation and the two Lyapunov
   equations solved through them: exact to rounding, O(n⁴) memory and
   O(n⁶) time, so references for small systems only.  The library
   solves neither equation this way.

   Vectorisation stacks columns, so vec (A X B) = (Bᵀ ⊗ A) vec X. *)

module Mat = Scnoise_linalg.Mat
module Lu = Scnoise_linalg.Lu

let kron a b =
  let ra = Mat.rows a and ca = Mat.cols a in
  let rb = Mat.rows b and cb = Mat.cols b in
  Mat.init (ra * rb) (ca * cb) (fun i j ->
      Mat.get a (i / rb) (j / cb) *. Mat.get b (i mod rb) (j mod cb))

let vec m =
  let nr = Mat.rows m and nc = Mat.cols m in
  Array.init (nr * nc) (fun k -> Mat.get m (k mod nr) (k / nr))

let unvec nr nc v =
  if Array.length v <> nr * nc then invalid_arg "Kron.unvec: length mismatch";
  Mat.init nr nc (fun i j -> v.((j * nr) + i))

let check name a q =
  if not (Mat.is_square a && Mat.is_square q) then
    invalid_arg (name ^ ": not square");
  if Mat.rows a <> Mat.rows q then invalid_arg (name ^ ": size mismatch")

(* [a x + x aᵀ + q = 0]: (I ⊗ A + A ⊗ I) vec X = -vec Q.  Raises
   [Lu.Singular] when eigenvalues of [a] sum to zero in pairs. *)
let solve_continuous a q =
  check "Kron.solve_continuous" a q;
  let n = Mat.rows a in
  let ident = Mat.identity n in
  let lhs = Mat.add (kron ident a) (kron a ident) in
  let rhs = Array.map (fun x -> -.x) (vec q) in
  Mat.symmetrize (unvec n n (Lu.solve_dense lhs rhs))

(* [x = phi x phiᵀ + q]: (I - Φ ⊗ Φ) vec X = vec Q. *)
let solve_discrete phi q =
  check "Kron.solve_discrete" phi q;
  let n = Mat.rows phi in
  let lhs = Mat.sub (Mat.identity (n * n)) (kron phi phi) in
  Mat.symmetrize (unvec n n (Lu.solve_dense lhs (vec q)))
