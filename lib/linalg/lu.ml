module Obs = Scnoise_obs.Obs

type t = {
  n : int;
  lu : float array; (* row-major, L below diagonal (unit), U on/above *)
  piv : int array; (* row permutation *)
  sign : float; (* parity of the permutation *)
}

exception Singular of int

let c_factorizations = Obs.counter "lu_factorizations"

let c_solves = Obs.counter "lu_solves"

(* Factorisations whose reciprocal-condition estimate fell below 1e-12
   (condition number above 1e12); surfaced post-hoc as an ERC warning. *)
let c_ill_conditioned = Obs.counter "lu_ill_conditioned"

let ill_conditioned_rcond = 1e-12

(* Distribution of the cheap rcond estimate min|U_ii| / max|U_ii|; the
   log buckets make slow conditioning drift visible long before the
   1e-12 counter trips.  Always-on (one atomic add per factorisation). *)
let h_rcond = Obs.histogram "lu.rcond"

let factor m =
  if not (Mat.is_square m) then invalid_arg "Lu.factor: not square";
  Sanitize.check_mat "Lu.factor" m;
  Obs.incr c_factorizations;
  let n = Mat.rows m in
  let lu = Array.copy (Mat.data m) in
  let piv = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* Partial pivoting: find the largest magnitude in column k. *)
    let pmax = ref (abs_float lu.((k * n) + k)) in
    let prow = ref k in
    for i = k + 1 to n - 1 do
      let v = abs_float lu.((i * n) + k) in
      if v > !pmax then begin
        pmax := v;
        prow := i
      end
    done;
    if !pmax = 0.0 then raise (Singular k);
    if !prow <> k then begin
      for j = 0 to n - 1 do
        let t = lu.((k * n) + j) in
        lu.((k * n) + j) <- lu.((!prow * n) + j);
        lu.((!prow * n) + j) <- t
      done;
      let t = piv.(k) in
      piv.(k) <- piv.(!prow);
      piv.(!prow) <- t;
      sign := -. !sign
    end;
    let pivot = lu.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let f = lu.((i * n) + k) /. pivot in
      lu.((i * n) + k) <- f;
      if f <> 0.0 then begin
        (* rows [i] and [k] are in range, so the O(n^3) update skips
           the bounds checks *)
        let ri = i * n and rk = k * n in
        for j = k + 1 to n - 1 do
          Array.unsafe_set lu (ri + j)
            (Array.unsafe_get lu (ri + j)
            -. (f *. Array.unsafe_get lu (rk + j)))
        done
      end
    done
  done;
  let t = { n; lu; piv; sign = !sign } in
  (let mn = ref infinity and mx = ref 0.0 in
   for i = 0 to n - 1 do
     let u = abs_float lu.((i * n) + i) in
     mn := min !mn u;
     mx := max !mx u
   done;
   if n > 0 then begin
     Obs.hist_record h_rcond (if !mx > 0.0 then !mn /. !mx else 0.0);
     if !mn < ill_conditioned_rcond *. !mx then Obs.incr c_ill_conditioned
   end);
  t

let solve_in_place t x =
  let n = t.n in
  (* forward substitution with unit L *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (t.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* back substitution with U *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (t.lu.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. t.lu.((i * n) + i)
  done

let solve t b =
  if Array.length b <> t.n then invalid_arg "Lu.solve: dimension mismatch";
  Sanitize.check_vec "Lu.solve" b;
  Obs.incr c_solves;
  let x = Array.init t.n (fun i -> b.(t.piv.(i))) in
  solve_in_place t x;
  Sanitize.check_vec "Lu.solve (result)" x;
  x

let solve_into t ~b ~into =
  if Array.length b <> t.n then invalid_arg "Lu.solve_into: dimension mismatch";
  if Array.length into <> t.n then
    invalid_arg "Lu.solve_into: output dimension mismatch";
  if b == into then invalid_arg "Lu.solve_into: output must not alias b";
  Sanitize.check_vec "Lu.solve" b;
  Obs.incr c_solves;
  for i = 0 to t.n - 1 do
    into.(i) <- b.(t.piv.(i))
  done;
  solve_in_place t into;
  Sanitize.check_vec "Lu.solve (result)" into

(* Complex right-hand side against the real factorisation: the real
   multipliers act on the re/im parts independently, so one pass over
   the interleaved buffer solves both at once.  Allocation-free; [b]
   must not alias [into] (the permuted gather writes [into] first). *)
let solve_complex_into t ~b ~into =
  let n = t.n in
  if Cvec.dim b <> n then
    invalid_arg "Lu.solve_complex_into: dimension mismatch";
  if Cvec.dim into <> n then
    invalid_arg "Lu.solve_complex_into: output dimension mismatch";
  let bd = Cvec.data b and x = Cvec.data into in
  if bd == x then invalid_arg "Lu.solve_complex_into: output must not alias b";
  Sanitize.check_cvec "Lu.solve_complex" b;
  Obs.incr c_solves;
  for i = 0 to n - 1 do
    let p = t.piv.(i) in
    x.(2 * i) <- bd.(2 * p);
    x.((2 * i) + 1) <- bd.((2 * p) + 1)
  done;
  for i = 1 to n - 1 do
    let ar = ref x.(2 * i) and ai = ref x.((2 * i) + 1) in
    for j = 0 to i - 1 do
      let l = t.lu.((i * n) + j) in
      ar := !ar -. (l *. x.(2 * j));
      ai := !ai -. (l *. x.((2 * j) + 1))
    done;
    x.(2 * i) <- !ar;
    x.((2 * i) + 1) <- !ai
  done;
  for i = n - 1 downto 0 do
    let ar = ref x.(2 * i) and ai = ref x.((2 * i) + 1) in
    for j = i + 1 to n - 1 do
      let u = t.lu.((i * n) + j) in
      ar := !ar -. (u *. x.(2 * j));
      ai := !ai -. (u *. x.((2 * j) + 1))
    done;
    let d = t.lu.((i * n) + i) in
    x.(2 * i) <- !ar /. d;
    x.((2 * i) + 1) <- !ai /. d
  done;
  Sanitize.check_cvec "Lu.solve_complex (result)" into

let c_block_solves = Obs.counter "lu_block_solves"

(* Multi-RHS substitution over row-major [n × w] buffers: the permuted
   gather of [b] into [x], then [row_i -= l_ij row_j] for ascending
   [j], then the same with [U] and a division by [u_ii].  Each factor
   element is loaded once per row of [w] right-hand sides and the inner
   loops stream over adjacent floats, yet every float of a row sees
   exactly the operation sequence of the single-RHS solve of its
   column, so the results are bitwise those of one solve per column.
   Callers have checked that [b] and [x] hold [n * w] floats and do not
   alias, which pins every index inside the buffers; the inner loops
   use unsafe accesses because bounds checks are a measurable fraction
   of these 2-flop iterations. *)
let solve_rows t ~w ~b ~x =
  let n = t.n and lu = t.lu in
  for i = 0 to n - 1 do
    Array.blit b (t.piv.(i) * w) x (i * w) w
  done;
  for i = 1 to n - 1 do
    let irow = i * w in
    for j = 0 to i - 1 do
      let l = Array.unsafe_get lu ((i * n) + j) in
      let jrow = j * w in
      for k = 0 to w - 1 do
        Array.unsafe_set x (irow + k)
          (Array.unsafe_get x (irow + k)
          -. (l *. Array.unsafe_get x (jrow + k)))
      done
    done
  done;
  for i = n - 1 downto 0 do
    let irow = i * w in
    for j = i + 1 to n - 1 do
      let u = Array.unsafe_get lu ((i * n) + j) in
      let jrow = j * w in
      for k = 0 to w - 1 do
        Array.unsafe_set x (irow + k)
          (Array.unsafe_get x (irow + k)
          -. (u *. Array.unsafe_get x (jrow + k)))
      done
    done;
    let d = Array.unsafe_get lu ((i * n) + i) in
    for k = 0 to w - 1 do
      Array.unsafe_set x (irow + k) (Array.unsafe_get x (irow + k) /. d)
    done
  done

(* Blocked multi-RHS variant of [solve_complex_into] over a
   column-major panel (see Cvec): state [i]'s [2 * width] interleaved
   floats form row [i], and the real factors act on re and im parts
   alike, so every column of the result is bitwise identical to the
   single-RHS solve of that column. *)
let solve_block_into t ~width ~b ~into =
  let n = t.n in
  if width < 1 then invalid_arg "Lu.solve_block_into: width < 1";
  if Array.length b <> 2 * n * width then
    invalid_arg "Lu.solve_block_into: dimension mismatch";
  if Array.length into <> 2 * n * width then
    invalid_arg "Lu.solve_block_into: output dimension mismatch";
  if b == into then invalid_arg "Lu.solve_block_into: output must not alias b";
  Sanitize.check_panel "Lu.solve_block" ~width b;
  Obs.add c_solves width;
  Obs.incr c_block_solves;
  solve_rows t ~w:(2 * width) ~b ~x:into;
  Sanitize.check_panel "Lu.solve_block (result)" ~width into

(* All right-hand sides at once, row by row; the [lu_solves] counter
   still counts one solve per column. *)
let solve_mat t b =
  if Mat.rows b <> t.n then invalid_arg "Lu.solve_mat: dimension mismatch";
  Sanitize.check_mat "Lu.solve" b;
  let nc = Mat.cols b in
  Obs.add c_solves nc;
  let out = Mat.create t.n nc in
  solve_rows t ~w:nc ~b:(Mat.data b) ~x:(Mat.data out);
  Sanitize.check_mat "Lu.solve (result)" out;
  out

let det t =
  let acc = ref t.sign in
  for i = 0 to t.n - 1 do
    acc := !acc *. t.lu.((i * t.n) + i)
  done;
  !acc

let inverse t = solve_mat t (Mat.identity t.n)

let rcond_estimate t =
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to t.n - 1 do
    let u = abs_float t.lu.((i * t.n) + i) in
    mn := min !mn u;
    mx := max !mx u
  done;
  if !mx = 0.0 then 0.0 else !mn /. !mx

let solve_dense m b = solve (factor m) b
