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

(* Per-domain scratch of [factor_data] and [solve_rows], grown to the
   largest [n] seen: the source rows' spans [lo], [hi] and one target's
   source list [src] of a solve, whether its skips are still exact, and
   the rows one pivot updates in a factorisation ([src] serves both; a
   factorisation runs no solve).  Neither allocates per call, so they
   leave the collector's pacing of their callers as it was. *)
type scratch = {
  mutable lo : int array;
  mutable hi : int array;
  mutable src : int array;
  mutable skips : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { lo = [||]; hi = [||]; src = [||]; skips = true })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.lo < n then begin
    s.lo <- Array.make n 0;
    s.hi <- Array.make n 0;
    s.src <- Array.make n 0
  end;
  s

(* --- elimination ---

   Right-looking, row by row as in the textbook loop: after the pivot
   search and swap, each row [i] below the pivot gets its multiplier
   [f = l_ik / u_kk], stored in column [k], and, when [f <> 0], the
   update [l_ij -. f *. u_kj] for every [j > k].  The rows with
   [f <> 0] are listed first and then updated four at a time, so each
   loaded pivot-row entry serves four rows; the rest run one at a time.
   Every entry receives the same operations in the same order — one
   [x -. f *. u] per pivot, in ascending [k] — so the factors are those
   of the textbook loop bit for bit.  The helpers take buffers and
   indices only, never a float; rows [i] and [k] are in range, so the
   O(n³) update skips the bounds checks. *)

(* Rows [rows.(g) .. rows.(g + 3)] less their multiple of pivot row
   [k], over columns [k + 1 .. n - 1]. *)
let eliminate4 lu ~n ~k rows g =
  let r0 = rows.(g) * n and r1 = rows.(g + 1) * n
  and r2 = rows.(g + 2) * n and r3 = rows.(g + 3) * n and rk = k * n in
  let f0 = lu.(r0 + k) and f1 = lu.(r1 + k) and f2 = lu.(r2 + k)
  and f3 = lu.(r3 + k) in
  for j = k + 1 to n - 1 do
    let u = Array.unsafe_get lu (rk + j) in
    Array.unsafe_set lu (r0 + j) (Array.unsafe_get lu (r0 + j) -. (f0 *. u));
    Array.unsafe_set lu (r1 + j) (Array.unsafe_get lu (r1 + j) -. (f1 *. u));
    Array.unsafe_set lu (r2 + j) (Array.unsafe_get lu (r2 + j) -. (f2 *. u));
    Array.unsafe_set lu (r3 + j) (Array.unsafe_get lu (r3 + j) -. (f3 *. u))
  done

(* Row [i] less its multiple of pivot row [k]. *)
let eliminate1 lu ~n ~k i =
  let ri = i * n and rk = k * n in
  let f = lu.(ri + k) in
  for j = k + 1 to n - 1 do
    Array.unsafe_set lu (ri + j)
      (Array.unsafe_get lu (ri + j) -. (f *. Array.unsafe_get lu (rk + j)))
  done

(* Factors the [n × n] row-major [lu] in place. *)
let factor_data n lu =
  Obs.incr c_factorizations;
  let piv = Array.init n (fun i -> i) in
  let rows = (scratch n).src in
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
    let m = ref 0 in
    for i = k + 1 to n - 1 do
      let f = lu.((i * n) + k) /. pivot in
      lu.((i * n) + k) <- f;
      if f <> 0.0 then begin
        rows.(!m) <- i;
        incr m
      end
    done;
    let g = ref 0 in
    while !g + 4 <= !m do
      eliminate4 lu ~n ~k rows !g;
      g := !g + 4
    done;
    for g = !g to !m - 1 do
      eliminate1 lu ~n ~k rows.(g)
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

let factor m =
  if not (Mat.is_square m) then invalid_arg "Lu.factor: not square";
  Sanitize.check_mat "Lu.factor" m;
  factor_data (Mat.rows m) (Array.copy (Mat.data m))

let factor_in_place m =
  if not (Mat.is_square m) then invalid_arg "Lu.factor_in_place: not square";
  Sanitize.check_mat "Lu.factor" m;
  factor_data (Mat.rows m) (Mat.data m)

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

(* --- multi-RHS substitution ---

   [solve_rows] solves [A X = B] for the [w] columns of a row-major
   [n × w] buffer: the permuted gather of [b] into [x], then
   [x_i -= l_ij x_j] for ascending [j], then the same with [U] and a
   division by [u_ii].  Every float [x_ik] sees, in order, the terms
   [x_ik -. l_ij *. x_jk] of the single-RHS solve of column [k] and
   nothing else, so column [k] is bitwise [solve] of that column.  Each
   factor element is loaded once per row of [w] right-hand sides, and
   a target row takes four source rows per pass over [k], so [x_ik] is
   loaded and stored once per four multiply-adds.

   The kernel skips the terms whose factor [l_ij] (or [u_ij]) is
   exactly zero, and runs [k] only over the nonzero span [lo.(j),
   hi.(j)] of each source row, recorded when the row is final: after
   its forward update, and again after its division.  A skipped term
   is [x -. p] with [p = ±0], which leaves [x] unchanged unless [x] is
   [-0.0] (then [-0 -. +0] is [-0] but [-0 -. -0] is [+0]).  So the
   skips are exact when
   - the factors are finite ([0 *. y] is [±0] for finite [y] and
     [l *. 0] for finite [l]);
   - every final source row is finite — a finite [b] does not ensure
     it, since a row may overflow part-way; and
   - no target holds [-0.0].  A difference [x -. p] is [-0] only when
     [x] is [-0] and [p] is [+0], so a target that starts off [-0]
     never becomes [-0]; the division that could make one runs on a
     row only once it is final and no longer a target.
   An infinite or NaN target is left as it is by [-. ±0], as the
   reference leaves it.  The kernel checks on entry that the factors
   are finite and that [b] holds no [-0.0], in O(n² + n w), and checks
   each row's finiteness as it records its span.  When a check fails it
   runs the same loop with every span at full width and no term
   skipped — from the start, or from the first non-finite row
   (everything before it was exact).  The Padé factors of the Van Loan
   matrix [[-A, Q], [0, Aᵀ]] are block upper triangular and, for a
   ladder, banded; on them the skips drop about three quarters of the
   multiply-adds.

   The pass helpers take buffers and indices only, never a float, so
   no float crosses a call.  Callers have checked that [b] and [x] hold
   [n * w] floats, and the spans lie in [0, w - 1], which pins every
   index inside the buffers; the inner loops use unsafe accesses
   because bounds checks are a measurable fraction of these 2-flop
   iterations. *)

(* Row [i] of [x] from the four source rows [src.(g)] .. [src.(g + 3)],
   ascending, over [k] in [k0, k1]. *)
let pass4 lu x src ~n ~w i g k0 k1 =
  let j0 = src.(g) and j1 = src.(g + 1) and j2 = src.(g + 2)
  and j3 = src.(g + 3) in
  let l0 = lu.((i * n) + j0) and l1 = lu.((i * n) + j1)
  and l2 = lu.((i * n) + j2) and l3 = lu.((i * n) + j3) in
  let irow = i * w and r0 = j0 * w and r1 = j1 * w and r2 = j2 * w
  and r3 = j3 * w in
  for k = k0 to k1 do
    let o = irow + k in
    Array.unsafe_set x o
      (Array.unsafe_get x o
      -. (l0 *. Array.unsafe_get x (r0 + k))
      -. (l1 *. Array.unsafe_get x (r1 + k))
      -. (l2 *. Array.unsafe_get x (r2 + k))
      -. (l3 *. Array.unsafe_get x (r3 + k)))
  done

(* Row [i] of [x] from the one source row [j], over [k] in [k0, k1]. *)
let pass1 lu x ~n ~w i j k0 k1 =
  let l = lu.((i * n) + j) in
  let irow = i * w and jrow = j * w in
  for k = k0 to k1 do
    let o = irow + k in
    Array.unsafe_set x o
      (Array.unsafe_get x o -. (l *. Array.unsafe_get x (jrow + k)))
  done

(* Records the nonzero span of the final row [i] (empty as [w, -1])
   and returns whether the row is finite. *)
let record_span x ~w ~lo ~hi i =
  let r = i * w in
  let first = ref w and last = ref (-1) and finite = ref true in
  for k = 0 to w - 1 do
    let v = Array.unsafe_get x (r + k) in
    if v <> 0.0 then begin
      if !last < 0 then first := k;
      last := k;
      if not (Float.is_finite v) then finite := false
    end
  done;
  lo.(i) <- !first;
  hi.(i) <- !last;
  !finite

(* Row [i] is final: record its span, or leave the skips for good if it
   is not finite. *)
let finish x s ~n ~w i =
  if s.skips && not (record_span x ~w ~lo:s.lo ~hi:s.hi i) then begin
    s.skips <- false;
    Array.fill s.lo 0 n 0;
    Array.fill s.hi 0 n (w - 1)
  end

(* Row [i] from the source rows [first .. last]; returns the
   multiply-adds run. *)
let update lu x s ~n ~w i first last =
  let lo = s.lo and hi = s.hi and src = s.src in
  let m = ref 0 in
  for j = first to last do
    if
      (not s.skips)
      || (Array.unsafe_get lu ((i * n) + j) <> 0.0 && lo.(j) <= hi.(j))
    then begin
      src.(!m) <- j;
      incr m
    end
  done;
  let madds = ref 0 and g = ref 0 in
  while !g + 4 <= !m do
    let j0 = src.(!g) and j1 = src.(!g + 1) and j2 = src.(!g + 2)
    and j3 = src.(!g + 3) in
    let k0 = Int.min (Int.min lo.(j0) lo.(j1)) (Int.min lo.(j2) lo.(j3))
    and k1 = Int.max (Int.max hi.(j0) hi.(j1)) (Int.max hi.(j2) hi.(j3)) in
    pass4 lu x src ~n ~w i !g k0 k1;
    madds := !madds + (4 * (k1 - k0 + 1));
    g := !g + 4
  done;
  for g = !g to !m - 1 do
    let j = src.(g) in
    pass1 lu x ~n ~w i j lo.(j) hi.(j);
    madds := !madds + (hi.(j) - lo.(j) + 1)
  done;
  !madds

(* Returns the number of multiply-adds run. *)
let solve_rows t ~w ~b ~x =
  let n = t.n and lu = t.lu in
  for i = 0 to n - 1 do
    Array.blit b (t.piv.(i) * w) x (i * w) w
  done;
  let s = scratch n in
  s.skips <- true;
  for k = 0 to Array.length lu - 1 do
    if not (Float.is_finite (Array.unsafe_get lu k)) then s.skips <- false
  done;
  for k = 0 to (n * w) - 1 do
    let v = Array.unsafe_get b k in
    if v = 0.0 && Float.sign_bit v then s.skips <- false
  done;
  Array.fill s.lo 0 n 0;
  Array.fill s.hi 0 n (w - 1);
  let madds = ref 0 in
  for i = 0 to n - 1 do
    madds := !madds + update lu x s ~n ~w i 0 (i - 1);
    finish x s ~n ~w i
  done;
  for i = n - 1 downto 0 do
    madds := !madds + update lu x s ~n ~w i (i + 1) (n - 1);
    let d = Array.unsafe_get lu ((i * n) + i) and irow = i * w in
    for k = 0 to w - 1 do
      Array.unsafe_set x (irow + k) (Array.unsafe_get x (irow + k) /. d)
    done;
    finish x s ~n ~w i
  done;
  !madds

(* Multiply-adds run by [solve_mat]; the dense count is [n (n − 1)] per
   right-hand side. *)
let c_solve_madds = Obs.counter "lu_solve_madds"

(* All right-hand sides at once, row by row; the [lu_solves] counter
   still counts one solve per column. *)
let solve_mat_into t b ~out =
  if Mat.rows b <> t.n || Mat.rows out <> t.n || Mat.cols out <> Mat.cols b
  then invalid_arg "Lu.solve_mat_into: dimension mismatch";
  let o = Mat.data out in
  if t.n > 0 && Mat.cols b > 0 && (o == Mat.data b || o == t.lu) then
    invalid_arg "Lu.solve_mat_into: aliased output";
  Sanitize.check_mat "Lu.solve" b;
  let nc = Mat.cols b in
  Obs.add c_solves nc;
  Obs.add c_solve_madds (solve_rows t ~w:nc ~b:(Mat.data b) ~x:(Mat.data out));
  Sanitize.check_mat "Lu.solve (result)" out

let solve_mat t b =
  if Mat.rows b <> t.n then invalid_arg "Lu.solve_mat: dimension mismatch";
  let out = Mat.create t.n (Mat.cols b) in
  solve_mat_into t b ~out;
  out

let packed t =
  (Mat.init t.n t.n (fun i j -> t.lu.((i * t.n) + j)), Array.copy t.piv)

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
