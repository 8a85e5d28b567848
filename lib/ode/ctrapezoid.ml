module Cvec = Scnoise_linalg.Cvec
module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx

module Obs = Scnoise_obs.Obs

(* In the orthogonal basis of a Hessenberg reduction A = U H Uᵀ the
   shifted trapezoid LHS is I - h/2 (H - jwI) = d I - alpha H with
   d = 1 + j wh/2 and alpha = h/2: complex upper Hessenberg at every
   frequency, so it factors exactly in O(n^2).  Gaussian elimination
   only ever has one row below the pivot, so partial pivoting reduces
   to comparing two adjacent rows; L is unit lower bidiagonal, one
   multiplier and one swap flag per step, and U is upper triangular.
   The factorisation takes any complex d and alpha, which also serves
   the rotated monodromy I - e^{-jwT} H_Phi of the periodic closure.

   [width] matrices sharing one H are kept column-interleaved with the
   block column innermost (entry (i, j) of column b at
   2 ((off i + j - i) width + b), U packed by rows), so a panel step
   traverses H once for the whole block.  Each column's operations
   happen in the same order at every width, so a panel column is
   bitwise the width-1 solve. *)

type hess = {
  hn : int;
  hw : int;
  mutable hm : Mat.t; (* the shared real upper-Hessenberg H *)
  coef : float array; (* per column: d re, d im, alpha re, alpha im *)
  u : float array; (* packed upper triangle, interleaved *)
  rdiag : float array; (* per (row, column): 1 / u_ii *)
  mult : float array; (* per (step k, column): multiplier l_k *)
  swap : bool array; (* per (step k, column): rows k, k+1 swapped *)
  carry : float array; (* factorisation scratch: the row being reduced *)
}

let c_steps = Obs.counter "ode_steps"

let c_hess_factorizations = Obs.counter "bvp_hess_factorizations"

(* max |u_ij| / max |m_ij| of each factorisation (|z| = |re| + |im|):
   adjacent-row pivoting bounds it by n, so a large value flags an
   ill-conditioned shifted system.  Always on, one atomic add. *)
let h_pivot_growth = Obs.histogram "bvp.hess_pivot_growth"

let c_block_steps = Obs.counter "ode_block_steps"

(* what a [hess] points at until its first factorisation *)
let unbound = Mat.create 0 0

let hess_create ~dim ~width =
  if dim < 0 then invalid_arg "Ctrapezoid.hess_create: negative dimension";
  if width < 1 then invalid_arg "Ctrapezoid.hess_create: width < 1";
  {
    hn = dim;
    hw = width;
    hm = unbound;
    coef = Array.make (4 * width) 0.0;
    u = Array.make (dim * (dim + 1) * width) 0.0;
    rdiag = Array.make (2 * dim * width) 0.0;
    mult = Array.make (2 * dim * width) 0.0;
    swap = Array.make (dim * width) false;
    carry = Array.make (2 * dim) 0.0;
  }

let hess_swaps t ~col =
  let c = ref 0 in
  for k = 0 to t.hn - 2 do
    if t.swap.((k * t.hw) + col) then incr c
  done;
  !c

(* start of packed row i: rows 0 .. i-1 hold n, n-1, ... entries *)
let row_off n i = (i * n) - (i * (i - 1) / 2)

let mag re im = abs_float re +. abs_float im

(* No closures, tuples or stdlib float calls inside the loops: in a
   non-flambda build each would box a float per entry. *)
let hess_factor t ~hmat ~col ~d ~alpha =
  let n = t.hn and w = t.hw in
  if col < 0 || col >= w then invalid_arg "Ctrapezoid.hess_factor: bad column";
  if Mat.rows hmat <> n || Mat.cols hmat <> n then
    invalid_arg "Ctrapezoid.hess_factor: dimension mismatch";
  Obs.incr c_hess_factorizations;
  t.hm <- hmat;
  let hd = Mat.data hmat in
  let dr = d.Cx.re and di = d.Cx.im and ar = alpha.Cx.re and ai = alpha.Cx.im in
  t.coef.(4 * col) <- dr;
  t.coef.((4 * col) + 1) <- di;
  t.coef.((4 * col) + 2) <- ar;
  t.coef.((4 * col) + 3) <- ai;
  let u = t.u and c = t.carry in
  let mmax = ref 0.0 and umax = ref 0.0 in
  (* the carry starts as row 0 of M = d I - alpha H *)
  for j = 0 to n - 1 do
    let h = hd.(j) in
    let re = (if j = 0 then dr else 0.0) -. (ar *. h)
    and im = (if j = 0 then di else 0.0) -. (ai *. h) in
    c.(2 * j) <- re;
    c.((2 * j) + 1) <- im;
    let m = mag re im in
    if m > !mmax then mmax := m
  done;
  for k = 0 to n - 2 do
    (* row k + 1 of M is still untouched, zero left of column k; the
       larger of its column-k entry and the carry's is the pivot *)
    let r1 = (k + 1) * n in
    let nr = -.(ar *. hd.(r1 + k)) and ni = -.(ai *. hd.(r1 + k)) in
    let cr = c.(2 * k) and ci = c.((2 * k) + 1) in
    let m = mag nr ni in
    if m > !mmax then mmax := m;
    let swapped = Cx.modulus_ri nr ni > Cx.modulus_ri cr ci in
    t.swap.((k * w) + col) <- swapped;
    let pr = if swapped then nr else cr and pi = if swapped then ni else ci in
    let er = if swapped then cr else nr and ei = if swapped then ci else ni in
    if pr = 0.0 && pi = 0.0 then raise (Scnoise_linalg.Lu.Singular k);
    (* l = e / p, Complex.div's branch-on-magnitude algorithm *)
    let lr = ref 0.0 and li = ref 0.0 in
    if abs_float pr >= abs_float pi then begin
      let r = pi /. pr in
      let dd = pr +. (r *. pi) in
      lr := (er +. (r *. ei)) /. dd;
      li := (ei -. (r *. er)) /. dd
    end
    else begin
      let r = pr /. pi in
      let dd = pi +. (r *. pr) in
      lr := ((r *. er) +. ei) /. dd;
      li := ((r *. ei) -. er) /. dd
    end;
    let lr = !lr and li = !li in
    t.mult.(2 * ((k * w) + col)) <- lr;
    t.mult.((2 * ((k * w) + col)) + 1) <- li;
    (* the pivot row becomes row k of U; the other row minus l times
       it becomes the carry *)
    let uk = row_off n k - k in
    for j = k to n - 1 do
      let diag = j = k + 1 in
      let xr =
        if j = k then nr else (if diag then dr else 0.0) -. (ar *. hd.(r1 + j))
      and xi =
        if j = k then ni else (if diag then di else 0.0) -. (ai *. hd.(r1 + j))
      in
      if j > k then begin
        let m = mag xr xi in
        if m > !mmax then mmax := m
      end;
      let cr = c.(2 * j) and ci = c.((2 * j) + 1) in
      let pr = if swapped then xr else cr and pi = if swapped then xi else ci in
      let er = if swapped then cr else xr and ei = if swapped then ci else xi in
      let q = 2 * (((uk + j) * w) + col) in
      u.(q) <- pr;
      u.(q + 1) <- pi;
      let m = mag pr pi in
      if m > !umax then umax := m;
      c.(2 * j) <- er -. ((lr *. pr) -. (li *. pi));
      c.((2 * j) + 1) <- ei -. ((lr *. pi) +. (li *. pr))
    done
  done;
  if n > 0 then begin
    let last = n - 1 in
    let q = 2 * ((row_off n last * w) + col) in
    u.(q) <- c.(2 * last);
    u.(q + 1) <- c.((2 * last) + 1);
    let m = mag u.(q) u.(q + 1) in
    if m > !umax then umax := m;
    Obs.hist_record h_pivot_growth (if !mmax > 0.0 then !umax /. !mmax else 1.0)
  end;
  (* reciprocal pivots, so the solves multiply *)
  for i = 0 to n - 1 do
    let k = 2 * ((row_off n i * w) + col) in
    let pr = u.(k) and pi = u.(k + 1) in
    if pr = 0.0 && pi = 0.0 then raise (Scnoise_linalg.Lu.Singular i);
    let q = 2 * ((i * w) + col) in
    if abs_float pr >= abs_float pi then begin
      let r = pi /. pr in
      let dd = pr +. (r *. pi) in
      t.rdiag.(q) <- 1.0 /. dd;
      t.rdiag.(q + 1) <- -.r /. dd
    end
    else begin
      let r = pr /. pi in
      let dd = pi +. (r *. pr) in
      t.rdiag.(q) <- r /. dd;
      t.rdiag.(q + 1) <- -1.0 /. dd
    end
  done

let hess_factor_shifted t ~hmat ~h ~col ~omega =
  if h <= 0.0 then invalid_arg "Ctrapezoid.hess_factor_shifted: h <= 0";
  let w = 0.5 *. h in
  hess_factor t ~hmat ~col ~d:(Cx.make 1.0 (w *. omega)) ~alpha:(Cx.re w)

(* Forward pass over L (swap, then eliminate one row) and back
   substitution over U, per column in the same order at every width. *)
let hess_solve_in_place t x =
  let n = t.hn and w = t.hw in
  if Array.length x <> 2 * n * w then
    invalid_arg "Ctrapezoid.hess_solve_in_place: panel dimension mismatch";
  let w2 = 2 * w in
  let u = t.u and rd = t.rdiag and mult = t.mult and swap = t.swap in
  for k = 0 to n - 2 do
    for b = 0 to w - 1 do
      let q = (k * w) + b in
      let i0 = (k * w2) + (2 * b) in
      let i1 = i0 + w2 in
      if Array.unsafe_get swap q then begin
        let tr = Array.unsafe_get x i0 and ti = Array.unsafe_get x (i0 + 1) in
        Array.unsafe_set x i0 (Array.unsafe_get x i1);
        Array.unsafe_set x (i0 + 1) (Array.unsafe_get x (i1 + 1));
        Array.unsafe_set x i1 tr;
        Array.unsafe_set x (i1 + 1) ti
      end;
      let lr = Array.unsafe_get mult (2 * q)
      and li = Array.unsafe_get mult ((2 * q) + 1) in
      let xr = Array.unsafe_get x i0 and xi = Array.unsafe_get x (i0 + 1) in
      Array.unsafe_set x i1
        (Array.unsafe_get x i1 -. ((lr *. xr) -. (li *. xi)));
      Array.unsafe_set x (i1 + 1)
        (Array.unsafe_get x (i1 + 1) -. ((lr *. xi) +. (li *. xr)))
    done
  done;
  (* back substitution: a single column accumulates in registers; a
     panel keeps the block column innermost and accumulates each
     column's entry in place, in the same order *)
  if w = 1 then
    for i = n - 1 downto 0 do
      let q0 = 2 * (row_off n i - i) in
      let ar = ref (Array.unsafe_get x (2 * i))
      and ai = ref (Array.unsafe_get x ((2 * i) + 1)) in
      for j = i + 1 to n - 1 do
        let q = q0 + (2 * j) in
        let ur = Array.unsafe_get u q and ui = Array.unsafe_get u (q + 1) in
        let xr = Array.unsafe_get x (2 * j)
        and xi = Array.unsafe_get x ((2 * j) + 1) in
        ar := !ar -. ((ur *. xr) -. (ui *. xi));
        ai := !ai -. ((ur *. xi) +. (ui *. xr))
      done;
      let rr = Array.unsafe_get rd (2 * i)
      and ri = Array.unsafe_get rd ((2 * i) + 1) in
      Array.unsafe_set x (2 * i) ((!ar *. rr) -. (!ai *. ri));
      Array.unsafe_set x ((2 * i) + 1) ((!ar *. ri) +. (!ai *. rr))
    done
  else
  for i = n - 1 downto 0 do
    let xi0 = i * w2 in
    let q = ref (2 * (row_off n i + 1) * w) in
    for j = i + 1 to n - 1 do
      let xj0 = j * w2 in
      let q0 = !q in
      for b = 0 to w - 1 do
        let k = xi0 + (2 * b) and p = xj0 + (2 * b) and q = q0 + (2 * b) in
        let ur = Array.unsafe_get u q and ui = Array.unsafe_get u (q + 1) in
        let xr = Array.unsafe_get x p and xi = Array.unsafe_get x (p + 1) in
        Array.unsafe_set x k
          (Array.unsafe_get x k -. ((ur *. xr) -. (ui *. xi)));
        Array.unsafe_set x (k + 1)
          (Array.unsafe_get x (k + 1) -. ((ur *. xi) +. (ui *. xr)))
      done;
      q := q0 + w2
    done;
    for b = 0 to w - 1 do
      let k = xi0 + (2 * b) and q = 2 * ((i * w) + b) in
      let rr = Array.unsafe_get rd q and ri = Array.unsafe_get rd (q + 1) in
      let ar = Array.unsafe_get x k and ai = Array.unsafe_get x (k + 1) in
      Array.unsafe_set x k ((ar *. rr) -. (ai *. ri));
      Array.unsafe_set x (k + 1) ((ar *. ri) +. (ai *. rr))
    done
  done

(* One trapezoid step of every column: into = (2 - d) p + alpha H p + g,
   then the factored solve in place.  With the shifted factors
   (d = 1 + j beta, alpha = h/2) the rhs is I + h/2 (H - jwI) applied to
   p. *)
let step_hess_into t ~g ~p ~into =
  let n = t.hn and w = t.hw in
  if Array.length p <> 2 * n * w || Array.length into <> 2 * n * w then
    invalid_arg "Ctrapezoid.step_hess_into: panel dimension mismatch";
  if Cvec.dim g <> n then
    invalid_arg "Ctrapezoid.step_hess_into: forcing dimension mismatch";
  if p == into then
    invalid_arg "Ctrapezoid.step_hess_into: output must not alias p";
  Obs.add c_steps w;
  if w > 1 then Obs.incr c_block_steps;
  let hd = Mat.data t.hm and gd = Cvec.data g and coef = t.coef in
  let w2 = 2 * w in
  for i = 0 to n - 1 do
    let base = i * n and xi0 = i * w2 in
    let j0 = if i = 0 then 0 else i - 1 in
    (* row i of H p: in registers for a single column, in place with the
       block innermost for a panel — the same sums in the same order *)
    if w = 1 then begin
      let re = ref 0.0 and im = ref 0.0 in
      for j = j0 to n - 1 do
        let a = Array.unsafe_get hd (base + j) in
        re := !re +. (a *. Array.unsafe_get p (2 * j));
        im := !im +. (a *. Array.unsafe_get p ((2 * j) + 1))
      done;
      Array.unsafe_set into xi0 !re;
      Array.unsafe_set into (xi0 + 1) !im
    end
    else begin
      Array.fill into xi0 w2 0.0;
      for j = j0 to n - 1 do
        let a = Array.unsafe_get hd (base + j) and xj0 = j * w2 in
        for b = 0 to w2 - 1 do
          Array.unsafe_set into (xi0 + b)
            (Array.unsafe_get into (xi0 + b)
            +. (a *. Array.unsafe_get p (xj0 + b)))
        done
      done
    end;
    let gr = gd.(2 * i) and gi = gd.((2 * i) + 1) in
    for b = 0 to w - 1 do
      let er = 2.0 -. Array.unsafe_get coef (4 * b)
      and ei = -.Array.unsafe_get coef ((4 * b) + 1)
      and ar = Array.unsafe_get coef ((4 * b) + 2)
      and ai = Array.unsafe_get coef ((4 * b) + 3) in
      let k = xi0 + (2 * b) in
      let xr = Array.unsafe_get p k and xi = Array.unsafe_get p (k + 1) in
      let sr = Array.unsafe_get into k and si = Array.unsafe_get into (k + 1) in
      Array.unsafe_set into k
        (((er *. xr) -. (ei *. xi)) +. ((ar *. sr) -. (ai *. si)) +. gr);
      Array.unsafe_set into (k + 1)
        (((er *. xi) +. (ei *. xr)) +. ((ar *. si) +. (ai *. sr)) +. gi)
    done
  done;
  hess_solve_in_place t into;
  Scnoise_linalg.Sanitize.check_panel "Ctrapezoid.step_hess" ~width:w into
