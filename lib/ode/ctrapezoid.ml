module Cvec = Scnoise_linalg.Cvec
module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx

module Obs = Scnoise_obs.Obs

(* In the orthogonal basis of a real Schur factorisation A = Z T Zᵀ the
   shifted trapezoid LHS is I - h/2 (T - jwI) = d I - alpha T with
   d = 1 + j wh/2 and alpha = h/2: complex quasi-upper-triangular at
   every frequency, with the 1×1 and 2×2 diagonal blocks of T.  So
   nothing is factored: a run start inverts the n diagonal blocks,
   O(n), and every solve is a back-substitution with real T times a
   complex vector.  The same holds for any complex d and alpha, which
   also serves the rotated monodromy I - e^{-jwT} T_Phi of the periodic
   closure.

   [width] systems share one T and keep their block inverses and states
   column-interleaved with the block column innermost (entry (i, b) at
   2 (i width + b)); a panel step runs every column in one call over
   the shared T, in groups of up to 4 columns whose sums are
   independent chains over each shared entry of T.  Each column's
   operations happen in the same order at every width, so a panel
   column is bitwise the width-1 solve. *)

type quasi = {
  qm : Mat.t;
  pair : bool array; (* pair.(i): rows i and i + 1 form a 2×2 block *)
}

let quasi m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Ctrapezoid.quasi: not square";
  let pair = Array.make n false in
  for i = 1 to n - 1 do
    for j = 0 to i - 2 do
      if Mat.get m i j <> 0.0 then
        invalid_arg "Ctrapezoid.quasi: nonzero below the subdiagonal"
    done;
    if Mat.get m i (i - 1) <> 0.0 then begin
      if i >= 2 && pair.(i - 2) then
        invalid_arg "Ctrapezoid.quasi: adjacent 2x2 blocks overlap";
      pair.(i - 1) <- true
    end
  done;
  { qm = m; pair }

type schur = {
  sn : int;
  sw : int;
  mutable tq : quasi; (* the shared real quasi-triangular T *)
  coef : float array; (* per column: d im, alpha re, alpha im *)
  inv : float array;
      (* per (row i, column b), at 4 (i width + b): two complex numbers —
         1 / (d - alpha t_ii) for a 1×1 block; for a 2×2 block on rows
         s, s + 1, row s holds the inverse's first row and row s + 1 its
         second *)
  q : float array; (* step scratch: p + x on the rows already solved *)
  shifted : bool array; (* per column: started by [schur_start_shifted] *)
}

let c_steps = Obs.counter "ode_steps"

let c_block_steps = Obs.counter "ode_block_steps"

(* what a [schur] points at until its first start *)
let unbound = { qm = Mat.create 0 0; pair = [||] }

let schur_create ~dim ~width =
  if dim < 0 then invalid_arg "Ctrapezoid.schur_create: negative dimension";
  if width < 1 then invalid_arg "Ctrapezoid.schur_create: width < 1";
  {
    sn = dim;
    sw = width;
    tq = unbound;
    coef = Array.make (3 * width) 0.0;
    inv = Array.make (4 * dim * width) 0.0;
    q = Array.make (2 * dim * width) 0.0;
    shifted = Array.make width false;
  }

(* v.(k), v.(k + 1) <- 1 / (pr + j pi), by Complex.div's
   branch-on-magnitude algorithm; inlined, since a non-flambda build
   boxes the float arguments of a call *)
let[@inline] set_recip v k pr pi =
  if abs_float pr >= abs_float pi then begin
    let r = pi /. pr in
    let dd = pr +. (r *. pi) in
    v.(k) <- 1.0 /. dd;
    v.(k + 1) <- -.r /. dd
  end
  else begin
    let r = pr /. pi in
    let dd = pi +. (r *. pr) in
    v.(k) <- r /. dd;
    v.(k + 1) <- -1.0 /. dd
  end

(* x_B <- M_BB^{-1} y_B for a 2×2 block, rows k0 and k1 of the panel,
   with the inverse's rows at m0 and m1 of [inv]; inlined like
   [set_recip] *)
let[@inline] set_pair inv ~m0 ~m1 x ~k0 ~k1 y0r y0i y1r y1i =
  let rr = Array.unsafe_get inv m0 and ri = Array.unsafe_get inv (m0 + 1)
  and sr = Array.unsafe_get inv (m0 + 2) and si = Array.unsafe_get inv (m0 + 3) in
  Array.unsafe_set x k0 (((y0r *. rr) -. (y0i *. ri)) +. ((y1r *. sr) -. (y1i *. si)));
  Array.unsafe_set x (k0 + 1) (((y0r *. ri) +. (y0i *. rr)) +. ((y1r *. si) +. (y1i *. sr)));
  let rr = Array.unsafe_get inv m1 and ri = Array.unsafe_get inv (m1 + 1)
  and sr = Array.unsafe_get inv (m1 + 2) and si = Array.unsafe_get inv (m1 + 3) in
  Array.unsafe_set x k1 (((y0r *. rr) -. (y0i *. ri)) +. ((y1r *. sr) -. (y1i *. si)));
  Array.unsafe_set x (k1 + 1) (((y0r *. ri) +. (y0i *. rr)) +. ((y1r *. si) +. (y1i *. sr)))

(* Both starts: [d = dr + j di], [alpha = ar + j ai] as plain floats,
   inlined into each caller, since a non-flambda build boxes the float
   arguments of a call. *)
let[@inline] start t ~tmat ~col ~shifted dr di ar ai =
  let n = t.sn and w = t.sw in
  if col < 0 || col >= w then invalid_arg "Ctrapezoid.schur_start: bad column";
  if Mat.rows tmat.qm <> n then
    invalid_arg "Ctrapezoid.schur_start: dimension mismatch";
  t.tq <- tmat;
  t.shifted.(col) <- false;
  let td = Mat.data tmat.qm and pair = tmat.pair and inv = t.inv in
  t.coef.(3 * col) <- di;
  t.coef.((3 * col) + 1) <- ar;
  t.coef.((3 * col) + 2) <- ai;
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let k0 = 4 * ((s * w) + col) in
    let a = td.((s * n) + s) in
    let m11r = dr -. (ar *. a) and m11i = di -. (ai *. a) in
    if not pair.(s) then begin
      if m11r = 0.0 && m11i = 0.0 then raise (Scnoise_linalg.Lu.Singular s);
      set_recip inv k0 m11r m11i;
      i := s + 1
    end
    else begin
      let k1 = 4 * (((s + 1) * w) + col) in
      let b = td.((s * n) + s + 1)
      and c = td.(((s + 1) * n) + s)
      and dd = td.(((s + 1) * n) + s + 1) in
      let m12r = -.(ar *. b) and m12i = -.(ai *. b) in
      let m21r = -.(ar *. c) and m21i = -.(ai *. c) in
      let m22r = dr -. (ar *. dd) and m22i = di -. (ai *. dd) in
      let detr = ((m11r *. m22r) -. (m11i *. m22i)) -. ((m12r *. m21r) -. (m12i *. m21i))
      and deti = ((m11r *. m22i) +. (m11i *. m22r)) -. ((m12r *. m21i) +. (m12i *. m21r)) in
      if detr = 0.0 && deti = 0.0 then raise (Scnoise_linalg.Lu.Singular s);
      (* 1 / det into the second row's slot, then the adjugate over it *)
      set_recip inv k1 detr deti;
      let rr = inv.(k1) and ri = inv.(k1 + 1) in
      inv.(k0) <- (m22r *. rr) -. (m22i *. ri);
      inv.(k0 + 1) <- (m22r *. ri) +. (m22i *. rr);
      inv.(k0 + 2) <- -.((m12r *. rr) -. (m12i *. ri));
      inv.(k0 + 3) <- -.((m12r *. ri) +. (m12i *. rr));
      inv.(k1) <- -.((m21r *. rr) -. (m21i *. ri));
      inv.(k1 + 1) <- -.((m21r *. ri) +. (m21i *. rr));
      inv.(k1 + 2) <- (m11r *. rr) -. (m11i *. ri);
      inv.(k1 + 3) <- (m11r *. ri) +. (m11i *. rr);
      i := s + 2
    end
  done;
  t.shifted.(col) <- shifted

let schur_start t ~tmat ~col ~d ~alpha =
  start t ~tmat ~col ~shifted:false d.Cx.re d.Cx.im alpha.Cx.re alpha.Cx.im

let schur_start_shifted t ~tmat ~h ~col ~omega =
  if h <= 0.0 then invalid_arg "Ctrapezoid.schur_start_shifted: h <= 0";
  let w = 0.5 *. h in
  start t ~tmat ~col ~shifted:true 1.0 (w *. omega) w 0.0

(* Columns run in groups of 4, then 2, then the last one alone: a group
   reads each entry of T once for all its columns and keeps one
   accumulator pair per column and row, so its sums are independent
   chains rather than one chain per row.  Each column's sums still
   start from +0.0 and add the same products in ascending j, so a
   column is bitwise its width-1 solve, which is the tail of the same
   loop.  The group bodies are written out and each column is finished
   by an inlined function: a non-flambda build boxes the float
   arguments of a call it does not inline. *)

(* column [b]'s 1×1 block on row [s] of a solve, from its sums *)
let[@inline] solve_row t x ~s ~b s0r s0i =
  let coef = t.coef and inv = t.inv and m = (s * t.sw) + b in
  let ar = Array.unsafe_get coef ((3 * b) + 1)
  and ai = Array.unsafe_get coef ((3 * b) + 2) in
  let k0 = 2 * m and m0 = 4 * m in
  let y0r = Array.unsafe_get x k0 +. ((ar *. s0r) -. (ai *. s0i))
  and y0i = Array.unsafe_get x (k0 + 1) +. ((ar *. s0i) +. (ai *. s0r)) in
  let rr = Array.unsafe_get inv m0 and ri = Array.unsafe_get inv (m0 + 1) in
  Array.unsafe_set x k0 ((y0r *. rr) -. (y0i *. ri));
  Array.unsafe_set x (k0 + 1) ((y0r *. ri) +. (y0i *. rr))

(* the same for the 2×2 block on rows [s] and [e] *)
let[@inline] solve_pair t x ~s ~e ~b s0r s0i s1r s1i =
  let coef = t.coef in
  let ar = Array.unsafe_get coef ((3 * b) + 1)
  and ai = Array.unsafe_get coef ((3 * b) + 2) in
  let k0 = 2 * ((s * t.sw) + b) and k1 = 2 * ((e * t.sw) + b) in
  let y0r = Array.unsafe_get x k0 +. ((ar *. s0r) -. (ai *. s0i))
  and y0i = Array.unsafe_get x (k0 + 1) +. ((ar *. s0i) +. (ai *. s0r))
  and y1r = Array.unsafe_get x k1 +. ((ar *. s1r) -. (ai *. s1i))
  and y1i = Array.unsafe_get x (k1 + 1) +. ((ar *. s1i) +. (ai *. s1r)) in
  set_pair t.inv ~m0:(2 * k0) ~m1:(2 * k1) x ~k0 ~k1 y0r y0i y1r y1i

(* Back-substitution over T's diagonal blocks, bottom up: for column b
   and the block [s .. e] (e = s or s + 1), y_B = x_B + alpha sum_{j > e}
   T_Bj x_j and x_B = M_BB^{-1} y_B. *)
let solve_back t x =
  let n = t.sn and w = t.sw in
  if Mat.rows t.tq.qm <> n then
    invalid_arg "Ctrapezoid: solve before schur_start bound a matrix";
  let td = Mat.data t.tq.qm and pair = t.tq.pair and w2 = 2 * w in
  let e = ref (n - 1) in
  while !e >= 0 do
    let e' = !e in
    let s = if e' >= 1 && pair.(e' - 1) then e' - 1 else e' in
    let r0 = s * n and r1 = e' * n in
    let b = ref 0 in
    if s = e' then begin
      while !b + 4 <= w do
        let c = !b in
        let s0r = ref 0.0 and s0i = ref 0.0 and s1r = ref 0.0 and s1i = ref 0.0
        and s2r = ref 0.0 and s2i = ref 0.0 and s3r = ref 0.0 and s3i = ref 0.0 in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a = Array.unsafe_get td (r0 + j) in
          s0r := !s0r +. (a *. Array.unsafe_get x kj);
          s0i := !s0i +. (a *. Array.unsafe_get x (kj + 1));
          s1r := !s1r +. (a *. Array.unsafe_get x (kj + 2));
          s1i := !s1i +. (a *. Array.unsafe_get x (kj + 3));
          s2r := !s2r +. (a *. Array.unsafe_get x (kj + 4));
          s2i := !s2i +. (a *. Array.unsafe_get x (kj + 5));
          s3r := !s3r +. (a *. Array.unsafe_get x (kj + 6));
          s3i := !s3i +. (a *. Array.unsafe_get x (kj + 7))
        done;
        solve_row t x ~s ~b:c !s0r !s0i;
        solve_row t x ~s ~b:(c + 1) !s1r !s1i;
        solve_row t x ~s ~b:(c + 2) !s2r !s2i;
        solve_row t x ~s ~b:(c + 3) !s3r !s3i;
        b := c + 4
      done;
      if !b + 2 <= w then begin
        let c = !b in
        let s0r = ref 0.0 and s0i = ref 0.0 and s1r = ref 0.0 and s1i = ref 0.0 in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a = Array.unsafe_get td (r0 + j) in
          s0r := !s0r +. (a *. Array.unsafe_get x kj);
          s0i := !s0i +. (a *. Array.unsafe_get x (kj + 1));
          s1r := !s1r +. (a *. Array.unsafe_get x (kj + 2));
          s1i := !s1i +. (a *. Array.unsafe_get x (kj + 3))
        done;
        solve_row t x ~s ~b:c !s0r !s0i;
        solve_row t x ~s ~b:(c + 1) !s1r !s1i;
        b := c + 2
      end;
      if !b < w then begin
        let c = !b in
        let s0r = ref 0.0 and s0i = ref 0.0 in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a = Array.unsafe_get td (r0 + j) in
          s0r := !s0r +. (a *. Array.unsafe_get x kj);
          s0i := !s0i +. (a *. Array.unsafe_get x (kj + 1))
        done;
        solve_row t x ~s ~b:c !s0r !s0i
      end
    end
    else begin
      while !b + 4 <= w do
        let c = !b in
        let t0r = ref 0.0 and t0i = ref 0.0 and u0r = ref 0.0 and u0i = ref 0.0
        and t1r = ref 0.0 and t1i = ref 0.0 and u1r = ref 0.0 and u1i = ref 0.0
        and t2r = ref 0.0 and t2i = ref 0.0 and u2r = ref 0.0 and u2i = ref 0.0
        and t3r = ref 0.0 and t3i = ref 0.0 and u3r = ref 0.0 and u3i = ref 0.0 in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a0 = Array.unsafe_get td (r0 + j)
          and a1 = Array.unsafe_get td (r1 + j) in
          let vr = Array.unsafe_get x kj and vi = Array.unsafe_get x (kj + 1) in
          t0r := !t0r +. (a0 *. vr);
          t0i := !t0i +. (a0 *. vi);
          u0r := !u0r +. (a1 *. vr);
          u0i := !u0i +. (a1 *. vi);
          let vr = Array.unsafe_get x (kj + 2) and vi = Array.unsafe_get x (kj + 3) in
          t1r := !t1r +. (a0 *. vr);
          t1i := !t1i +. (a0 *. vi);
          u1r := !u1r +. (a1 *. vr);
          u1i := !u1i +. (a1 *. vi);
          let vr = Array.unsafe_get x (kj + 4) and vi = Array.unsafe_get x (kj + 5) in
          t2r := !t2r +. (a0 *. vr);
          t2i := !t2i +. (a0 *. vi);
          u2r := !u2r +. (a1 *. vr);
          u2i := !u2i +. (a1 *. vi);
          let vr = Array.unsafe_get x (kj + 6) and vi = Array.unsafe_get x (kj + 7) in
          t3r := !t3r +. (a0 *. vr);
          t3i := !t3i +. (a0 *. vi);
          u3r := !u3r +. (a1 *. vr);
          u3i := !u3i +. (a1 *. vi)
        done;
        solve_pair t x ~s ~e:e' ~b:c !t0r !t0i !u0r !u0i;
        solve_pair t x ~s ~e:e' ~b:(c + 1) !t1r !t1i !u1r !u1i;
        solve_pair t x ~s ~e:e' ~b:(c + 2) !t2r !t2i !u2r !u2i;
        solve_pair t x ~s ~e:e' ~b:(c + 3) !t3r !t3i !u3r !u3i;
        b := c + 4
      done;
      if !b + 2 <= w then begin
        let c = !b in
        let t0r = ref 0.0 and t0i = ref 0.0 and u0r = ref 0.0 and u0i = ref 0.0
        and t1r = ref 0.0 and t1i = ref 0.0 and u1r = ref 0.0 and u1i = ref 0.0 in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a0 = Array.unsafe_get td (r0 + j)
          and a1 = Array.unsafe_get td (r1 + j) in
          let vr = Array.unsafe_get x kj and vi = Array.unsafe_get x (kj + 1) in
          t0r := !t0r +. (a0 *. vr);
          t0i := !t0i +. (a0 *. vi);
          u0r := !u0r +. (a1 *. vr);
          u0i := !u0i +. (a1 *. vi);
          let vr = Array.unsafe_get x (kj + 2) and vi = Array.unsafe_get x (kj + 3) in
          t1r := !t1r +. (a0 *. vr);
          t1i := !t1i +. (a0 *. vi);
          u1r := !u1r +. (a1 *. vr);
          u1i := !u1i +. (a1 *. vi)
        done;
        solve_pair t x ~s ~e:e' ~b:c !t0r !t0i !u0r !u0i;
        solve_pair t x ~s ~e:e' ~b:(c + 1) !t1r !t1i !u1r !u1i;
        b := c + 2
      end;
      if !b < w then begin
        let c = !b in
        let t0r = ref 0.0 and t0i = ref 0.0 and u0r = ref 0.0 and u0i = ref 0.0 in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a0 = Array.unsafe_get td (r0 + j)
          and a1 = Array.unsafe_get td (r1 + j) in
          let vr = Array.unsafe_get x kj and vi = Array.unsafe_get x (kj + 1) in
          t0r := !t0r +. (a0 *. vr);
          t0i := !t0i +. (a0 *. vi);
          u0r := !u0r +. (a1 *. vr);
          u0i := !u0i +. (a1 *. vi)
        done;
        solve_pair t x ~s ~e:e' ~b:c !t0r !t0i !u0r !u0i
      end
    end;
    e := s - 1
  done

let schur_solve_in_place t x =
  if Array.length x <> 2 * t.sn * t.sw then
    invalid_arg "Ctrapezoid.schur_solve_in_place: panel dimension mismatch";
  solve_back t x

(* The trapezoid step of a shifted column, d = 1 + j di and real
   alpha = ar:

     y_B = (1 - j di) p_B + g_B + ar (T_BB p_B + sum_{j > e} T_Bj (p_j + x_j))

   which is the general (2 - d) p + alpha (...) + g with Re (2 - d) = 1.0
   and Im alpha = +0.0 left out: 1.0 x is x, and the dropped +-0.0
   terms leave ar s as it is unless ar s is -0.0.  Each sum s starts
   from +0.0, so it is never -0.0, and ar > 0: ar s is -0.0 only where
   it underflows.  A step thus reads T once for both of its products,
   on p + x of the rows already solved (kept in [q]). *)

(* column [b]'s 1×1 block on row [s] of a step, from its sum *)
let[@inline] step_row t ~p ~x ~s ~b g0r g0i s0r s0i =
  let coef = t.coef and inv = t.inv and v = t.q and m = (s * t.sw) + b in
  let ei = -.Array.unsafe_get coef (3 * b)
  and ar = Array.unsafe_get coef ((3 * b) + 1) in
  let k0 = 2 * m and m0 = 4 * m in
  let xr = Array.unsafe_get p k0 and xi = Array.unsafe_get p (k0 + 1) in
  let y0r = ((xr -. (ei *. xi)) +. (ar *. s0r)) +. g0r
  and y0i = ((xi +. (ei *. xr)) +. (ar *. s0i)) +. g0i in
  let rr = Array.unsafe_get inv m0 and ri = Array.unsafe_get inv (m0 + 1) in
  let x0r = (y0r *. rr) -. (y0i *. ri) and x0i = (y0r *. ri) +. (y0i *. rr) in
  Array.unsafe_set x k0 x0r;
  Array.unsafe_set x (k0 + 1) x0i;
  Array.unsafe_set v k0 (xr +. x0r);
  Array.unsafe_set v (k0 + 1) (xi +. x0i)

(* the same for the 2×2 block on rows [s] and [e] *)
let[@inline] step_pair t ~p ~x ~s ~e ~b g0r g0i g1r g1i s0r s0i s1r s1i =
  let coef = t.coef and v = t.q in
  let ei = -.Array.unsafe_get coef (3 * b)
  and ar = Array.unsafe_get coef ((3 * b) + 1) in
  let k0 = 2 * ((s * t.sw) + b) and k1 = 2 * ((e * t.sw) + b) in
  let p0r = Array.unsafe_get p k0 and p0i = Array.unsafe_get p (k0 + 1)
  and p1r = Array.unsafe_get p k1 and p1i = Array.unsafe_get p (k1 + 1) in
  let y0r = ((p0r -. (ei *. p0i)) +. (ar *. s0r)) +. g0r
  and y0i = ((p0i +. (ei *. p0r)) +. (ar *. s0i)) +. g0i
  and y1r = ((p1r -. (ei *. p1i)) +. (ar *. s1r)) +. g1r
  and y1i = ((p1i +. (ei *. p1r)) +. (ar *. s1i)) +. g1i in
  set_pair t.inv ~m0:(2 * k0) ~m1:(2 * k1) x ~k0 ~k1 y0r y0i y1r y1i;
  Array.unsafe_set v k0 (p0r +. Array.unsafe_get x k0);
  Array.unsafe_set v (k0 + 1) (p0i +. Array.unsafe_get x (k0 + 1));
  Array.unsafe_set v k1 (p1r +. Array.unsafe_get x k1);
  Array.unsafe_set v (k1 + 1) (p1i +. Array.unsafe_get x (k1 + 1))

let step_back t ~p ~g ~x =
  let n = t.sn and w = t.sw in
  let td = Mat.data t.tq.qm and pair = t.tq.pair in
  let v = t.q and w2 = 2 * w in
  let e = ref (n - 1) in
  while !e >= 0 do
    let e' = !e in
    let s = if e' >= 1 && pair.(e' - 1) then e' - 1 else e' in
    let r0 = s * n and r1 = e' * n in
    let g0r = Array.unsafe_get g (2 * s)
    and g0i = Array.unsafe_get g ((2 * s) + 1) in
    let b = ref 0 in
    if s = e' then begin
      let a0 = Array.unsafe_get td (r0 + s) in
      while !b + 4 <= w do
        let c = !b in
        let k0 = (s * w2) + (2 * c) in
        let s0r = ref (0.0 +. (a0 *. Array.unsafe_get p k0))
        and s0i = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 1)))
        and s1r = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 2)))
        and s1i = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 3)))
        and s2r = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 4)))
        and s2i = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 5)))
        and s3r = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 6)))
        and s3i = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 7))) in
        for j = s + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a = Array.unsafe_get td (r0 + j) in
          s0r := !s0r +. (a *. Array.unsafe_get v kj);
          s0i := !s0i +. (a *. Array.unsafe_get v (kj + 1));
          s1r := !s1r +. (a *. Array.unsafe_get v (kj + 2));
          s1i := !s1i +. (a *. Array.unsafe_get v (kj + 3));
          s2r := !s2r +. (a *. Array.unsafe_get v (kj + 4));
          s2i := !s2i +. (a *. Array.unsafe_get v (kj + 5));
          s3r := !s3r +. (a *. Array.unsafe_get v (kj + 6));
          s3i := !s3i +. (a *. Array.unsafe_get v (kj + 7))
        done;
        step_row t ~p ~x ~s ~b:c g0r g0i !s0r !s0i;
        step_row t ~p ~x ~s ~b:(c + 1) g0r g0i !s1r !s1i;
        step_row t ~p ~x ~s ~b:(c + 2) g0r g0i !s2r !s2i;
        step_row t ~p ~x ~s ~b:(c + 3) g0r g0i !s3r !s3i;
        b := c + 4
      done;
      if !b + 2 <= w then begin
        let c = !b in
        let k0 = (s * w2) + (2 * c) in
        let s0r = ref (0.0 +. (a0 *. Array.unsafe_get p k0))
        and s0i = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 1)))
        and s1r = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 2)))
        and s1i = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 3))) in
        for j = s + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a = Array.unsafe_get td (r0 + j) in
          s0r := !s0r +. (a *. Array.unsafe_get v kj);
          s0i := !s0i +. (a *. Array.unsafe_get v (kj + 1));
          s1r := !s1r +. (a *. Array.unsafe_get v (kj + 2));
          s1i := !s1i +. (a *. Array.unsafe_get v (kj + 3))
        done;
        step_row t ~p ~x ~s ~b:c g0r g0i !s0r !s0i;
        step_row t ~p ~x ~s ~b:(c + 1) g0r g0i !s1r !s1i;
        b := c + 2
      end;
      if !b < w then begin
        let c = !b in
        let k0 = (s * w2) + (2 * c) in
        let s0r = ref (0.0 +. (a0 *. Array.unsafe_get p k0))
        and s0i = ref (0.0 +. (a0 *. Array.unsafe_get p (k0 + 1))) in
        for j = s + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a = Array.unsafe_get td (r0 + j) in
          s0r := !s0r +. (a *. Array.unsafe_get v kj);
          s0i := !s0i +. (a *. Array.unsafe_get v (kj + 1))
        done;
        step_row t ~p ~x ~s ~b:c g0r g0i !s0r !s0i
      end
    end
    else begin
      let g1r = Array.unsafe_get g (2 * e')
      and g1i = Array.unsafe_get g ((2 * e') + 1) in
      let a00 = Array.unsafe_get td (r0 + s)
      and a01 = Array.unsafe_get td (r0 + e')
      and a10 = Array.unsafe_get td (r1 + s)
      and a11 = Array.unsafe_get td (r1 + e') in
      (* row [s]'s sums t, row [e]'s u, from T_BB p_B *)
      while !b + 4 <= w do
        let c = !b in
        let k0 = (s * w2) + (2 * c) and k1 = (e' * w2) + (2 * c) in
        let t0r = ref ((0.0 +. (a00 *. Array.unsafe_get p k0)) +. (a01 *. Array.unsafe_get p k1))
        and t0i = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 1))) +. (a01 *. Array.unsafe_get p (k1 + 1)))
        and u0r = ref ((0.0 +. (a10 *. Array.unsafe_get p k0)) +. (a11 *. Array.unsafe_get p k1))
        and u0i = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 1))) +. (a11 *. Array.unsafe_get p (k1 + 1)))
        and t1r = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 2))) +. (a01 *. Array.unsafe_get p (k1 + 2)))
        and t1i = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 3))) +. (a01 *. Array.unsafe_get p (k1 + 3)))
        and u1r = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 2))) +. (a11 *. Array.unsafe_get p (k1 + 2)))
        and u1i = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 3))) +. (a11 *. Array.unsafe_get p (k1 + 3)))
        and t2r = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 4))) +. (a01 *. Array.unsafe_get p (k1 + 4)))
        and t2i = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 5))) +. (a01 *. Array.unsafe_get p (k1 + 5)))
        and u2r = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 4))) +. (a11 *. Array.unsafe_get p (k1 + 4)))
        and u2i = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 5))) +. (a11 *. Array.unsafe_get p (k1 + 5)))
        and t3r = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 6))) +. (a01 *. Array.unsafe_get p (k1 + 6)))
        and t3i = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 7))) +. (a01 *. Array.unsafe_get p (k1 + 7)))
        and u3r = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 6))) +. (a11 *. Array.unsafe_get p (k1 + 6)))
        and u3i = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 7))) +. (a11 *. Array.unsafe_get p (k1 + 7))) in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a0 = Array.unsafe_get td (r0 + j)
          and a1 = Array.unsafe_get td (r1 + j) in
          let vr = Array.unsafe_get v kj and vi = Array.unsafe_get v (kj + 1) in
          t0r := !t0r +. (a0 *. vr);
          t0i := !t0i +. (a0 *. vi);
          u0r := !u0r +. (a1 *. vr);
          u0i := !u0i +. (a1 *. vi);
          let vr = Array.unsafe_get v (kj + 2) and vi = Array.unsafe_get v (kj + 3) in
          t1r := !t1r +. (a0 *. vr);
          t1i := !t1i +. (a0 *. vi);
          u1r := !u1r +. (a1 *. vr);
          u1i := !u1i +. (a1 *. vi);
          let vr = Array.unsafe_get v (kj + 4) and vi = Array.unsafe_get v (kj + 5) in
          t2r := !t2r +. (a0 *. vr);
          t2i := !t2i +. (a0 *. vi);
          u2r := !u2r +. (a1 *. vr);
          u2i := !u2i +. (a1 *. vi);
          let vr = Array.unsafe_get v (kj + 6) and vi = Array.unsafe_get v (kj + 7) in
          t3r := !t3r +. (a0 *. vr);
          t3i := !t3i +. (a0 *. vi);
          u3r := !u3r +. (a1 *. vr);
          u3i := !u3i +. (a1 *. vi)
        done;
        step_pair t ~p ~x ~s ~e:e' ~b:c g0r g0i g1r g1i !t0r !t0i !u0r !u0i;
        step_pair t ~p ~x ~s ~e:e' ~b:(c + 1) g0r g0i g1r g1i !t1r !t1i !u1r !u1i;
        step_pair t ~p ~x ~s ~e:e' ~b:(c + 2) g0r g0i g1r g1i !t2r !t2i !u2r !u2i;
        step_pair t ~p ~x ~s ~e:e' ~b:(c + 3) g0r g0i g1r g1i !t3r !t3i !u3r !u3i;
        b := c + 4
      done;
      if !b + 2 <= w then begin
        let c = !b in
        let k0 = (s * w2) + (2 * c) and k1 = (e' * w2) + (2 * c) in
        let t0r = ref ((0.0 +. (a00 *. Array.unsafe_get p k0)) +. (a01 *. Array.unsafe_get p k1))
        and t0i = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 1))) +. (a01 *. Array.unsafe_get p (k1 + 1)))
        and u0r = ref ((0.0 +. (a10 *. Array.unsafe_get p k0)) +. (a11 *. Array.unsafe_get p k1))
        and u0i = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 1))) +. (a11 *. Array.unsafe_get p (k1 + 1)))
        and t1r = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 2))) +. (a01 *. Array.unsafe_get p (k1 + 2)))
        and t1i = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 3))) +. (a01 *. Array.unsafe_get p (k1 + 3)))
        and u1r = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 2))) +. (a11 *. Array.unsafe_get p (k1 + 2)))
        and u1i = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 3))) +. (a11 *. Array.unsafe_get p (k1 + 3))) in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a0 = Array.unsafe_get td (r0 + j)
          and a1 = Array.unsafe_get td (r1 + j) in
          let vr = Array.unsafe_get v kj and vi = Array.unsafe_get v (kj + 1) in
          t0r := !t0r +. (a0 *. vr);
          t0i := !t0i +. (a0 *. vi);
          u0r := !u0r +. (a1 *. vr);
          u0i := !u0i +. (a1 *. vi);
          let vr = Array.unsafe_get v (kj + 2) and vi = Array.unsafe_get v (kj + 3) in
          t1r := !t1r +. (a0 *. vr);
          t1i := !t1i +. (a0 *. vi);
          u1r := !u1r +. (a1 *. vr);
          u1i := !u1i +. (a1 *. vi)
        done;
        step_pair t ~p ~x ~s ~e:e' ~b:c g0r g0i g1r g1i !t0r !t0i !u0r !u0i;
        step_pair t ~p ~x ~s ~e:e' ~b:(c + 1) g0r g0i g1r g1i !t1r !t1i !u1r !u1i;
        b := c + 2
      end;
      if !b < w then begin
        let c = !b in
        let k0 = (s * w2) + (2 * c) and k1 = (e' * w2) + (2 * c) in
        let t0r = ref ((0.0 +. (a00 *. Array.unsafe_get p k0)) +. (a01 *. Array.unsafe_get p k1))
        and t0i = ref ((0.0 +. (a00 *. Array.unsafe_get p (k0 + 1))) +. (a01 *. Array.unsafe_get p (k1 + 1)))
        and u0r = ref ((0.0 +. (a10 *. Array.unsafe_get p k0)) +. (a11 *. Array.unsafe_get p k1))
        and u0i = ref ((0.0 +. (a10 *. Array.unsafe_get p (k0 + 1))) +. (a11 *. Array.unsafe_get p (k1 + 1))) in
        for j = e' + 1 to n - 1 do
          let kj = (j * w2) + (2 * c) in
          let a0 = Array.unsafe_get td (r0 + j)
          and a1 = Array.unsafe_get td (r1 + j) in
          let vr = Array.unsafe_get v kj and vi = Array.unsafe_get v (kj + 1) in
          t0r := !t0r +. (a0 *. vr);
          t0i := !t0i +. (a0 *. vi);
          u0r := !u0r +. (a1 *. vr);
          u0i := !u0i +. (a1 *. vi)
        done;
        step_pair t ~p ~x ~s ~e:e' ~b:c g0r g0i g1r g1i !t0r !t0i !u0r !u0i
      end
    end;
    e := s - 1
  done

(* One trapezoid step of every column, M_b x_b = (2 - d_b) p_b +
   alpha_b T p_b + g, by back-substitution. *)
let step_schur_into t ~g ~p ~into =
  let n = t.sn and w = t.sw in
  if Array.length p <> 2 * n * w || Array.length into <> 2 * n * w then
    invalid_arg "Ctrapezoid.step_schur_into: panel dimension mismatch";
  if Cvec.dim g <> n then
    invalid_arg "Ctrapezoid.step_schur_into: forcing dimension mismatch";
  if p == into then
    invalid_arg "Ctrapezoid.step_schur_into: output must not alias p";
  for b = 0 to w - 1 do
    if not t.shifted.(b) then
      invalid_arg "Ctrapezoid.step_schur_into: a column not started shifted"
  done;
  Obs.add c_steps w;
  if w > 1 then Obs.incr c_block_steps;
  step_back t ~p ~g:(Cvec.data g) ~x:into;
  Scnoise_linalg.Sanitize.check_panel "Ctrapezoid.step_schur" ~width:w into
