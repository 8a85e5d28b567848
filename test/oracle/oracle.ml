(* Straightforward references for the library's optimised paths.  Each
   shares none of the economics of the path it checks: no operator
   memo, no run doubling, no zero-span bounds. *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Cvec = Scnoise_linalg.Cvec
module Lu = Scnoise_linalg.Lu
module Vanloan = Scnoise_linalg.Vanloan
module Expm = Scnoise_linalg.Expm
module Pwl = Scnoise_circuit.Pwl
module Covariance = Scnoise_core.Covariance
module Phase_grid = Scnoise_core.Phase_grid

(* Equal lengths and equal [Int64.bits_of_float] entry by entry, so a
   reordered sum, a fused multiply-add or a lost signed zero differs. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The i-k-j product loop [Mat.mul] replaced, over the row-major data:
   bounds-checked, c += a_ik b_kj for ascending k, skipping a_ik = 0.
   EXP-K2 times it as the GEMM reference. *)
let gemm a b =
  let m = Mat.rows a and p = Mat.cols a and n = Mat.cols b in
  let ad = Mat.data a and bd = Mat.data b in
  let c = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for k = 0 to p - 1 do
      let aik = ad.((i * p) + k) in
      if aik <> 0.0 then begin
        let brow = k * n and crow = i * n in
        for j = 0 to n - 1 do
          c.(crow + j) <- c.(crow + j) +. (aik *. bd.(brow + j))
        done
      end
    done
  done;
  c

(* [gemm] as a matrix. *)
let gemm_mat a b =
  let n = Mat.cols b in
  let c = gemm a b in
  Mat.init (Mat.rows a) n (fun i j -> c.((i * n) + j))

(* The order-13 Padé system [Expm.pade13] replaced, composed from whole
   matrices: the scaled operand, an identity, [Mat.scale]/[Mat.add]/
   [Mat.sub] temporaries and [gemm] products.  The constants are
   Higham's (2005), written out again so that a changed coefficient in
   the library shows. *)
let pade13 a =
  let theta13 = 5.371920351148152
  and b =
    [| 64764752532480000.0; 32382376266240000.0; 7771770303897600.0;
       1187353796428800.0; 129060195264000.0; 10559470521600.0;
       670442572800.0; 33522128640.0; 1323241920.0; 40840800.0; 960960.0;
       16380.0; 182.0; 1.0 |]
  in
  let n = Mat.rows a in
  let norm = Mat.norm_inf a in
  let s =
    if norm <= theta13 then 0
    else int_of_float (ceil (log (norm /. theta13) /. log 2.0))
  in
  let s = max s 0 in
  let a = Mat.scale (1.0 /. (2.0 ** float_of_int s)) a in
  let mul = gemm_mat in
  let ident = Mat.identity n in
  let a2 = mul a a in
  let a4 = mul a2 a2 in
  let a6 = mul a2 a4 in
  let u_inner =
    Mat.add
      (mul a6
         (Mat.add
            (Mat.add (Mat.scale b.(13) a6) (Mat.scale b.(11) a4))
            (Mat.scale b.(9) a2)))
      (Mat.add
         (Mat.add (Mat.scale b.(7) a6) (Mat.scale b.(5) a4))
         (Mat.add (Mat.scale b.(3) a2) (Mat.scale b.(1) ident)))
  in
  let u = mul a u_inner in
  let v =
    Mat.add
      (mul a6
         (Mat.add
            (Mat.add (Mat.scale b.(12) a6) (Mat.scale b.(10) a4))
            (Mat.scale b.(8) a2)))
      (Mat.add
         (Mat.add (Mat.scale b.(6) a6) (Mat.scale b.(4) a4))
         (Mat.add (Mat.scale b.(2) a2) (Mat.scale b.(0) ident)))
  in
  { Expm.lhs = Mat.sub v u; rhs = Mat.add v u; squarings = s }

(* The Van Loan matrix M = [[-A, Q], [0, Aᵀ]] tau, assembled at 2n. *)
let augmented ~a ~q ~tau =
  let n = Mat.rows a in
  let n2 = 2 * n in
  let m = Mat.create n2 n2 in
  let md = Mat.data m and ad = Mat.data a and qs = Mat.data q in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      md.((i * n2) + j) <- -.tau *. ad.((i * n) + j);
      md.((i * n2) + n + j) <- tau *. qs.((i * n) + j);
      md.(((n + i) * n2) + n + j) <- tau *. ad.((j * n) + i)
    done
  done;
  m

(* One augmented step by the 2n composition [Vanloan] replaced:
   [Expm.expm] of the assembled M, then F12 and F22 read out of it,
   Phi = F22ᵀ and Qd = sym (Phi F12). *)
let vanloan_step ~a ~q ~tau =
  let n = Mat.rows a in
  if tau = 0.0 then { Vanloan.phi = Mat.identity n; qd = Mat.create n n }
  else begin
    let n2 = 2 * n in
    let f = Expm.expm (augmented ~a ~q ~tau) in
    let fd = Mat.data f in
    let f12 = Mat.init n n (fun i j -> fd.((i * n2) + n + j))
    and phi = Mat.init n n (fun i j -> fd.(((n + j) * n2) + n + i)) in
    { Vanloan.phi; qd = Mat.symmetrize (Mat.mul phi f12) }
  end

(* [Vanloan.discretize] with each augmented exponential taken by the 2n
   composition: above the stiffness threshold, the same sub-step
   composed by [Vanloan.repeat]. *)
let vanloan ~a ~q ~tau =
  let stiffness = Mat.norm_inf a *. tau in
  if stiffness <= Vanloan.stiff_threshold then vanloan_step ~a ~q ~tau
  else
    let chunks = int_of_float (ceil (stiffness /. Vanloan.stiff_threshold)) in
    Vanloan.repeat
      (vanloan_step ~a ~q ~tau:(tau /. float_of_int chunks))
      chunks

(* The Householder reduction to Hessenberg form that [Eig.hessenberg]
   replaced, on a [float array array] with the textbook column loop:
   the left update forms each column's s_j = sum_i v_i a_ij and updates
   that column before the next.  Returns (H, U) with A = U H Uᵀ. *)
let hessenberg m =
  let n = Mat.rows m in
  let a = Mat.to_arrays m and u = Mat.to_arrays (Mat.identity n) in
  for k = 0 to n - 3 do
    let alpha = ref 0.0 in
    for i = k + 1 to n - 1 do
      alpha := !alpha +. (a.(i).(k) *. a.(i).(k))
    done;
    let alpha = sqrt !alpha in
    if alpha > 0.0 then begin
      let alpha = if a.(k + 1).(k) > 0.0 then -.alpha else alpha in
      let v = Array.make n 0.0 in
      v.(k + 1) <- a.(k + 1).(k) -. alpha;
      for i = k + 2 to n - 1 do
        v.(i) <- a.(i).(k)
      done;
      let vnorm2 = ref 0.0 in
      for i = k + 1 to n - 1 do
        vnorm2 := !vnorm2 +. (v.(i) *. v.(i))
      done;
      if !vnorm2 > 0.0 then begin
        let beta = 2.0 /. !vnorm2 in
        (* A <- (I - beta v vᵀ) A *)
        for j = 0 to n - 1 do
          let s = ref 0.0 in
          for i = k + 1 to n - 1 do
            s := !s +. (v.(i) *. a.(i).(j))
          done;
          let s = beta *. !s in
          for i = k + 1 to n - 1 do
            a.(i).(j) <- a.(i).(j) -. (s *. v.(i))
          done
        done;
        (* X <- X (I - beta v vᵀ) for X = A, U *)
        List.iter
          (fun x ->
            for i = 0 to n - 1 do
              let s = ref 0.0 in
              for j = k + 1 to n - 1 do
                s := !s +. (x.(i).(j) *. v.(j))
              done;
              let s = beta *. !s in
              for j = k + 1 to n - 1 do
                x.(i).(j) <- x.(i).(j) -. (s *. v.(j))
              done
            done)
          [ a; u ]
      end
    end;
    for i = k + 2 to n - 1 do
      a.(i).(k) <- 0.0
    done
  done;
  let mat x = Mat.init n n (fun i j -> x.(i).(j)) in
  (mat a, mat u)

(* The right-looking LU elimination [Lu.factor] ran before its rows
   were grouped, on a copy of the row-major data: partial pivoting on
   the first largest magnitude, then, row by row below the pivot, the
   multiplier [f = l_ik / u_kk] and, when [f <> 0], [l_ij -. f *. u_kj]
   for every [j > k].  [Ok (lu, piv, sign)], or [Error k] at the first
   column [k] with no nonzero pivot candidate. *)
let lu_factor m =
  let n = Mat.rows m in
  let lu = Array.copy (Mat.data m) in
  let piv = Array.init n Fun.id and sign = ref 1.0 in
  let rec column k =
    if k = n then Ok (lu, piv, !sign)
    else begin
      let pmax = ref (abs_float lu.((k * n) + k)) and prow = ref k in
      for i = k + 1 to n - 1 do
        let v = abs_float lu.((i * n) + k) in
        if v > !pmax then begin
          pmax := v;
          prow := i
        end
      done;
      if !pmax = 0.0 then Error k
      else begin
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
            let ri = i * n and rk = k * n in
            for j = k + 1 to n - 1 do
              Array.unsafe_set lu (ri + j)
                (Array.unsafe_get lu (ri + j)
                -. (f *. Array.unsafe_get lu (rk + j)))
            done
          end
        done;
        column (k + 1)
      end
    end
  in
  column 0

(* The sampling grid over one period and, per interval, its phase and
   exact step. *)
let covariance_grid ~samples_per_phase (sys : Pwl.t) =
  let times = ref [ 0.0 ] and steps = ref [] and offset = ref 0.0 in
  Array.iteri
    (fun p (ph : Pwl.phase) ->
      let local =
        Phase_grid.make ~a:ph.Pwl.a ~tau:ph.Pwl.tau ~n:samples_per_phase
      in
      for j = 1 to Array.length local - 1 do
        times := (!offset +. local.(j)) :: !times;
        steps := (p, local.(j) -. local.(j - 1)) :: !steps
      done;
      offset := !offset +. ph.Pwl.tau)
    sys.Pwl.phases;
  (Array.of_list (List.rev !times), Array.of_list (List.rev !steps))

(* The per-interval covariance recurrence: one [Vanloan.discretize] per
   interval with exact step bits, the period map stepped one interval
   at a time and the fixed point by [steady] (default: the Kron solve).
   The record's operators are the per-interval ones, each its own run
   of one, so its trace unrolls over them one interval at a time. *)
let covariance ?(steady = Kron.solve_discrete) ~samples_per_phase
    (sys : Pwl.t) =
  let n = sys.Pwl.nstates in
  let times, steps = covariance_grid ~samples_per_phase sys in
  let disc =
    Array.map
      (fun (p, h) ->
        let ph = sys.Pwl.phases.(p) in
        Vanloan.discretize ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau:h)
      steps
  in
  let npts = Array.length times in
  let phis = Array.make npts (Mat.identity n) in
  let q = ref (Mat.create n n) in
  Array.iteri
    (fun i (d : Vanloan.t) ->
      phis.(i + 1) <- Mat.mul d.Vanloan.phi phis.(i);
      q := Vanloan.propagate d !q)
    disc;
  let phi_period = phis.(npts - 1) in
  let k0 = steady phi_period !q in
  {
    Covariance.sys;
    times;
    interval_phase = Array.map fst steps;
    ops = disc;
    interval_op = Array.init (Array.length disc) Fun.id;
    runs =
      Array.init (Array.length disc) (fun i ->
          { Covariance.first = i; len = 1; map = None });
    k0;
    phi_period;
    q_period = !q;
    peak_rank = n;
  }

(* The dense per-interval recursion over a record's operators:
   K(t_{i+1}) = [Vanloan.propagate] op_i K(t_i) from [k0], one matrix
   per grid point — the trace the engine's run-wise forcing pass
   unrolls algebraically. *)
let unroll (s : Covariance.sampled) =
  let ks = Array.make (Array.length s.Covariance.times) s.Covariance.k0 in
  Array.iteri
    (fun i op -> ks.(i + 1) <- Vanloan.propagate s.Covariance.ops.(op) ks.(i))
    s.Covariance.interval_op;
  ks

(* Phi(t_i, 0) chained one interval at a time over a record's
   operators. *)
let transitions (s : Covariance.sampled) =
  let n = Mat.rows s.Covariance.k0 in
  let phis = Array.make (Array.length s.Covariance.times) (Mat.identity n) in
  Array.iteri
    (fun i op ->
      phis.(i + 1) <- Mat.mul s.Covariance.ops.(op).Vanloan.phi phis.(i))
    s.Covariance.interval_op;
  phis

(* What the PSD engine reads of the dense recursion for output row [c]:
   the forcing K(t_i) c, the variance trace cᵀ K(t_i) c and the rows
   Phi(t_i, 0)ᵀ c. *)
let output_trace s c =
  let forcing = Array.map (fun k -> Mat.mul_vec k c) (unroll s) in
  ( forcing,
    Array.map (Vec.dot c) forcing,
    Array.map (fun phi -> Mat.mul_transpose_vec phi c) (transitions s) )

(* Largest entry-wise difference of [got] from [want] over the grid,
   relative to the largest entry of [want]. *)
let rel_vecs got want =
  let scale = Array.fold_left (fun m v -> Float.max m (Vec.norm_inf v)) 0.0 want
  and diff = ref 0.0 in
  Array.iteri
    (fun i w -> diff := Float.max !diff (Vec.max_abs_diff got.(i) w))
    want;
  !diff /. Float.max 1e-300 scale

(* Relative errors of a forcing, a variance trace and rows against the
   dense recursion over the same record. *)
let trace_errors s c ~forcing ~trace ~rows =
  let k, v, r = output_trace s c in
  (rel_vecs forcing k, rel_vecs [| trace |] [| v |], rel_vecs rows r)

(* --- dense complex reference: the periodic-BVP oracle ---
   Textbook complex linear algebra on plain [Complex.t] arrays. *)

(* Gaussian elimination with partial pivoting on the modulus: the
   factors' real and imaginary rows and the row permutation.  Raises
   [Lu.Singular k] on an exactly zero pivot in column [k]. *)
let clu_factor (m : Complex.t array array) =
  let n = Array.length m in
  let lre = Array.map (Array.map (fun (z : Complex.t) -> z.re)) m
  and lim = Array.map (Array.map (fun (z : Complex.t) -> z.im)) m
  and perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    let mag i = Float.hypot lre.(i).(k) lim.(i).(k) in
    let p = ref k in
    for i = k + 1 to n - 1 do
      if mag i > mag !p then p := i
    done;
    if mag !p = 0.0 then raise (Lu.Singular k);
    let swap a = let x = a.(k) in a.(k) <- a.(!p); a.(!p) <- x in
    swap lre; swap lim; swap perm;
    let pivot = { Complex.re = lre.(k).(k); im = lim.(k).(k) } in
    for i = k + 1 to n - 1 do
      let f = Complex.div { re = lre.(i).(k); im = lim.(i).(k) } pivot in
      let fr = f.re and fi = f.im in
      let ur = lre.(k) and ui = lim.(k) and xr = lre.(i) and xi = lim.(i) in
      xr.(k) <- fr;
      xi.(k) <- fi;
      (* the ladders' banded phases leave most multipliers zero *)
      if fr <> 0.0 || fi <> 0.0 then
        for j = k + 1 to n - 1 do
          xr.(j) <- xr.(j) -. ((fr *. ur.(j)) -. (fi *. ui.(j)));
          xi.(j) <- xi.(j) -. ((fr *. ui.(j)) +. (fi *. ur.(j)))
        done
    done
  done;
  (lre, lim, perm)

(* Forward substitution over the unit lower triangle, then back
   substitution over the upper one. *)
let clu_solve (lre, lim, perm) (b : Complex.t array) =
  let n = Array.length perm in
  let xr = Array.init n (fun i -> b.(perm.(i)).re)
  and xi = Array.init n (fun i -> b.(perm.(i)).im) in
  let eliminate i j =
    let ar = lre.(i).(j) and ai = lim.(i).(j) in
    xr.(i) <- xr.(i) -. ((ar *. xr.(j)) -. (ai *. xi.(j)));
    xi.(i) <- xi.(i) -. ((ar *. xi.(j)) +. (ai *. xr.(j)))
  in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      eliminate i j
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      eliminate i j
    done;
    let u = { Complex.re = lre.(i).(i); im = lim.(i).(i) } in
    let z = Complex.div { re = xr.(i); im = xi.(i) } u in
    xr.(i) <- z.re;
    xi.(i) <- z.im
  done;
  Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })

(* sum_j m_ij v_j, in column order *)
let cmul_vec m (v : Complex.t array) =
  Array.map
    (fun (row : Complex.t array) ->
      let re = ref 0.0 and im = ref 0.0 in
      for j = 0 to Array.length v - 1 do
        re := !re +. ((row.(j).re *. v.(j).re) -. (row.(j).im *. v.(j).im));
        im := !im +. ((row.(j).re *. v.(j).im) +. (row.(j).im *. v.(j).re))
      done;
      { Complex.re = !re; im = !im })
    m

(* The trapezoid step of dP/dt = (A - jωI) P + k over [h]:
   (I - h/2 (A - jωI)) P' = (I + h/2 (A - jωI)) P + h/2 (k0 + k1), the
   left side factored once. *)
let trapezoid ~a ~omega ~h =
  let n = Mat.rows a and w = 0.5 *. h in
  let shifted s =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let d = if i = j then 1.0 else 0.0 in
            let re = d +. (s *. w *. Mat.get a i j) in
            { Complex.re; im = -.d *. s *. w *. omega }))
  in
  let lhs = clu_factor (shifted (-1.0)) and rhs = shifted 1.0 in
  let hw = { Complex.re = w; im = 0.0 } in
  fun ~p ~k0 ~k1 ->
    clu_solve lhs
      (Array.mapi
         (fun i z -> Complex.add z (Complex.mul hw (Complex.add k0.(i) k1.(i))))
         (cmul_vec rhs p))

(* The general-coefficient trapezoid step over a real quasi-upper-
   triangular [t] that [Ctrapezoid.step_schur_into] specialises to
   shifted columns: (d I - alpha T) x = (2 - d) p + alpha T p + g, by
   back-substitution over T's 1×1 and 2×2 diagonal blocks, bottom up,
   with alpha's product on p + x of the rows already solved.  The
   block inverses take [Ctrapezoid.schur_start]'s operations and the
   sums the kernel's order, so a shifted column (d = 1 + j omega h/2,
   alpha = h/2) must match it bit for bit.  Returns x. *)
let schur_step ~t ~(d : Complex.t) ~(alpha : Complex.t) ~(p : Complex.t array)
    ~(g : Complex.t array) =
  let n = Mat.rows t in
  let cx re im = { Complex.re; im } in
  (* 1 / z by Complex.div's branch on magnitude, without its 0 - r *)
  let recip (z : Complex.t) =
    if abs_float z.re >= abs_float z.im then
      let r = z.im /. z.re in
      let dd = z.re +. (r *. z.im) in
      cx (1.0 /. dd) (-.r /. dd)
    else
      let r = z.re /. z.im in
      let dd = z.im +. (r *. z.re) in
      cx (r /. dd) (-1.0 /. dd)
  in
  let at a = cx (alpha.re *. a) (alpha.im *. a) in
  let x = Array.make n Complex.zero and q = Array.make n Complex.zero in
  (* T_ij p_j for j in [lo, hi], then T_ij q_j above hi *)
  let sum i ~lo ~hi =
    let acc = ref Complex.zero in
    for j = lo to n - 1 do
      let v = if j <= hi then p.(j) else q.(j) and a = Mat.get t i j in
      acc := cx (!acc.re +. (a *. v.re)) (!acc.im +. (a *. v.im))
    done;
    !acc
  in
  let rhs i ~lo ~hi =
    let s = sum i ~lo ~hi in
    let e = cx (2.0 -. d.re) (-.d.im) in
    Complex.add
      (Complex.add (Complex.mul e p.(i)) (Complex.mul alpha s))
      g.(i)
  in
  let e = ref (n - 1) in
  while !e >= 0 do
    let e' = !e in
    let s = if e' >= 1 && Mat.get t e' (e' - 1) <> 0.0 then e' - 1 else e' in
    let m11 = Complex.sub d (at (Mat.get t s s)) in
    if s = e' then x.(s) <- Complex.mul (rhs s ~lo:s ~hi:s) (recip m11)
    else begin
      let m12 = Complex.neg (at (Mat.get t s e'))
      and m21 = Complex.neg (at (Mat.get t e' s))
      and m22 = Complex.sub d (at (Mat.get t e' e')) in
      let r = recip (Complex.sub (Complex.mul m11 m22) (Complex.mul m12 m21)) in
      let y0 = rhs s ~lo:s ~hi:e' and y1 = rhs e' ~lo:s ~hi:e' in
      let row a b = Complex.add (Complex.mul y0 a) (Complex.mul y1 b) in
      x.(s) <- row (Complex.mul m22 r) (Complex.neg (Complex.mul m12 r));
      x.(e') <- row (Complex.neg (Complex.mul m21 r)) (Complex.mul m11 r)
    end;
    for i = s to e' do
      q.(i) <- Complex.add p.(i) x.(i)
    done;
    e := s - 1
  done;
  x

(* [Periodic_bvp.solve] in original coordinates, one column at a time:
   the forced transient from zero on a dense LU per exact (phase, h),
   the closure (I - e^{-jωT} Phi) P(0) = P(T) by dense LU, and the
   homogeneous term e^{-jωt_i} rows.(i) · P(0) at every grid point.
   Arguments as [Periodic_bvp.of_sampled] and [Periodic_bvp.forcing]
   take them; [y] as [Periodic_bvp.solve] fills it. *)
let bvp_reference (cov : Covariance.sampled) ~output ~rows ~omegas ~kl ~kr y =
  let sys = cov.Covariance.sys and times = cov.Covariance.times in
  let n = sys.Pwl.nstates and width = Array.length omegas in
  let cx v = Array.init n (Cvec.get v) in
  let real r = Array.map (fun x -> { Complex.re = x; im = 0.0 }) r in
  let dot r p = (cmul_vec [| real r |] p).(0) in
  Array.iteri
    (fun b omega ->
      let steps = Hashtbl.create 32 in
      let step i =
        let p = cov.Covariance.interval_phase.(i)
        and h = times.(i + 1) -. times.(i) in
        if not (Hashtbl.mem steps (p, h)) then
          Hashtbl.add steps (p, h)
            (trapezoid ~a:sys.Pwl.phases.(p).Pwl.a ~omega ~h);
        Hashtbl.find steps (p, h)
      in
      (* the particular solution from zero, reduced to the output *)
      let p = ref (Array.make n Complex.zero) in
      let part =
        Array.init (Array.length times) (fun i ->
            if i > 0 then
              p := step (i - 1) ~p:!p ~k0:(cx (kl (i - 1))) ~k1:(cx (kr (i - 1)));
            dot output !p)
      in
      let rot = Complex.polar 1.0 (-.omega *. sys.Pwl.period) in
      let closure =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let d = if i = j then Complex.one else Complex.zero in
                let phi = Mat.get cov.Covariance.phi_period i j in
                Complex.sub d (Complex.mul rot { re = phi; im = 0.0 })))
      in
      let p0 = clu_solve (clu_factor closure) !p in
      Array.iteri
        (fun i t ->
          let rot_t = Complex.polar 1.0 (-.omega *. t) in
          let z = Complex.add (Complex.mul rot_t (dot rows.(i) p0)) part.(i) in
          y.(2 * ((i * width) + b)) <- z.re;
          y.((2 * ((i * width) + b)) + 1) <- z.im)
        times)
    omegas

(* [Periodic_bvp.forcing] as the column loop it was: per interval, entry
   r of h/2 (k0 + k1) in the phase basis Z_p ([bases.(p)], the phases'
   real Schur bases as [Eig.schur] gives them) is the sum over ascending
   j of z_jr (k0_j + k1_j), read down column r of Z_p, with k0 + k1
   formed afresh for every term. *)
let bvp_forcing (cov : Covariance.sampled) ~bases ~kl ~kr =
  let times = cov.Covariance.times in
  let n = cov.Covariance.sys.Pwl.nstates in
  Array.init (Array.length times - 1) (fun i ->
      let k0 = Cvec.data (kl i) and k1 = Cvec.data (kr i) in
      let u = Mat.data bases.(cov.Covariance.interval_phase.(i)) in
      let w = 0.5 *. (times.(i + 1) -. times.(i)) in
      let g = Array.make (2 * n) 0.0 in
      for r = 0 to n - 1 do
        let re = ref 0.0 and im = ref 0.0 in
        for j = 0 to n - 1 do
          let a = u.((j * n) + r) in
          re := !re +. (a *. (k0.(2 * j) +. k1.(2 * j)));
          im := !im +. (a *. (k0.((2 * j) + 1) +. k1.((2 * j) + 1)))
        done;
        g.(2 * r) <- w *. !re;
        g.((2 * r) + 1) <- w *. !im
      done;
      g)
