module Cvec = Scnoise_linalg.Cvec
module Cmat = Scnoise_linalg.Cmat
module Clu = Scnoise_linalg.Clu
module Lu = Scnoise_linalg.Lu
module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx

module Obs = Scnoise_obs.Obs

type stepper = {
  h : float;
  n : int;
  lhs : Clu.t; (* I - h/2 (A - sI) *)
  rhs : Cmat.t; (* I + h/2 (A - sI) *)
  sb : Cvec.t; (* per-stepper rhs scratch *)
  sw : float array; (* per-stepper solve workspace *)
}

let c_steps = Obs.counter "ode_steps"

let c_demod_steps = Obs.counter "ode_demod_steps"

let c_demod_refines = Obs.counter "ode_demod_refines"

let shifted_half a shift h =
  (* h/2 (A - shift I) as a complex matrix *)
  let n = Mat.rows a in
  Cmat.init n n (fun i j ->
      let re = 0.5 *. h *. Mat.get a i j in
      if i = j then Cx.( -: ) (Cx.re re) (Cx.scale (0.5 *. h) shift)
      else Cx.re re)

let make ~a ~shift ~h =
  if not (Mat.is_square a) then invalid_arg "Ctrapezoid.make: not square";
  if h <= 0.0 then invalid_arg "Ctrapezoid.make: h <= 0";
  Scnoise_linalg.Sanitize.check_mat "Ctrapezoid.make" a;
  let n = Mat.rows a in
  let ident = Cmat.identity n in
  let half = shifted_half a shift h in
  {
    h;
    n;
    lhs = Clu.factor (Cmat.sub ident half);
    rhs = Cmat.add ident half;
    sb = Cvec.create n;
    sw = Array.make (2 * n) 0.0;
  }

(* Steppers carry their own scratch, so one stepper must not be driven
   from two domains at once; the BVP layer keeps its caches
   per-solve (hence per-domain). *)
let step_into st ~p ~k0 ~k1 ~into =
  Obs.incr c_steps;
  Cmat.mul_vec_into st.rhs p ~into:st.sb;
  let w = 0.5 *. st.h in
  let bd = Cvec.data st.sb
  and k0d = Cvec.data k0
  and k1d = Cvec.data k1 in
  for k = 0 to (2 * st.n) - 1 do
    bd.(k) <- bd.(k) +. (w *. (k0d.(k) +. k1d.(k)))
  done;
  Clu.solve_into st.lhs ~work:st.sw ~b:st.sb ~into;
  Scnoise_linalg.Sanitize.check_cvec "Ctrapezoid.step" into

let step st ~p ~k0 ~k1 =
  let out = Cvec.create st.n in
  step_into st ~p ~k0 ~k1 ~into:out;
  out

let step_homogeneous st p =
  Obs.incr c_steps;
  Clu.solve st.lhs (Cmat.mul_vec st.rhs p)

let trajectory ~a ~shift ~forcing ~h ~steps p0 =
  if steps < 1 then invalid_arg "Ctrapezoid.trajectory: steps < 1";
  let st = make ~a ~shift ~h in
  let out = Array.make (steps + 1) p0 in
  let p = ref p0 in
  let k = ref (forcing 0) in
  for i = 1 to steps do
    let k_next = forcing i in
    p := step st ~p:!p ~k0:!k ~k1:k_next;
    k := k_next;
    out.(i) <- !p
  done;
  out

(* --- reusable shifted stepper ---

   The demodulated fallback needs a classic shifted stepper per
   (phase, h) at frequencies where the refinement contraction is too
   slow — and, in a block of frequencies, one per column.  Building one
   with [make] per frequency point allocates the LHS/RHS matrices and a
   fresh factorisation each time; this variant keeps all buffers and
   refactors a column in place only when its shift actually changes.
   The columns share everything but their factorisation: the RHS
   I + h/2 (A - jwI) depends on the column only through the imaginary
   part of its diagonal, which a step patches in when the column
   changes.  The matrix fill replicates [make]'s arithmetic term by
   term ([shifted_half] followed by [Cmat.sub]/[Cmat.add] against the
   identity), so every column is bit-identical to a freshly made
   stepper at its shift. *)

type reusable = {
  mutable xh : float;
  xn : int;
  mutable xa : Mat.t; (* kept for refactorisation *)
  xrhs : Cmat.t; (* I + h/2 (A - jwI), diagonal of column [xrhs_col] *)
  mutable xrhs_col : int;
  mutable xlhs : Clu.t array; (* per column: I - h/2 (A - jwI), factored *)
  mutable xomega : float array; (* per column: shift factored, s = j omega *)
  mutable xfresh : bool array;
  xsb : Cvec.t;
  xsw : float array;
}

let c_retunes = Obs.counter "ode_stepper_retunes"

(* placeholder for a column that has never been tuned *)
let no_factor = Clu.create 0

let make_reusable ~a ~h =
  if not (Mat.is_square a) then
    invalid_arg "Ctrapezoid.make_reusable: not square";
  if h <= 0.0 then invalid_arg "Ctrapezoid.make_reusable: h <= 0";
  Scnoise_linalg.Sanitize.check_mat "Ctrapezoid.make_reusable" a;
  let n = Mat.rows a in
  {
    xh = h;
    xn = n;
    xa = a;
    xrhs = Cmat.create n n;
    xrhs_col = -1;
    xlhs = [||];
    xomega = [||];
    xfresh = [||];
    xsb = Cvec.create n;
    xsw = Array.make (2 * n) 0.0;
  }

let rebind st ~a ~h =
  if not (st.xa == a && st.xh = h) then begin
    if not (Mat.is_square a) || Mat.rows a <> st.xn then
      invalid_arg "Ctrapezoid.rebind: dimension mismatch";
    if h <= 0.0 then invalid_arg "Ctrapezoid.rebind: h <= 0";
    Scnoise_linalg.Sanitize.check_mat "Ctrapezoid.rebind" a;
    st.xa <- a;
    st.xh <- h;
    Array.fill st.xfresh 0 (Array.length st.xfresh) false
  end

let retune st ~col ~omega =
  if col < 0 then invalid_arg "Ctrapezoid.retune: negative column";
  if col >= Array.length st.xlhs then begin
    let grow a fill =
      Array.init (col + 1) (fun i -> if i < Array.length a then a.(i) else fill)
    in
    st.xlhs <- grow st.xlhs no_factor;
    st.xomega <- grow st.xomega 0.0;
    st.xfresh <- grow st.xfresh false
  end;
  if not (st.xfresh.(col) && st.xomega.(col) = omega) then begin
    Obs.incr c_retunes;
    if st.xlhs.(col) == no_factor then st.xlhs.(col) <- Clu.create st.xn;
    let n = st.xn in
    let w = 0.5 *. st.xh in
    let swo = w *. omega in
    let d = Cmat.data st.xrhs in
    let ad = Mat.data st.xa in
    (* half = (re, 0) - w * (0, omega) elementwise.  I - half passes
       through the rhs buffer on its way into the factorisation (which
       copies it), then the buffer takes I + half. *)
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let re = w *. ad.((i * n) + j) in
        let k = 2 * ((i * n) + j) in
        if i = j then begin
          d.(k) <- 1.0 -. (re -. 0.0);
          d.(k + 1) <- 0.0 -. (0.0 -. swo)
        end
        else begin
          d.(k) <- 0.0 -. re;
          d.(k + 1) <- 0.0 -. 0.0
        end
      done
    done;
    Clu.factor_into st.xlhs.(col) st.xrhs;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let re = w *. ad.((i * n) + j) in
        let k = 2 * ((i * n) + j) in
        if i = j then begin
          d.(k) <- 1.0 +. (re -. 0.0);
          d.(k + 1) <- 0.0 +. (0.0 -. swo)
        end
        else begin
          d.(k) <- 0.0 +. re;
          d.(k + 1) <- 0.0 +. 0.0
        end
      done
    done;
    st.xrhs_col <- col;
    st.xomega.(col) <- omega;
    st.xfresh.(col) <- true
  end

let step_reusable_into st ~col ~p ~k0 ~k1 ~into =
  if col < 0 || col >= Array.length st.xfresh || not st.xfresh.(col) then
    invalid_arg "Ctrapezoid.step_reusable_into: column not tuned";
  Obs.incr c_steps;
  let n = st.xn in
  let w = 0.5 *. st.xh in
  if st.xrhs_col <> col then begin
    (* the one column-dependent part of the rhs, filled as [retune]
       fills it *)
    let swo = w *. st.xomega.(col) in
    let d = Cmat.data st.xrhs in
    for i = 0 to n - 1 do
      d.((2 * ((i * n) + i)) + 1) <- 0.0 +. (0.0 -. swo)
    done;
    st.xrhs_col <- col
  end;
  Cmat.mul_vec_into st.xrhs p ~into:st.xsb;
  let bd = Cvec.data st.xsb
  and k0d = Cvec.data k0
  and k1d = Cvec.data k1 in
  for k = 0 to (2 * n) - 1 do
    bd.(k) <- bd.(k) +. (w *. (k0d.(k) +. k1d.(k)))
  done;
  Clu.solve_into st.xlhs.(col) ~work:st.xsw ~b:st.xsb ~into;
  Scnoise_linalg.Sanitize.check_cvec "Ctrapezoid.step" into

(* --- demodulated stepper ---

   For the shifted system dP/dt = (A - jw I) P + k the trapezoid LHS is
   (I - h/2 A) + j (wh/2) I = C + j beta I with C real and frequency
   independent.  We factor C once (real LU) and recover the *exact*
   shifted-trapezoid update by the contraction

     x_{m+1} = C^{-1} b - j beta C^{-1} x_m,

   whose fixed point solves (C + j beta I) x = b and whose error decays
   by rho = |beta| ||C^{-1}|| per iteration.  [demod_iters] turns rho
   into a deterministic iteration count (frequency only — no
   data-dependent convergence test, keeping sweeps bit-reproducible at
   any job count), or rejects the frequency when the contraction is too
   slow to beat a complex refactorisation. *)

type demod = {
  dh : float;
  dn : int;
  dlhs : Lu.t; (* C = I - h/2 A, real *)
  drhs : float array; (* D = I + h/2 A, row-major n^2 *)
  dinv_norm1 : float; (* ||C^{-1}||_1, exact *)
}

type demod_work = { wb : Cvec.t; wy : Cvec.t; wz : Cvec.t }

let demod_work n = { wb = Cvec.create n; wy = Cvec.create n; wz = Cvec.create n }

let demod_dim st = st.dn

let make_demod ~a ~h =
  if not (Mat.is_square a) then invalid_arg "Ctrapezoid.make_demod: not square";
  if h <= 0.0 then invalid_arg "Ctrapezoid.make_demod: h <= 0";
  Scnoise_linalg.Sanitize.check_mat "Ctrapezoid.make_demod" a;
  let n = Mat.rows a in
  let w = 0.5 *. h in
  let c =
    Mat.init n n (fun i j ->
        let d = if i = j then 1.0 else 0.0 in
        d -. (w *. Mat.get a i j))
  in
  let drhs = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let d = if i = j then 1.0 else 0.0 in
      drhs.((i * n) + j) <- d +. (w *. Mat.get a i j)
    done
  done;
  let dlhs = Lu.factor c in
  (* exact ||C^{-1}||_1 = max over columns of sum |C^{-1} e_j| *)
  let e = Array.make n 0.0 and x = Array.make n 0.0 in
  let best = ref 0.0 in
  for j = 0 to n - 1 do
    e.(j) <- 1.0;
    Lu.solve_into dlhs ~b:e ~into:x;
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. abs_float x.(i)
    done;
    if !s > !best then best := !s;
    e.(j) <- 0.0
  done;
  { dh = h; dn = n; dlhs; drhs; dinv_norm1 = !best }

(* Per-iteration contraction rho^m must push the refinement error below
   [demod_tol] relative; past [demod_max_iters] iterations the refined
   solve is no cheaper than a complex refactorisation amortised over a
   cached stepper, so the caller should fall back. *)
let demod_tol = 1e-13

let demod_max_iters = 12

(* Distribution of refinement iteration counts chosen per frequency
   point (exact integer buckets); a fallback rejection records as the
   overflow bucket's predecessor via [demod_max_iters + 1].  Always-on
   numeric-health telemetry, one atomic add per query. *)
let h_demod_iters = Obs.histogram ~mode:Scnoise_obs.Hist.Counts "ode.demod_iters"

let demod_iters_quiet st ~omega =
  let beta = 0.5 *. st.dh *. abs_float omega in
  let rho = beta *. st.dinv_norm1 in
  if rho = 0.0 then 0
  else if rho >= 0.25 then -1
  else
    let m = max 1 (int_of_float (ceil (log demod_tol /. log rho))) in
    if m > demod_max_iters then -1 else m

let demod_iters st ~omega =
  let m = demod_iters_quiet st ~omega in
  Obs.hist_record_int h_demod_iters (if m < 0 then demod_max_iters + 1 else m);
  m

let demod_refinable st ~omega = demod_iters_quiet st ~omega >= 0

(* --- blocked demodulated stepper ---

   One panel solve advances [width] frequencies' envelopes through the
   same interval: the real factors of C are traversed once per block
   instead of once per frequency, which is where the batched sweep's
   memory-bandwidth win comes from.  Column [b] replicates
   [step_demod_into]'s operation sequence exactly — same rhs
   accumulation order, same anchor/refinement updates — so each column
   is bitwise identical to the scalar step at its frequency.  Columns
   whose deterministic iteration count is exhausted are masked out of
   the refinement updates (their entries stay fixed while the panel
   keeps solving), never recomputed. *)

type block_work = {
  bw_width : int;
  bw_b : Cvec.panel; (* rhs panel *)
  bw_y : Cvec.panel; (* anchor C^{-1} b *)
  bw_z : Cvec.panel; (* refinement scratch *)
  bw_beta : float array; (* per-column beta = h/2 omega_b *)
}

let block_work ~dim ~width =
  if width < 1 then invalid_arg "Ctrapezoid.block_work: width < 1";
  {
    bw_width = width;
    bw_b = Cvec.panel_create ~dim ~width;
    bw_y = Cvec.panel_create ~dim ~width;
    bw_z = Cvec.panel_create ~dim ~width;
    bw_beta = Array.make width 0.0;
  }

let block_width w = w.bw_width

let c_block_steps = Obs.counter "ode_block_steps"

(* Panel solves issued by the blocked stepper (anchor + refinement
   passes); together with [lu_block_solves] this exposes how much of a
   sweep ran through the batched path. *)
let c_block_solves = Obs.counter "ode.block_solves"

(* Active columns per panel solve (exact integer buckets): the anchor
   solve records the full block width, each refinement pass the number
   of columns still refining — early-converged frequencies show up as
   sub-width entries.  Shared with the Psd layer by name. *)
let h_batch_width = Obs.histogram ~mode:Scnoise_obs.Hist.Counts "psd.batch_width"

let step_block_into st ~work ~omegas ~iters ~p ~k0 ~k1 ~into =
  let n = st.dn in
  let width = work.bw_width in
  if Array.length omegas <> width || Array.length iters <> width then
    invalid_arg "Ctrapezoid.step_block_into: width mismatch";
  if Array.length p <> 2 * n * width || Array.length into <> 2 * n * width
  then invalid_arg "Ctrapezoid.step_block_into: panel dimension mismatch";
  if Cvec.dim k0 <> n || Cvec.dim k1 <> n then
    invalid_arg "Ctrapezoid.step_block_into: forcing dimension mismatch";
  if p == into then
    invalid_arg "Ctrapezoid.step_block_into: output must not alias p";
  Obs.add c_steps width;
  Obs.add c_demod_steps width;
  Obs.incr c_block_steps;
  let max_m = ref 0 in
  let min_m = ref max_int in
  let refines = ref 0 in
  for b = 0 to width - 1 do
    let m = iters.(b) in
    if m < 0 then
      invalid_arg "Ctrapezoid.step_block_into: unrefinable column";
    if m > !max_m then max_m := m;
    if m < !min_m then min_m := m;
    refines := !refines + m;
    work.bw_beta.(b) <- 0.5 *. st.dh *. omegas.(b)
  done;
  if !refines > 0 then Obs.add c_demod_refines !refines;
  let w = 0.5 *. st.dh in
  let betas = work.bw_beta in
  let bb = work.bw_b
  and k0d = Cvec.data k0
  and k1d = Cvec.data k1 in
  let w2 = 2 * width in
  (* b = (D - j beta_b I) p + h/2 (k0 + k1) per column, with real D:
     each column accumulates its row sum in registers over j and closes
     with the same three-term sums as [step_demod_into], term for term
     and in the same order.  (D is tiny and L1-resident, so reloading
     it per column costs nothing; keeping the partial sums out of
     memory is what matters.)  The entry checks pin every index, so the
     inner loops use unsafe accesses (same values, same order — only
     the bounds checks go). *)
  let drhs = st.drhs in
  for i = 0 to n - 1 do
    let base = i * n in
    let irow = i * w2 in
    let fre = w *. (k0d.(2 * i) +. k1d.(2 * i)) in
    let fim = w *. (k0d.((2 * i) + 1) +. k1d.((2 * i) + 1)) in
    for b = 0 to width - 1 do
      let k = irow + (2 * b) in
      let b2 = 2 * b in
      let re = ref 0.0 and im = ref 0.0 in
      for j = 0 to n - 1 do
        let a = Array.unsafe_get drhs (base + j) in
        let pk = (j * w2) + b2 in
        re := !re +. (a *. Array.unsafe_get p pk);
        im := !im +. (a *. Array.unsafe_get p (pk + 1))
      done;
      let beta = Array.unsafe_get betas b in
      Array.unsafe_set bb k
        (!re +. (beta *. Array.unsafe_get p (k + 1)) +. fre);
      Array.unsafe_set bb (k + 1)
        (!im -. (beta *. Array.unsafe_get p k) +. fim)
    done
  done;
  (* y = C^{-1} b: anchor and first iterate for every column *)
  Obs.incr c_block_solves;
  Obs.hist_record_int h_batch_width width;
  Lu.solve_block_into st.dlhs ~width ~b:work.bw_b ~into:work.bw_y;
  Array.blit work.bw_y 0 into 0 (2 * n * width);
  let yd = work.bw_y and zd = work.bw_z in
  for m = 1 to !max_m do
    Obs.incr c_block_solves;
    (let active = ref 0 in
     for b = 0 to width - 1 do
       if iters.(b) >= m then incr active
     done;
     Obs.hist_record_int h_batch_width !active);
    Lu.solve_block_into st.dlhs ~width ~b:into ~into:work.bw_z;
    if m <= !min_m then
      (* every column is still refining: the mask below would pass
         everywhere, so skip the per-column test (same updates, same
         order) *)
      for i = 0 to n - 1 do
        let irow = i * w2 in
        for b = 0 to width - 1 do
          let k = irow + (2 * b) in
          let beta = Array.unsafe_get betas b in
          Array.unsafe_set into k
            (Array.unsafe_get yd k +. (beta *. Array.unsafe_get zd (k + 1)));
          Array.unsafe_set into (k + 1)
            (Array.unsafe_get yd (k + 1) -. (beta *. Array.unsafe_get zd k))
        done
      done
    else
      for i = 0 to n - 1 do
        let irow = i * w2 in
        for b = 0 to width - 1 do
          if Array.unsafe_get iters b >= m then begin
            let k = irow + (2 * b) in
            let beta = Array.unsafe_get betas b in
            Array.unsafe_set into k
              (Array.unsafe_get yd k +. (beta *. Array.unsafe_get zd (k + 1)));
            Array.unsafe_set into (k + 1)
              (Array.unsafe_get yd (k + 1) -. (beta *. Array.unsafe_get zd k))
          end
        done
      done
  done;
  Scnoise_linalg.Sanitize.check_panel "Ctrapezoid.step_block" ~width into

let step_demod_into st ~work ~omega ~iters ~p ~k0 ~k1 ~into =
  Obs.incr c_steps;
  Obs.incr c_demod_steps;
  if iters > 0 then Obs.add c_demod_refines iters;
  let n = st.dn in
  if Cvec.dim p <> n || Cvec.dim k0 <> n || Cvec.dim k1 <> n || Cvec.dim into <> n
  then invalid_arg "Ctrapezoid.step_demod_into: dimension mismatch";
  let beta = 0.5 *. st.dh *. omega in
  let w = 0.5 *. st.dh in
  let pd = Cvec.data p
  and k0d = Cvec.data k0
  and k1d = Cvec.data k1
  and bd = Cvec.data work.wb in
  (* b = (D - j beta I) p + h/2 (k0 + k1), with real D *)
  for i = 0 to n - 1 do
    let base = i * n in
    let re = ref 0.0 and im = ref 0.0 in
    for j = 0 to n - 1 do
      let a = st.drhs.(base + j) in
      re := !re +. (a *. pd.(2 * j));
      im := !im +. (a *. pd.((2 * j) + 1))
    done;
    bd.(2 * i) <-
      !re +. (beta *. pd.((2 * i) + 1))
      +. (w *. (k0d.(2 * i) +. k1d.(2 * i)));
    bd.((2 * i) + 1) <-
      !im -. (beta *. pd.(2 * i))
      +. (w *. (k0d.((2 * i) + 1) +. k1d.((2 * i) + 1)))
  done;
  (* y = C^{-1} b is both the first iterate and the refinement anchor *)
  Lu.solve_complex_into st.dlhs ~b:work.wb ~into:work.wy;
  Cvec.copy_into work.wy ~into;
  let yd = Cvec.data work.wy
  and zd = Cvec.data work.wz
  and od = Cvec.data into in
  for _ = 1 to iters do
    Lu.solve_complex_into st.dlhs ~b:into ~into:work.wz;
    for i = 0 to n - 1 do
      od.(2 * i) <- yd.(2 * i) +. (beta *. zd.((2 * i) + 1));
      od.((2 * i) + 1) <- yd.((2 * i) + 1) -. (beta *. zd.(2 * i))
    done
  done;
  Scnoise_linalg.Sanitize.check_cvec "Ctrapezoid.step_demod" into
