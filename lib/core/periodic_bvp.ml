module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Eig = Scnoise_linalg.Eig
module Ctrapezoid = Scnoise_ode.Ctrapezoid
module Pwl = Scnoise_circuit.Pwl
module Obs = Scnoise_obs.Obs

let src = Logs.Src.create "scnoise.bvp" ~doc:"periodic boundary-value solver"

module Log = (val Logs.src_log src : Logs.LOG)

let c_solves = Obs.counter "bvp_solves"

(* Wall time per frequency point of a periodic-BVP solve (a width-B
   solve records B samples of a B-th of its time); recorded only while
   telemetry is enabled (same gate as the enclosing span). *)
let h_solve = Obs.histogram "periodic_bvp.solve_s"

let c_block_solves = Obs.counter "bvp_block_solves"

exception Reduction_failed of string

type t = {
  period : float;
  nstates : int;
  times : float array;
  interval_phase : int array;
  step_h : float array; (* interval i -> the step its run is set up for *)
  refactor : bool array; (* interval i starts a new run of equal steps *)
  (* the real Schur bases: A_p = Z_p T_p Z_pᵀ, Phi = V T_Phi Vᵀ *)
  basis : Mat.t array; (* per phase: Z_p *)
  tri : Ctrapezoid.quasi array; (* per phase: T_p *)
  out_rows : float array array; (* per phase: Z_pᵀ c *)
  crossing : Mat.t option array;
      (* per interval i: Z_{p(i)}ᵀ Z_{p(i-1)} where the phase changes *)
  t_phi : Ctrapezoid.quasi;
  close_in : Mat.t; (* Vᵀ Z_p of the last interval's phase *)
  hrows : float array array; (* Vᵀ r_i *)
}

(* Steps within this relative distance share one run: a phase's uniform
   steps differ only by the rounding of the grid times they are
   differences of, and the trapezoid map moves by that much when one
   stands in for the other. *)
let step_tol = 1e-12

(* Everything frequency-independent is prepared here: the runs of
   consecutive intervals that share a phase and a step — each run sets
   up its diagonal-block inverses once per frequency, so a solve holds
   one run's inverses per column at a time — one real Schur reduction
   per phase and of the monodromy, the basis changes at phase
   boundaries, and the output and homogeneous rows in those bases.  The
   homogeneous correction only ever reaches the output through
   cᵀ Phi(t_i, 0), so one real row per grid point, from the
   covariance's forcing pass, is all a solver needs of the
   transitions. *)
let of_sampled (cov : Covariance.sampled) ~output ~rows =
  let sys = cov.Covariance.sys in
  if Array.length output <> sys.Pwl.nstates then
    invalid_arg "Periodic_bvp.of_sampled: output row has wrong length";
  let times = cov.Covariance.times in
  if
    Array.length rows <> Array.length times
    || Array.exists (fun r -> Array.length r <> sys.Pwl.nstates) rows
  then invalid_arg "Periodic_bvp.of_sampled: rows do not match the grid";
  let interval_phase = cov.Covariance.interval_phase in
  let nintervals = Array.length times - 1 in
  let step_h = Array.init nintervals (fun i -> times.(i + 1) -. times.(i)) in
  let refactor = Array.make nintervals true in
  for i = 1 to nintervals - 1 do
    if
      interval_phase.(i) = interval_phase.(i - 1)
      && abs_float (step_h.(i) -. step_h.(i - 1)) <= step_tol *. step_h.(i - 1)
    then begin
      refactor.(i) <- false;
      step_h.(i) <- step_h.(i - 1)
    end
  done;
  let schur what m =
    match Eig.schur m with
    | t, z -> (Ctrapezoid.quasi t, z)
    | exception Eig.No_convergence _ ->
        raise
          (Reduction_failed
             (Printf.sprintf
                "the real Schur reduction of the %s did not converge" what))
  in
  let reduced =
    Array.mapi
      (fun p ph -> schur (Printf.sprintf "phase %d matrix" p) ph.Pwl.a)
      sys.Pwl.phases
  in
  let basis = Array.map snd reduced in
  let crossings : (int * int, Mat.t) Hashtbl.t = Hashtbl.create 4 in
  let crossing =
    Array.init nintervals (fun i ->
        let p = if i = 0 then interval_phase.(0) else interval_phase.(i - 1) in
        let q = interval_phase.(i) in
        if p = q then None
        else
          match Hashtbl.find_opt crossings (p, q) with
          | Some m -> Some m
          | None ->
              let m = Mat.mul (Mat.transpose basis.(q)) basis.(p) in
              Hashtbl.add crossings (p, q) m;
              Some m)
  in
  let t_phi, v = schur "monodromy" cov.Covariance.phi_period in
  {
    period = sys.Pwl.period;
    nstates = sys.Pwl.nstates;
    times;
    interval_phase;
    step_h;
    refactor;
    basis;
    tri = Array.map fst reduced;
    out_rows = Array.map (fun u -> Mat.mul_transpose_vec u output) basis;
    crossing;
    t_phi;
    close_in =
      Mat.mul (Mat.transpose v) basis.(interval_phase.(nintervals - 1));
    hrows = Array.map (Mat.mul_transpose_vec v) rows;
  }

let times t = Array.copy t.times

let n_points t = Array.length t.times

let n_runs t =
  Array.fold_left (fun c r -> if r then c + 1 else c) 0 t.refactor

(* --- forcing ---

   The trapezoid step only sees its interval's forcing as
   h/2 (k0 + k1), so that is what is kept, rotated into the interval's
   phase basis once per forcing rather than once per step.  Entry r of
   the rotation is the sum over ascending j of z_jr (k0_j + k1_j): it
   is accumulated in the output, row j of Z_p at a time, so Z_p is read
   along its rows and k0_j + k1_j is formed once per j, and then scaled
   by h/2 — every entry's operations in the column loop's order, with
   nothing allocated but the result. *)

type forcing = Cvec.t array

let forcing t ~kl ~kr =
  let n = t.nstates in
  Array.init (Array.length t.times - 1) (fun i ->
      let k0 = kl i and k1 = kr i in
      if Cvec.dim k0 <> n || Cvec.dim k1 <> n then
        invalid_arg "Periodic_bvp.forcing: wrong dimension";
      let k0 = Cvec.data k0 and k1 = Cvec.data k1 in
      let u = Mat.data t.basis.(t.interval_phase.(i)) in
      let g = Cvec.create n in
      let gd = Cvec.data g in
      for j = 0 to n - 1 do
        let sr = k0.(2 * j) +. k1.(2 * j)
        and si = k0.((2 * j) + 1) +. k1.((2 * j) + 1)
        and o = j * n in
        for r = 0 to n - 1 do
          let a = Array.unsafe_get u (o + r) in
          Array.unsafe_set gd (2 * r) (Array.unsafe_get gd (2 * r) +. (a *. sr));
          Array.unsafe_set gd ((2 * r) + 1)
            (Array.unsafe_get gd ((2 * r) + 1) +. (a *. si))
        done
      done;
      let w = 0.5 *. (t.times.(i + 1) -. t.times.(i)) in
      for q = 0 to (2 * n) - 1 do
        gd.(q) <- w *. gd.(q)
      done;
      g)

(* --- per-domain workspace ---

   Everything a solve needs beyond the caller's output buffer lives in
   domain-local records (same pattern as [Psd]'s scratch): pooled
   sweeps get their own per worker, so prepared solvers stay read-only.
   A workspace is sized by its (dimension, width) pair alone — it holds
   one run's block inverses per column, redone as the pass goes — so
   every solver of that shape reuses it.
   A domain keeps the few most recent pairs: one sweep legitimately
   uses two widths — its near-equal blocks differ by one column
   wherever the block count doesn't divide the point count — single
   points run at width 1, and a daemon alternates between a handful of
   circuits. *)

type ws = {
  w_dim : int;
  w_width : int;
  w_step : Ctrapezoid.schur;
      (* per column: the current run's stepper in the particular pass,
         then I - e^{-jwT} T_Phi in the closure; every solve's first
         interval starts a run, so each pass starts every column anew *)
  w_pa : Cvec.panel; (* the particular pass alternates between *)
  w_pb : Cvec.panel; (* these two panels, P_b(t_{i-1}) -> P_b(t_i) *)
  w_p0 : Cvec.panel;
      (* a state carried across a phase boundary in the particular
         pass, then the boundary values in the monodromy's basis *)
  w_phase : float array; (* per column: e^{-jw t_i} at the current point *)
  w_turn : float array; (* per column: e^{-jw h} of the current run *)
}

let ws_key : ws list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let max_cached = 16

let workspace t ~width =
  let n = t.nstates in
  Scnoise_util.Mru.find (Domain.DLS.get ws_key) ~cap:max_cached
    ~matches:(fun ws -> ws.w_dim = n && ws.w_width = width)
    ~make:(fun () ->
      let panel () = Cvec.panel_create ~dim:n ~width in
      {
        w_dim = n;
        w_width = width;
        w_step = Ctrapezoid.schur_create ~dim:n ~width;
        w_pa = panel ();
        w_pb = panel ();
        w_p0 = panel ();
        w_phase = Array.make (2 * width) 0.0;
        w_turn = Array.make (2 * width) 0.0;
      })

(* dst_b <- m src_b for every column of a panel (real dense [m]) *)
let apply_into m ~width src dst =
  let n = Mat.rows m and md = Mat.data m in
  let w2 = 2 * width in
  for r = 0 to n - 1 do
    for b = 0 to width - 1 do
      let re = ref 0.0 and im = ref 0.0 in
      for j = 0 to n - 1 do
        let a = md.((r * n) + j) in
        let q = (j * w2) + (2 * b) in
        re := !re +. (a *. src.(q));
        im := !im +. (a *. src.(q + 1))
      done;
      dst.((r * w2) + (2 * b)) <- !re;
      dst.((r * w2) + (2 * b) + 1) <- !im
    done
  done

(* y_b(t_i) <- c · P_b(t_i) for every column of one panel; per column the
   terms are added in state order onto a zero, as a plain dot product
   would.  Columns run in groups of 4, then 2, then 1, each column in
   its own accumulators ([Ctrapezoid]'s scheme), so a column's sum is
   the same at every width.  [p] is a panel of [Array.length c] states
   and [y] has room for point [i]. *)
let reduce_into c ~width p y ~i =
  let n = Array.length c and w2 = 2 * width in
  let k = i * w2 and b = ref 0 in
  while !b + 4 <= width do
    let o = 2 * !b in
    let r0 = ref 0.0 and i0 = ref 0.0 and r1 = ref 0.0 and i1 = ref 0.0
    and r2 = ref 0.0 and i2 = ref 0.0 and r3 = ref 0.0 and i3 = ref 0.0 in
    for j = 0 to n - 1 do
      let cj = Array.unsafe_get c j and q = (j * w2) + o in
      r0 := !r0 +. (cj *. Array.unsafe_get p q);
      i0 := !i0 +. (cj *. Array.unsafe_get p (q + 1));
      r1 := !r1 +. (cj *. Array.unsafe_get p (q + 2));
      i1 := !i1 +. (cj *. Array.unsafe_get p (q + 3));
      r2 := !r2 +. (cj *. Array.unsafe_get p (q + 4));
      i2 := !i2 +. (cj *. Array.unsafe_get p (q + 5));
      r3 := !r3 +. (cj *. Array.unsafe_get p (q + 6));
      i3 := !i3 +. (cj *. Array.unsafe_get p (q + 7))
    done;
    let k = k + o in
    y.(k) <- !r0;
    y.(k + 1) <- !i0;
    y.(k + 2) <- !r1;
    y.(k + 3) <- !i1;
    y.(k + 4) <- !r2;
    y.(k + 5) <- !i2;
    y.(k + 6) <- !r3;
    y.(k + 7) <- !i3;
    b := !b + 4
  done;
  if !b + 2 <= width then begin
    let o = 2 * !b in
    let r0 = ref 0.0 and i0 = ref 0.0 and r1 = ref 0.0 and i1 = ref 0.0 in
    for j = 0 to n - 1 do
      let cj = Array.unsafe_get c j and q = (j * w2) + o in
      r0 := !r0 +. (cj *. Array.unsafe_get p q);
      i0 := !i0 +. (cj *. Array.unsafe_get p (q + 1));
      r1 := !r1 +. (cj *. Array.unsafe_get p (q + 2));
      i1 := !i1 +. (cj *. Array.unsafe_get p (q + 3))
    done;
    let k = k + o in
    y.(k) <- !r0;
    y.(k + 1) <- !i0;
    y.(k + 2) <- !r1;
    y.(k + 3) <- !i1;
    b := !b + 2
  end;
  if !b < width then begin
    let o = 2 * !b in
    let r0 = ref 0.0 and i0 = ref 0.0 in
    for j = 0 to n - 1 do
      let cj = Array.unsafe_get c j and q = (j * w2) + o in
      r0 := !r0 +. (cj *. Array.unsafe_get p q);
      i0 := !i0 +. (cj *. Array.unsafe_get p (q + 1))
    done;
    y.(k + o) <- !r0;
    y.(k + o + 1) <- !i0
  end

(* Forced transient from a zero initial condition in the phase bases,
   reduced to the output at every grid point as it goes; returns the
   panel holding P_b(T) in the last phase's basis.  Each run of equal
   steps is set up as it starts, and a state entering a new phase
   crosses into its basis first. *)
let particular_into t ws ~omegas ~forcing y =
  let width = ws.w_width in
  let npts = Array.length t.times in
  let p = ref ws.w_pa and into = ref ws.w_pb in
  Cvec.panel_fill_zero !p;
  Array.fill y 0 (2 * width) 0.0;
  for i = 1 to npts - 1 do
    let phase = t.interval_phase.(i - 1) in
    if t.refactor.(i - 1) then
      for b = 0 to width - 1 do
        Ctrapezoid.schur_start_shifted ws.w_step ~tmat:t.tri.(phase)
          ~h:t.step_h.(i - 1) ~col:b ~omega:omegas.(b)
      done;
    let from =
      match t.crossing.(i - 1) with
      | None -> !p
      | Some m ->
          apply_into m ~width !p ws.w_p0;
          ws.w_p0
    in
    Ctrapezoid.step_schur_into ws.w_step ~g:forcing.(i - 1) ~p:from
      ~into:!into;
    reduce_into t.out_rows.(phase) ~width !into y ~i;
    let last = !p in
    p := !into;
    into := last
  done;
  !p

(* The homogeneous term's phase factors e^{-jw t_i}, point by point:
   exact (one cos and sin) where a run of equal steps starts, and
   advanced inside the run by one complex multiply with the run's
   e^{-jw h}.  [phase] and [turn] hold column [b]'s factor and turn at
   2b; on return [phase] holds point [i]'s. *)
let advance_phase t ~omegas ~phase ~turn ~i =
  let start = i < Array.length t.times - 1 && t.refactor.(i) in
  for b = 0 to Array.length omegas - 1 do
    let k = 2 * b in
    if start then begin
      let theta = -.omegas.(b) *. t.times.(i) in
      phase.(k) <- cos theta;
      phase.(k + 1) <- sin theta;
      let theta = -.omegas.(b) *. t.step_h.(i) in
      turn.(k) <- cos theta;
      turn.(k + 1) <- sin theta
    end
    else begin
      let cr = Array.unsafe_get phase k and ci = Array.unsafe_get phase (k + 1) in
      let sr = Array.unsafe_get turn k and si = Array.unsafe_get turn (k + 1) in
      Array.unsafe_set phase k ((cr *. sr) -. (ci *. si));
      Array.unsafe_set phase (k + 1) ((cr *. si) +. (ci *. sr))
    end
  done

let phase_factors t ~omega =
  let npts = Array.length t.times in
  let omegas = [| omega |] and phase = Array.make 2 0.0
  and turn = Array.make 2 0.0 in
  Cvec.init npts (fun i ->
      advance_phase t ~omegas ~phase ~turn ~i;
      Cx.make phase.(0) phase.(1))

(* y_b(t_i) += e^{-jw_bt_i} h for the column at offset [o] (2b) of a
   panel row, from its sum h = (Vᵀ r_i) · z_b; inlined, since a
   non-flambda build boxes the float arguments of a call *)
let[@inline] add_homogeneous phase y ~w2 ~i ~o hr hi =
  let cr = Array.unsafe_get phase o and ci = Array.unsafe_get phase (o + 1) in
  let k = (i * w2) + o in
  Array.unsafe_set y k (((cr *. hr) -. (ci *. hi)) +. Array.unsafe_get y k);
  Array.unsafe_set y (k + 1) (((cr *. hi) +. (ci *. hr)) +. Array.unsafe_get y (k + 1))

(* Close the periodic boundary in the monodromy's Schur basis: with
   z_b = Vᵀ P_b(0), solve (I - e^{-jw_bT} T_Phi) z_b = Vᵀ P_part,b(T),
   O(n^2) per column, then add the homogeneous term
   e^{-jw_bt_i} cᵀ Phi(t_i, 0) P_b(0) = e^{-jw_bt_i} ((Vᵀ r_i) · z_b) to
   every output sample — O(n) per point and column. *)
let close_periodic_into t ws ~omegas ~part_end y =
  let n = t.nstates in
  let width = ws.w_width in
  let npts = Array.length t.times in
  apply_into t.close_in ~width part_end ws.w_p0;
  for b = 0 to width - 1 do
    Ctrapezoid.schur_start ws.w_step ~tmat:t.t_phi ~col:b ~d:Cx.one
      ~alpha:(Cx.cis (-.omegas.(b) *. t.period))
  done;
  Ctrapezoid.schur_solve_in_place ws.w_step ws.w_p0;
  Log.debug (fun m ->
      m "BVP closed: %d points, %d frequencies" npts width);
  let p0 = ws.w_p0 and phase = ws.w_phase and turn = ws.w_turn in
  let w2 = 2 * width in
  for i = 0 to npts - 1 do
    let r = t.hrows.(i) in
    advance_phase t ~omegas ~phase ~turn ~i;
    let b = ref 0 in
    while !b + 4 <= width do
      let o = 2 * !b in
      let r0 = ref 0.0 and i0 = ref 0.0 and r1 = ref 0.0 and i1 = ref 0.0
      and r2 = ref 0.0 and i2 = ref 0.0 and r3 = ref 0.0 and i3 = ref 0.0 in
      for j = 0 to n - 1 do
        let rj = Array.unsafe_get r j and q = (j * w2) + o in
        r0 := !r0 +. (rj *. Array.unsafe_get p0 q);
        i0 := !i0 +. (rj *. Array.unsafe_get p0 (q + 1));
        r1 := !r1 +. (rj *. Array.unsafe_get p0 (q + 2));
        i1 := !i1 +. (rj *. Array.unsafe_get p0 (q + 3));
        r2 := !r2 +. (rj *. Array.unsafe_get p0 (q + 4));
        i2 := !i2 +. (rj *. Array.unsafe_get p0 (q + 5));
        r3 := !r3 +. (rj *. Array.unsafe_get p0 (q + 6));
        i3 := !i3 +. (rj *. Array.unsafe_get p0 (q + 7))
      done;
      add_homogeneous phase y ~w2 ~i ~o !r0 !i0;
      add_homogeneous phase y ~w2 ~i ~o:(o + 2) !r1 !i1;
      add_homogeneous phase y ~w2 ~i ~o:(o + 4) !r2 !i2;
      add_homogeneous phase y ~w2 ~i ~o:(o + 6) !r3 !i3;
      b := !b + 4
    done;
    if !b + 2 <= width then begin
      let o = 2 * !b in
      let r0 = ref 0.0 and i0 = ref 0.0 and r1 = ref 0.0 and i1 = ref 0.0 in
      for j = 0 to n - 1 do
        let rj = Array.unsafe_get r j and q = (j * w2) + o in
        r0 := !r0 +. (rj *. Array.unsafe_get p0 q);
        i0 := !i0 +. (rj *. Array.unsafe_get p0 (q + 1));
        r1 := !r1 +. (rj *. Array.unsafe_get p0 (q + 2));
        i1 := !i1 +. (rj *. Array.unsafe_get p0 (q + 3))
      done;
      add_homogeneous phase y ~w2 ~i ~o !r0 !i0;
      add_homogeneous phase y ~w2 ~i ~o:(o + 2) !r1 !i1;
      b := !b + 2
    end;
    if !b < width then begin
      let o = 2 * !b in
      let r0 = ref 0.0 and i0 = ref 0.0 in
      for j = 0 to n - 1 do
        let rj = Array.unsafe_get r j and q = (j * w2) + o in
        r0 := !r0 +. (rj *. Array.unsafe_get p0 q);
        i0 := !i0 +. (rj *. Array.unsafe_get p0 (q + 1))
      done;
      add_homogeneous phase y ~w2 ~i ~o !r0 !i0
    end
  done

let check_block t ~omegas y =
  let width = Array.length omegas in
  if width < 1 then invalid_arg "Periodic_bvp.solve: empty block";
  if Array.length y <> 2 * Array.length t.times * width then
    invalid_arg "Periodic_bvp.solve: output buffer has wrong size";
  width

let solve t ~omegas ~forcing y =
  let width = check_block t ~omegas y in
  if Array.length forcing <> Array.length t.times - 1 then
    invalid_arg "Periodic_bvp.solve: forcing from another solver";
  Obs.with_span ~src "periodic_bvp.solve" (fun () ->
      Obs.timed_parts h_solve ~parts:width (fun () ->
          Obs.add c_solves width;
          if width > 1 then Obs.incr c_block_solves;
          let ws = workspace t ~width in
          let part_end = particular_into t ws ~omegas ~forcing y in
          close_periodic_into t ws ~omegas ~part_end y))
