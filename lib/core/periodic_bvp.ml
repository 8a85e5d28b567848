module Mat = Scnoise_linalg.Mat
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Cmat = Scnoise_linalg.Cmat
module Clu = Scnoise_linalg.Clu
module Ctrapezoid = Scnoise_ode.Ctrapezoid
module Pwl = Scnoise_circuit.Pwl
module Obs = Scnoise_obs.Obs

let src = Logs.Src.create "scnoise.bvp" ~doc:"periodic boundary-value solver"

module Log = (val Logs.src_log src : Logs.LOG)

let c_cache_hits = Obs.counter "stepper_cache_hits"

let c_cache_misses = Obs.counter "stepper_cache_misses"

let c_solves = Obs.counter "bvp_solves"

(* Wall time per frequency point of a periodic-BVP solve (a width-B
   solve records B samples of a B-th of its time); recorded only while
   telemetry is enabled (same gate as the enclosing span). *)
let h_solve = Obs.histogram "periodic_bvp.solve_s"

let c_block_solves = Obs.counter "bvp_block_solves"

let c_fallback_steps = Obs.counter "bvp_fallback_steps"

type t = {
  sys : Pwl.t;
  nstates : int;
  times : float array;
  interval_phase : int array;
  out_row : float array; (* c *)
  rows : float array array; (* r_i = cᵀ Phi(t_i, 0) *)
  phi_period : Mat.t;
  demods : Ctrapezoid.demod array; (* one per distinct (phase, h) *)
  interval_demod : int array; (* interval i -> index into [demods] *)
  demod_key : (int * float) array; (* demod index -> (phase, h) *)
}

(* The homogeneous correction only ever reaches the output through
   cᵀ Phi(t_i, 0), so one real row per grid point is all of the
   transitions a solver keeps.  The demodulated steppers (one real LU
   per distinct (phase, h)) are hoisted here too: they are
   frequency-independent, so a whole sweep reuses them. *)
let of_sampled (cov : Covariance.sampled) ~output =
  let sys = cov.Covariance.sys in
  if Array.length output <> sys.Pwl.nstates then
    invalid_arg "Periodic_bvp.of_sampled: output row has wrong length";
  let times = cov.Covariance.times in
  let interval_phase = cov.Covariance.interval_phase in
  let nintervals = Array.length times - 1 in
  let table : (int * float, int) Hashtbl.t = Hashtbl.create 32 in
  let demods = ref [] in
  let keys = ref [] in
  let count = ref 0 in
  let interval_demod =
    Array.init nintervals (fun i ->
        let p = interval_phase.(i) in
        let h = times.(i + 1) -. times.(i) in
        match Hashtbl.find_opt table (p, h) with
        | Some idx -> idx
        | None ->
            let st = Ctrapezoid.make_demod ~a:sys.Pwl.phases.(p).Pwl.a ~h in
            let idx = !count in
            incr count;
            demods := st :: !demods;
            keys := (p, h) :: !keys;
            Hashtbl.add table (p, h) idx;
            idx)
  in
  {
    sys;
    nstates = sys.Pwl.nstates;
    times;
    interval_phase;
    out_row = Array.copy output;
    rows =
      Array.map
        (fun phi -> Mat.mul_transpose_vec phi output)
        cov.Covariance.phis;
    phi_period = cov.Covariance.phi_period;
    demods = Array.of_list (List.rev !demods);
    interval_demod;
    demod_key = Array.of_list (List.rev !keys);
  }

let times t = Array.copy t.times

let n_points t = Array.length t.times

let interval_phase t = Array.copy t.interval_phase

(* --- per-domain workspace ---

   Everything a solve needs beyond the caller's output buffer lives in
   domain-local records (same pattern as [Psd]'s scratch): pooled
   sweeps get their own per worker, so prepared solvers stay read-only.
   A workspace serves one state dimension, and a domain keeps those of
   the few most recent dimensions, so a daemon alternating between a
   handful of circuits keeps their fallback steppers warm.  Within one,
   the width-dependent part ([lanes]) is kept for the few most recent
   widths, because one sweep legitimately uses two — the tail block is
   narrower whenever the width doesn't divide the point count — and
   single points run at width 1. *)

type lanes = {
  l_width : int;
  l_block : Ctrapezoid.block_work; (* panel-kernel scratch, width > 1 *)
  mutable l_iters : int array array;
      (* per demod stepper, per column: refinement count, or -1 for the
         complex-LU fallback *)
  mutable l_nfb : int array; (* per demod stepper: fallback columns *)
  l_pa : Cvec.panel; (* the particular pass alternates between *)
  l_pb : Cvec.panel; (* these two panels, P_b(t_{i-1}) -> P_b(t_i) *)
  l_p0 : Cvec.panel; (* boundary values P_b(0) *)
}

type ws = {
  w_dim : int;
  w_lanes : lanes list ref; (* most recent first *)
  w_dw : Ctrapezoid.demod_work; (* single-column demod scratch *)
  w_lhs : Cmat.t; (* boundary matrix I - e^{-jwT} Phi *)
  w_lu : Clu.t;
  w_solve : float array; (* Clu.solve_into workspace, 2n *)
  w_col : Cvec.t; (* one panel column, gathered *)
  w_out : Cvec.t; (* one column's result, before scattering *)
  w_fb : (int, Ctrapezoid.reusable) Hashtbl.t;
      (* fallback steppers keyed by demod stepper, one factorisation per
         block column; they rebind to the solver at hand and retune a
         column in place when its frequency moves, so sweeps — and the
         solvers a long-lived domain prepares one after another — reuse
         their buffers *)
}

let ws_key : ws list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let max_cached_dims = 4

let max_cached_lanes = 4

let workspace t ~width =
  let n = t.nstates in
  let ws =
    Scnoise_util.Mru.find (Domain.DLS.get ws_key) ~cap:max_cached_dims
      ~matches:(fun ws -> ws.w_dim = n)
      ~make:(fun () ->
        {
          w_dim = n;
          w_lanes = ref [];
          w_dw = Ctrapezoid.demod_work n;
          w_lhs = Cmat.create n n;
          w_lu = Clu.create n;
          w_solve = Array.make (2 * n) 0.0;
          w_col = Cvec.create n;
          w_out = Cvec.create n;
          w_fb = Hashtbl.create 16;
        })
  in
  let lanes =
    Scnoise_util.Mru.find ws.w_lanes ~cap:max_cached_lanes
      ~matches:(fun l -> l.l_width = width)
      ~make:(fun () ->
        {
          l_width = width;
          l_block = Ctrapezoid.block_work ~dim:n ~width;
          l_iters = [||];
          l_nfb = [||];
          l_pa = Cvec.panel_create ~dim:n ~width;
          l_pb = Cvec.panel_create ~dim:n ~width;
          l_p0 = Cvec.panel_create ~dim:n ~width;
        })
  in
  (* the per-stepper tables grow with the richest solver seen here *)
  let nsteppers = Array.length t.demods in
  if Array.length lanes.l_iters < nsteppers then begin
    lanes.l_iters <- Array.init nsteppers (fun _ -> Array.make width 0);
    lanes.l_nfb <- Array.make nsteppers 0
  end;
  (ws, lanes)

(* The complex-LU fallback stepper of demod stepper [si], with column
   [col] tuned to [omega].  It refactors in place only when the
   column's frequency or the solver moves, so even fallback-heavy
   sweeps allocate nothing per point after warm-up.  The table holds
   the steppers of the richest solver seen at this dimension, each
   with as many column factorisations as the widest block. *)
let tune_fallback t ws ~si ~col ~omega =
  let p, h = t.demod_key.(si) in
  let a = t.sys.Pwl.phases.(p).Pwl.a in
  let st =
    match Hashtbl.find ws.w_fb si with
    | st ->
        Obs.incr c_cache_hits;
        Ctrapezoid.rebind st ~a ~h;
        st
    | exception Not_found ->
        Obs.incr c_cache_misses;
        let st = Ctrapezoid.make_reusable ~a ~h in
        Hashtbl.add ws.w_fb si st;
        st
  in
  Ctrapezoid.retune st ~col ~omega

(* Refinement count of every (demod stepper, column) pair at this
   block's frequencies, with the fallback stepper of each pair that
   has none tuned up front; the reference solve puts every pair on the
   fallback. *)
let plan t ws lanes ~reference ~omegas =
  for s = 0 to Array.length t.demods - 1 do
    let row = lanes.l_iters.(s) in
    let nfb = ref 0 in
    for b = 0 to lanes.l_width - 1 do
      let omega = omegas.(b) in
      let m =
        if reference then -1 else Ctrapezoid.demod_iters t.demods.(s) ~omega
      in
      if m < 0 then begin
        incr nfb;
        tune_fallback t ws ~si:s ~col:b ~omega
      end;
      row.(b) <- m
    done;
    lanes.l_nfb.(s) <- !nfb
  done

(* One column's step over one interval: the demodulated kernel when its
   stepper refines at the column's frequency ([m >= 0]), the column's
   complex-LU fallback otherwise. *)
let step_column t ws ~si ~col ~m ~omega ~p ~k0 ~k1 ~into =
  if m >= 0 then
    Ctrapezoid.step_demod_into t.demods.(si) ~work:ws.w_dw ~omega ~iters:m ~p
      ~k0 ~k1 ~into
  else begin
    Obs.incr c_fallback_steps;
    Ctrapezoid.step_reusable_into (Hashtbl.find ws.w_fb si) ~col ~p ~k0 ~k1
      ~into
  end

(* y_b(t_i) <- cᵀ P_b(t_i) for every column of one panel; per column the
   terms are added in state order onto a zero, as a plain dot product
   would. *)
let reduce_into t ~width p y ~i =
  let c = t.out_row in
  let base = 2 * i * width in
  Array.fill y base (2 * width) 0.0;
  for j = 0 to t.nstates - 1 do
    let cj = c.(j) and pbase = 2 * j * width in
    for b = 0 to width - 1 do
      let k = base + (2 * b) and q = pbase + (2 * b) in
      y.(k) <- y.(k) +. (cj *. p.(q));
      y.(k + 1) <- y.(k + 1) +. (cj *. p.(q + 1))
    done
  done

(* Forced transient from a zero initial condition, reduced to the output
   at every grid point as it goes; returns the panel holding P_b(T).  At
   width 1 the panels are the columns themselves and every step takes
   the single-column kernels.  Above it, an interval whose stepper
   refines at every frequency of the block takes one panel step;
   otherwise each column steps alone, gathered out of the panel and
   scattered back — the panel kernel would solve the fallback columns
   along with the refining ones at every refinement pass. *)
let particular_into t ws lanes ~omegas ~omega0 ~kl ~kr y =
  let width = lanes.l_width in
  let npts = Array.length t.times in
  let p = ref lanes.l_pa and into = ref lanes.l_pb in
  Cvec.panel_fill_zero !p;
  reduce_into t ~width !p y ~i:0;
  for i = 1 to npts - 1 do
    let si = t.interval_demod.(i - 1) in
    let iters = lanes.l_iters.(si) in
    let k0 = kl (i - 1) and k1 = kr (i - 1) in
    if width = 1 then
      step_column t ws ~si ~col:0 ~m:iters.(0) ~omega:omega0
        ~p:(Cvec.of_data !p) ~k0 ~k1 ~into:(Cvec.of_data !into)
    else if lanes.l_nfb.(si) = 0 then
      Ctrapezoid.step_block_into t.demods.(si) ~work:lanes.l_block ~omegas
        ~iters ~p:!p ~k0 ~k1 ~into:!into
    else
      for b = 0 to width - 1 do
        Cvec.panel_get_col !p ~width ~col:b ~into:ws.w_col;
        step_column t ws ~si ~col:b ~m:iters.(b) ~omega:omegas.(b)
          ~p:ws.w_col ~k0 ~k1 ~into:ws.w_out;
        Cvec.panel_set_col ws.w_out !into ~width ~col:b
      done;
    reduce_into t ~width !into y ~i;
    let last = !p in
    p := !into;
    into := last
  done;
  !p

(* Close the periodic boundary: solve every column for P_b(0) against
   its rotated monodromy I - e^{-jw_bT} Phi (which genuinely differs per
   frequency), then add the homogeneous term
   e^{-jw_bt_i} cᵀ Phi(t_i, 0) P_b(0) = e^{-jw_bt_i} (r_i · P_b(0)) to
   every output sample — O(n) per point and column. *)
let close_periodic_into t ws lanes ~omegas ~part_end y =
  let n = t.nstates in
  let width = lanes.l_width in
  let period = t.sys.Pwl.period in
  let npts = Array.length t.times in
  let ld = Cmat.data ws.w_lhs in
  for b = 0 to width - 1 do
    let rot_t = Cx.cis (-.omegas.(b) *. period) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let phi = Mat.get t.phi_period i j in
        let pre = phi *. rot_t.Cx.re and pim = phi *. rot_t.Cx.im in
        let k = 2 * ((i * n) + j) in
        if i = j then begin
          ld.(k) <- 1.0 -. pre;
          ld.(k + 1) <- 0.0 -. pim
        end
        else begin
          ld.(k) <- -.pre;
          ld.(k + 1) <- -.pim
        end
      done
    done;
    Clu.factor_into ws.w_lu ws.w_lhs;
    Cvec.panel_get_col part_end ~width ~col:b ~into:ws.w_col;
    Clu.solve_into ws.w_lu ~work:ws.w_solve ~b:ws.w_col ~into:ws.w_out;
    Cvec.panel_set_col ws.w_out lanes.l_p0 ~width ~col:b
  done;
  Log.debug (fun m ->
      m "BVP closed: %d points, %d frequencies" npts width);
  let p0 = lanes.l_p0 in
  for i = 0 to npts - 1 do
    let r = t.rows.(i) in
    for b = 0 to width - 1 do
      let hr = ref 0.0 and hi = ref 0.0 in
      for j = 0 to n - 1 do
        let q = 2 * ((j * width) + b) in
        hr := !hr +. (r.(j) *. p0.(q));
        hi := !hi +. (r.(j) *. p0.(q + 1))
      done;
      let theta = -.omegas.(b) *. t.times.(i) in
      let cr = cos theta and ci = sin theta in
      let k = 2 * ((i * width) + b) in
      y.(k) <- ((cr *. !hr) -. (ci *. !hi)) +. y.(k);
      y.(k + 1) <- ((cr *. !hi) +. (ci *. !hr)) +. y.(k + 1)
    done
  done

let run t ~reference ~omegas ~kl ~kr y =
  let width = Array.length omegas in
  if width < 1 then invalid_arg "Periodic_bvp.solve: empty block";
  if Array.length y <> 2 * Array.length t.times * width then
    invalid_arg "Periodic_bvp.solve: output buffer has wrong size";
  Obs.with_span ~src "periodic_bvp.solve" (fun () ->
      Obs.timed_parts h_solve ~parts:width (fun () ->
          Obs.add c_solves width;
          if width > 1 then Obs.incr c_block_solves;
          let ws, lanes = workspace t ~width in
          plan t ws lanes ~reference ~omegas;
          (* [omega0] arrives boxed once: a float read out of [omegas]
             inside the interval loop would be boxed at every call *)
          let part_end =
            particular_into t ws lanes ~omegas ~omega0:omegas.(0) ~kl ~kr y
          in
          close_periodic_into t ws lanes ~omegas ~part_end y))

let solve t ~omegas ~kl ~kr y = run t ~reference:false ~omegas ~kl ~kr y

let solve_reference t ~omegas ~kl ~kr y =
  run t ~reference:true ~omegas ~kl ~kr y

let fallback_columns t ~omegas =
  let rec refinable s omega =
    s = Array.length t.demods
    || (Ctrapezoid.demod_refinable t.demods.(s) ~omega && refinable (s + 1) omega)
  in
  let count = ref 0 in
  for b = 0 to Array.length omegas - 1 do
    if not (refinable 0 omegas.(b)) then incr count
  done;
  !count
