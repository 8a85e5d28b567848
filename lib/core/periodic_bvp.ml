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

(* Wall time of one periodic-BVP solve; recorded only while telemetry
   is enabled (same gate as the enclosing span). *)
let h_solve = Obs.histogram "periodic_bvp.solve_s"

module Clock = Scnoise_obs.Clock

let timed_hist h f =
  if Obs.is_enabled () then begin
    let t0 = Clock.now () in
    let r = f () in
    Obs.hist_record h (Clock.elapsed t0);
    r
  end
  else f ()

let c_fallback_steps = Obs.counter "bvp_fallback_steps"

(* SCNOISE_REFERENCE_BVP=1 keeps the per-frequency complex-LU stepper
   path as the reference implementation; the default is the
   demodulated path, which reuses one real LU per (phase, h) across
   every frequency of a sweep.  Both compute the same shifted
   trapezoid discretisation (the demodulated solve is refined to below
   1e-13 relative), which the golden-parity tests pin down. *)
let reference_gate =
  ref
    (match Sys.getenv_opt "SCNOISE_REFERENCE_BVP" with
    | None | Some ("" | "0" | "false" | "no") -> false
    | Some _ -> true)

let reference_enabled () = !reference_gate

let set_reference b = reference_gate := b

type t = {
  id : int; (* unique per prepared solver; keys domain-local caches *)
  sys : Pwl.t;
  nstates : int;
  times : float array;
  interval_phase : int array;
  phis : Mat.t array; (* transition Phi(t_i, 0) *)
  cphis : Cmat.t array; (* the same transitions, complexified once *)
  phi_period : Mat.t;
  demods : Ctrapezoid.demod array; (* one per distinct (phase, h) *)
  interval_demod : int array; (* interval i -> index into [demods] *)
  demod_key : (int * float) array; (* demod index -> (phase, h) *)
}

let next_id = Atomic.make 0

(* The homogeneous correction in [close_periodic] needs the transitions
   as complex matrices; materialising them here, once per prepared
   solver, keeps the per-frequency path free of the O(N n^2)
   re-complexification it used to pay on every point.  The demodulated
   steppers (one real LU per distinct (phase, h)) are likewise hoisted:
   they are frequency-independent, so a whole sweep reuses them. *)
let of_sampled (cov : Covariance.sampled) =
  let sys = cov.Covariance.sys in
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
    id = Atomic.fetch_and_add next_id 1;
    sys;
    nstates = sys.Pwl.nstates;
    times;
    interval_phase;
    phis = cov.Covariance.phis;
    cphis = Array.map Cmat.of_real cov.Covariance.phis;
    phi_period = cov.Covariance.phi_period;
    demods = Array.of_list (List.rev !demods);
    interval_demod;
    demod_key = Array.of_list (List.rev !keys);
  }

let times t = Array.copy t.times

let n_points t = Array.length t.times

let n_states t = t.nstates

let interval_phase t = Array.copy t.interval_phase

let make_stepper_cache t omega =
  let shift = Cx.make 0.0 omega in
  let cache : (int * float, Ctrapezoid.stepper) Hashtbl.t =
    Hashtbl.create 64
  in
  fun p h ->
    match Hashtbl.find_opt cache (p, h) with
    | Some st ->
        Obs.incr c_cache_hits;
        st
    | None ->
        Obs.incr c_cache_misses;
        let st = Ctrapezoid.make ~a:t.sys.Pwl.phases.(p).Pwl.a ~shift ~h in
        Hashtbl.add cache (p, h) st;
        st

(* --- per-domain workspace ---

   Everything the hot path needs beyond the returned trajectory lives
   in one domain-local record (same pattern as [Psd.scratch]): pooled
   sweeps get one workspace per worker, so shared engines stay
   read-only. *)
type block_scratch = {
  bs_width : int;
  bs_dim : int;
  bs_work : Ctrapezoid.block_work;
  mutable bs_iters : int array array; (* per demod stepper, per column *)
  bs_p0 : Cvec.panel; (* boundary values P_b(0), one column per frequency *)
  bs_hom : Cvec.panel; (* homogeneous-correction scratch *)
  bs_cr : float array; (* per-column cos(-w_b t_i) *)
  bs_ci : float array; (* per-column sin(-w_b t_i) *)
}

type ws = {
  mutable w_dim : int; (* dimension the buffers are sized for *)
  mutable w_dw : Ctrapezoid.demod_work;
  mutable w_iters : int array; (* per demod stepper, current omega *)
  mutable w_lhs : Cmat.t; (* boundary matrix I - e^{-jwT} Phi *)
  mutable w_lu : Clu.t;
  mutable w_solve : float array; (* Clu.solve_into workspace, 2n *)
  mutable w_p0 : Cvec.t;
  mutable w_hom : Cvec.t;
  mutable w_block : block_scratch option; (* blocked-path panels, lazy *)
  mutable w_owner : int; (* id of the solver whose steppers [w_fb] holds *)
  w_fb : (int, Ctrapezoid.reusable) Hashtbl.t;
      (* fallback steppers of solver [w_owner], keyed by demod index;
         they retune in place when the frequency moves, so a whole
         sweep reuses their buffers *)
}

let ws_key =
  Domain.DLS.new_key (fun () ->
      {
        w_dim = -1;
        w_dw = Ctrapezoid.demod_work 0;
        w_iters = [||];
        w_lhs = Cmat.create 0 0;
        w_lu = Clu.create 0;
        w_solve = [||];
        w_p0 = Cvec.create 0;
        w_hom = Cvec.create 0;
        w_block = None;
        w_owner = -1;
        w_fb = Hashtbl.create 16;
      })

let workspace t =
  let ws = Domain.DLS.get ws_key in
  if ws.w_dim <> t.nstates then begin
    let n = t.nstates in
    ws.w_dim <- n;
    ws.w_dw <- Ctrapezoid.demod_work n;
    ws.w_lhs <- Cmat.create n n;
    ws.w_lu <- Clu.create n;
    ws.w_solve <- Array.make (2 * n) 0.0;
    ws.w_p0 <- Cvec.create n;
    ws.w_hom <- Cvec.create n
  end;
  if Array.length ws.w_iters < Array.length t.demods then
    ws.w_iters <- Array.make (Array.length t.demods) 0;
  (* The fallback steppers belong to one solver: drop them when another
     solver takes the workspace, so a long-lived domain (a serving
     daemon preparing solver after solver) holds one solver's set at
     most instead of every solver it has ever run. *)
  if ws.w_owner <> t.id then begin
    Hashtbl.reset ws.w_fb;
    ws.w_owner <- t.id
  end;
  ws

(* Blocked-path scratch, sized for the current (dimension, width) pair;
   recreated only when either changes, so a tiled sweep reuses one set
   of panels per domain.  The per-stepper iteration table grows with
   the richest solver seen on this domain. *)
let block_scratch t ~width =
  let ws = workspace t in
  let n = t.nstates in
  let fresh () =
    {
      bs_width = width;
      bs_dim = n;
      bs_work = Ctrapezoid.block_work ~dim:n ~width;
      bs_iters =
        Array.init (Array.length t.demods) (fun _ -> Array.make width 0);
      bs_p0 = Cvec.panel_create ~dim:n ~width;
      bs_hom = Cvec.panel_create ~dim:n ~width;
      bs_cr = Array.make width 0.0;
      bs_ci = Array.make width 0.0;
    }
  in
  let bs =
    match ws.w_block with
    | Some bs when bs.bs_width = width && bs.bs_dim = n -> bs
    | _ ->
        let bs = fresh () in
        ws.w_block <- Some bs;
        bs
  in
  if Array.length bs.bs_iters < Array.length t.demods then
    bs.bs_iters <-
      Array.init (Array.length t.demods) (fun _ -> Array.make width 0);
  bs

let check_traj t traj =
  let npts = Array.length t.times in
  if Array.length traj <> npts then
    invalid_arg "Periodic_bvp: trajectory buffer has wrong length";
  for i = 0 to npts - 1 do
    if Cvec.dim traj.(i) <> t.nstates then
      invalid_arg "Periodic_bvp: trajectory buffer has wrong dimension"
  done

let alloc_traj t =
  Array.init (Array.length t.times) (fun _ -> Cvec.create t.nstates)

(* Forced transient from a zero initial condition, written over [traj]
   in place ([traj.(0)] is zeroed; each entry must be a distinct
   buffer).  [kl i]/[kr i] give the forcing at the left and right
   endpoints of interval [i]. *)
let particular_into t ~omega ~kl ~kr traj =
  let npts = Array.length t.times in
  Cvec.fill_zero traj.(0);
  if !reference_gate then begin
    let stepper = make_stepper_cache t omega in
    for i = 1 to npts - 1 do
      let h = t.times.(i) -. t.times.(i - 1) in
      let p = t.interval_phase.(i - 1) in
      Ctrapezoid.step_into (stepper p h) ~p:traj.(i - 1) ~k0:(kl (i - 1))
        ~k1:(kr (i - 1)) ~into:traj.(i)
    done
  end
  else begin
    let ws = workspace t in
    let iters = ws.w_iters in
    for s = 0 to Array.length t.demods - 1 do
      iters.(s) <- Ctrapezoid.demod_iters t.demods.(s) ~omega
    done;
    (* Complex-LU fallback for (phase, h) pairs whose contraction is
       too slow at this frequency.  The steppers live in the
       domain-local workspace and retune (refactor in place) only when
       the frequency moves, so even fallback-heavy sweeps allocate
       nothing per point after warm-up. *)
    for i = 1 to npts - 1 do
      let si = t.interval_demod.(i - 1) in
      let m = iters.(si) in
      if m >= 0 then
        Ctrapezoid.step_demod_into t.demods.(si) ~work:ws.w_dw ~omega ~iters:m
          ~p:traj.(i - 1) ~k0:(kl (i - 1)) ~k1:(kr (i - 1)) ~into:traj.(i)
      else begin
        Obs.incr c_fallback_steps;
        let st =
          match Hashtbl.find ws.w_fb si with
          | st ->
              Obs.incr c_cache_hits;
              st
          | exception Not_found ->
              Obs.incr c_cache_misses;
              let p, h = t.demod_key.(si) in
              let st =
                Ctrapezoid.make_reusable ~a:t.sys.Pwl.phases.(p).Pwl.a ~h
              in
              Hashtbl.add ws.w_fb si st;
              st
        in
        Ctrapezoid.retune st ~omega;
        Ctrapezoid.step_reusable_into st ~p:traj.(i - 1) ~k0:(kl (i - 1))
          ~k1:(kr (i - 1)) ~into:traj.(i)
      end
    done
  end

(* Close the periodic boundary in place: solve for P(0) against the
   rotated monodromy, then add the homogeneous correction to every
   grid point.  Only workspace buffers are touched besides [traj]. *)
let close_periodic_into t ~omega traj =
  let n = t.nstates in
  let period = t.sys.Pwl.period in
  let npts = Array.length traj in
  let ws = workspace t in
  let rot_t = Cx.cis (-.omega *. period) in
  let ld = Cmat.data ws.w_lhs in
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
  Clu.solve_into ws.w_lu ~work:ws.w_solve ~b:traj.(npts - 1) ~into:ws.w_p0;
  Log.debug (fun m ->
      m "BVP closed: %d points, omega = %g rad/s" npts omega);
  (* traj.(i) += e^{-jwt_i} Phi(t_i) P(0).  The rotation is applied
     inline over the flat buffers ([Cvec.axpy_ri_into]'s arithmetic):
     float arguments would be boxed at every call on non-flambda
     builds, and this loop runs once per grid point per frequency. *)
  for i = 0 to npts - 1 do
    let theta = -.omega *. t.times.(i) in
    Cmat.mul_vec_into t.cphis.(i) ws.w_p0 ~into:ws.w_hom;
    let sre = cos theta and sim = sin theta in
    let xd = Cvec.data ws.w_hom and td = Cvec.data traj.(i) in
    for k = 0 to n - 1 do
      let re = xd.(2 * k) and im = xd.((2 * k) + 1) in
      td.(2 * k) <- ((sre *. re) -. (sim *. im)) +. td.(2 * k);
      td.((2 * k) + 1) <- ((sre *. im) +. (sim *. re)) +. td.((2 * k) + 1)
    done
  done

let solve_into t ~omega ~forcing traj =
  check_traj t traj;
  Obs.with_span ~src "periodic_bvp.solve" (fun () ->
      timed_hist h_solve (fun () ->
          Obs.incr c_solves;
          particular_into t ~omega ~kl:forcing ~kr:(fun i -> forcing (i + 1))
            traj;
          close_periodic_into t ~omega traj))

let solve t ~omega ~forcing =
  let traj = alloc_traj t in
  solve_into t ~omega ~forcing traj;
  traj

let solve_piecewise t ~omega ~forcing =
  Obs.with_span ~src "periodic_bvp.solve" (fun () ->
      Obs.incr c_solves;
      let traj = alloc_traj t in
      let npts = Array.length t.times in
      let left = Array.make (max 0 (npts - 1)) (Cvec.create 0) in
      let right = Array.make (max 0 (npts - 1)) (Cvec.create 0) in
      for i = 0 to npts - 2 do
        let k0, k1 = forcing i in
        left.(i) <- k0;
        right.(i) <- k1
      done;
      particular_into t ~omega ~kl:(Array.get left) ~kr:(Array.get right) traj;
      close_periodic_into t ~omega traj;
      traj)

let particular t ~omega ~forcing =
  let traj = alloc_traj t in
  particular_into t ~omega ~kl:forcing ~kr:(fun i -> forcing (i + 1)) traj;
  traj

(* --- blocked multi-frequency solve ---

   [solve_block_into] advances [width] frequencies' envelopes in
   lockstep through the shared phase grid: every interval is one
   {!Ctrapezoid.step_block_into} panel step, so the real LU factors are
   traversed once per block instead of once per frequency.  Column [b]
   of every panel is bitwise identical to the scalar {!solve_into} at
   [omegas.(b)] — the blocked kernels replicate the scalar operation
   sequences per column, and the boundary close below runs the exact
   scalar factor/solve per frequency (the rotated monodromy genuinely
   differs per frequency) before applying the homogeneous correction
   panel-wide. *)

let c_block_solves = Obs.counter "bvp_block_solves"

let can_batch t ~omegas =
  (not !reference_gate)
  && Array.length omegas > 0
  && Array.for_all
       (fun omega ->
         Array.for_all
           (fun d -> Ctrapezoid.demod_refinable d ~omega)
           t.demods)
       omegas

let alloc_block_traj t ~width =
  Array.init (Array.length t.times) (fun _ ->
      Cvec.panel_create ~dim:t.nstates ~width)

let check_block_traj t ~width traj =
  let npts = Array.length t.times in
  if Array.length traj <> npts then
    invalid_arg "Periodic_bvp: block trajectory has wrong length";
  let len = 2 * t.nstates * width in
  for i = 0 to npts - 1 do
    if Array.length traj.(i) <> len then
      invalid_arg "Periodic_bvp: block trajectory has wrong panel size"
  done

let particular_block_into t ~omegas ~forcing traj =
  let width = Array.length omegas in
  let bs = block_scratch t ~width in
  (* Per-(stepper, frequency) refinement counts, recorded through the
     same telemetry as the scalar path.  A negative count means the
     caller skipped [can_batch]. *)
  for s = 0 to Array.length t.demods - 1 do
    let row = bs.bs_iters.(s) in
    for b = 0 to width - 1 do
      let m = Ctrapezoid.demod_iters t.demods.(s) ~omega:omegas.(b) in
      if m < 0 then
        invalid_arg "Periodic_bvp.solve_block_into: unbatchable frequency";
      row.(b) <- m
    done
  done;
  let npts = Array.length t.times in
  Cvec.panel_fill_zero traj.(0);
  for i = 1 to npts - 1 do
    let si = t.interval_demod.(i - 1) in
    Ctrapezoid.step_block_into t.demods.(si) ~work:bs.bs_work ~omegas
      ~iters:bs.bs_iters.(si) ~p:traj.(i - 1) ~k0:(forcing (i - 1))
      ~k1:(forcing i) ~into:traj.(i)
  done

let close_block_into t ~omegas traj =
  let n = t.nstates in
  let width = Array.length omegas in
  let period = t.sys.Pwl.period in
  let npts = Array.length traj in
  let ws = workspace t in
  let bs = block_scratch t ~width in
  (* The rotated monodromy I - e^{-jwT} Phi differs per frequency, so
     the factor/solve here stays per-column — same fill, factorisation
     and solve as the scalar close, against the gathered last column. *)
  for b = 0 to width - 1 do
    let rot_t = Cx.cis (-.omegas.(b) *. period) in
    let ld = Cmat.data ws.w_lhs in
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
    Cvec.panel_get_col traj.(npts - 1) ~width ~col:b ~into:ws.w_hom;
    Clu.solve_into ws.w_lu ~work:ws.w_solve ~b:ws.w_hom ~into:ws.w_p0;
    Cvec.panel_set_col ws.w_p0 bs.bs_p0 ~width ~col:b
  done;
  Log.debug (fun m ->
      m "BVP block closed: %d points, %d frequencies" npts width);
  (* traj.(i) += e^{-jwt_i} Phi(t_i) P_b(0), panel-wide: one blocked
     matvec per grid point, then a per-column rotation axpy whose
     arithmetic matches the scalar close exactly. *)
  for i = 0 to npts - 1 do
    for b = 0 to width - 1 do
      let theta = -.omegas.(b) *. t.times.(i) in
      bs.bs_cr.(b) <- cos theta;
      bs.bs_ci.(b) <- sin theta
    done;
    Cmat.mul_block_into t.cphis.(i) ~width ~x:bs.bs_p0 ~into:bs.bs_hom;
    Cvec.axpy_block_into ~width ~sre:bs.bs_cr ~sim:bs.bs_ci ~x:bs.bs_hom
      ~into:traj.(i)
  done

let solve_block_into t ~omegas ~forcing traj =
  let width = Array.length omegas in
  if width < 1 then invalid_arg "Periodic_bvp.solve_block_into: empty block";
  if !reference_gate then
    invalid_arg
      "Periodic_bvp.solve_block_into: reference backend is per-frequency";
  check_block_traj t ~width traj;
  Obs.with_span ~src "periodic_bvp.solve_block" (fun () ->
      timed_hist h_solve (fun () ->
          Obs.add c_solves width;
          Obs.incr c_block_solves;
          particular_block_into t ~omegas ~forcing traj;
          close_block_into t ~omegas traj))
