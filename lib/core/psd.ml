module Vec = Scnoise_linalg.Vec
module Cvec = Scnoise_linalg.Cvec
module Pwl = Scnoise_circuit.Pwl
module Grid = Scnoise_util.Grid
module Obs = Scnoise_obs.Obs
module Pool = Scnoise_par.Pool

let c_points = Obs.counter "psd_points"

(* Sweep points that took at least one complex-LU fallback step (some
   (phase, h) stepper's refinement would not converge fast enough at
   that frequency); shows how much of a sweep ran off the real-LU
   kernels, next to psd.batch_width. *)
let c_unbatched_points = Obs.counter "psd.unbatched_points"

(* Wall time per frequency point (a block of B points records B samples
   of a B-th of its time).  Recording is a single atomic add, but the
   two extra clock reads are only worth paying when telemetry has been
   asked for, so the hot path gates on [Obs.is_enabled]. *)
let h_point = Obs.histogram "psd.point_s"

type engine = {
  cov : Covariance.sampled;
  bvp : Periodic_bvp.t;
  out_row : Vec.t;
  forcing : Cvec.t array; (* k(t_i) = K(t_i) c, as complex vectors *)
}

let of_sampled cov ~output =
  if Array.length output <> cov.Covariance.sys.Pwl.nstates then
    invalid_arg "Psd.of_sampled: output row has wrong length";
  let forcing =
    Array.map
      (fun k -> Cvec.of_real (Scnoise_linalg.Mat.mul_vec k output))
      cov.Covariance.ks
  in
  { cov; bvp = Periodic_bvp.of_sampled cov; out_row = output; forcing }

let prepare ?solver ?samples_per_phase ?grid ?pool sys ~output =
  Obs.with_span "psd.prepare" (fun () ->
      let cov = Covariance.sample ?solver ?samples_per_phase ?grid ?pool sys in
      of_sampled cov ~output)

let output e = Vec.copy e.out_row

let covariance e = e.cov

(* Per-domain panel trajectories, most recent first, keyed by shape;
   each is overwritten wholesale by every solve, so reuse across points
   is safe and the per-point minor-heap traffic collapses to
   bookkeeping.  One circuit legitimately uses up to three widths — the
   block width, a narrower tail block and width 1 for single points —
   so the cache keeps enough shapes for a few circuits in rotation (a
   serving daemon's mix) instead of reallocating whole trajectories on
   every alternation. *)
let traj_key : (int * int * Cvec.panel array) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let traj_max_cached = 12

let traj_scratch bvp ~width =
  let npts = Periodic_bvp.n_points bvp in
  let len = 2 * Periodic_bvp.n_states bvp * width in
  let _, _, tr =
    Scnoise_util.Mru.find (Domain.DLS.get traj_key) ~cap:traj_max_cached
      ~matches:(fun (w, l, tr) ->
        w = width && l = len && Array.length tr = npts)
      ~make:(fun () -> (width, len, Periodic_bvp.alloc_traj bvp ~width))
  in
  tr

(* k(t) is continuous across grid points: interval [i] runs from
   forcing.(i) to forcing.(i + 1). *)
let solve_into e ~omegas traj =
  Periodic_bvp.solve e.bvp ~omegas ~kl:(Array.get e.forcing)
    ~kr:(fun i -> e.forcing.(i + 1))
    traj

let envelope e ~f =
  let traj = Periodic_bvp.alloc_traj e.bvp ~width:1 in
  solve_into e ~omegas:[| 2.0 *. Float.pi *. f |] traj;
  Array.map Cvec.of_data traj

(* S_v(t_i, f) = 2 Re (cᵀ P(t_i)) from one envelope sample.  A plain
   counted loop: closing over the accumulator would force it onto the
   heap (non-flambda builds only unbox refs that stay local). *)
let instantaneous_value e p =
  let d = Cvec.data p in
  let c = e.out_row in
  let s = ref 0.0 in
  for i = 0 to Array.length c - 1 do
    s := !s +. (c.(i) *. d.(2 * i))
  done;
  2.0 *. !s

let instantaneous e ~f =
  (* S_v(t, f) = d(ESD)/dt = 2 Re (cᵀ P(t)): the instantaneous spectral
     density over one clock period in steady state *)
  let env = envelope e ~f in
  (Periodic_bvp.times e.bvp, Array.map (instantaneous_value e) env)

(* Per-domain scratch for the instantaneous samples of one frequency
   point, so a parallel sweep allocates no temporary per point (each
   pool worker keeps its own buffer). *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch n =
  let cell = Domain.DLS.get scratch_key in
  if Array.length !cell < n then cell := Array.make n 0.0;
  !cell

(* The PSD at every frequency of one block: one periodic-BVP solve for
   the whole block, then each panel column reduced to
   (1/T) Int 2 Re (cᵀ P(t)) dt.  The dot product of
   [instantaneous_value] is inlined (a float returned across a function
   boundary is boxed per grid point on non-flambda builds) and the
   trapezoid keeps [Grid.trapezoid]'s accumulation order over the
   (possibly longer) scratch buffer. *)
let psd_block e ~omegas =
  let len = Array.length omegas in
  Obs.timed_parts h_point ~parts:len (fun () ->
      Obs.add c_points len;
      Obs.add c_unbatched_points (Periodic_bvp.fallback_columns e.bvp ~omegas);
      let period = e.cov.Covariance.sys.Pwl.period in
      let times = e.cov.Covariance.times in
      let traj = traj_scratch e.bvp ~width:len in
      solve_into e ~omegas traj;
      let npts = Array.length traj in
      let values = scratch npts in
      let c = e.out_row in
      let nst = Array.length c in
      let out = Array.make len 0.0 in
      for b = 0 to len - 1 do
        for i = 0 to npts - 1 do
          let d = traj.(i) in
          let s = ref 0.0 in
          for j = 0 to nst - 1 do
            s := !s +. (c.(j) *. d.(2 * ((j * len) + b)))
          done;
          values.(i) <- 2.0 *. !s
        done;
        let acc = ref 0.0 in
        for i = 0 to npts - 2 do
          acc :=
            !acc
            +. (0.5 *. (values.(i) +. values.(i + 1))
               *. (times.(i + 1) -. times.(i)))
        done;
        out.(b) <- !acc /. period
      done;
      out)

let psd e ~f = (psd_block e ~omegas:[| 2.0 *. Float.pi *. f |]).(0)

let psd_db e ~f = Scnoise_util.Db.of_power (psd e ~f)

(* --- batch-width selection ---

   A sweep is tiled into width-B frequency blocks, each advanced in
   lockstep through the phase grid by one [Periodic_bvp.solve].  At
   [B = 1] the solve runs the single-RHS kernels; larger widths
   amortise each factor traversal over B right-hand sides.  Resolution order: explicit [?batch] argument,
   then [set_default_batch], then an auto width from the state count
   and a cache budget. *)

let batch_override = ref 0 (* 0 = unset *)

let set_default_batch b =
  if b < 1 then invalid_arg "Psd.set_default_batch: batch < 1";
  batch_override := b

(* Keep the blocked working set — three stepper panels plus the two
   trajectory panels touched per interval, ~80 n bytes per column —
   inside a conservative 128 KiB slice of L2 next to the real factors
   and the demod rhs (16 n^2 bytes), capped at 16 columns: panel rows
   past that stop fitting in cache lines' worth of registers anyway. *)
let auto_batch ~nstates =
  if nstates < 1 then 1
  else
    let budget = (131072 - (16 * nstates * nstates)) / (80 * nstates) in
    max 1 (min 16 budget)

(* The process-wide width when one was pinned ([set_default_batch]);
   [None] means sweeps auto-tune per engine. *)
let configured_batch () =
  if !batch_override > 0 then Some !batch_override else None

let resolve_batch ?batch e ~npoints =
  let b =
    match batch with
    | Some b ->
        if b < 1 then invalid_arg "Psd.sweep: batch < 1";
        b
    | None -> (
        match configured_batch () with
        | Some b -> b
        | None -> auto_batch ~nstates:(Array.length e.out_row))
  in
  max 1 (min b npoints)

let batch_width ?batch e ~npoints =
  if npoints < 2 then 1 else resolve_batch ?batch e ~npoints

(* Each block of a sweep is an independent read-only BVP solve over the
   prepared engine, so fanning blocks out across the pool is safe and —
   because [Pool.map] places results by index — bit-identical to the
   serial sweep at any job count.  Edge cases stay off the heavy
   machinery: an empty sweep returns immediately without touching the
   pool, and a single point runs at width 1 without it. *)
let sweep ?pool ?batch e freqs =
  let nf = Array.length freqs in
  if nf = 0 then [||]
  else if nf = 1 then
    Obs.with_span "psd.sweep" (fun () -> [| psd e ~f:freqs.(0) |])
  else begin
    let pool = match pool with Some p -> p | None -> Pool.global () in
    let width = resolve_batch ?batch e ~npoints:nf in
    Obs.with_span "psd.sweep" (fun () ->
        let nblocks = (nf + width - 1) / width in
        let starts = Array.init nblocks (fun k -> k * width) in
        let chunks =
          Pool.map pool
            (fun _ start ->
              let len = min width (nf - start) in
              psd_block e
                ~omegas:
                  (Array.init len (fun i -> 2.0 *. Float.pi *. freqs.(start + i))))
            starts
        in
        let out = Array.make nf 0.0 in
        Array.iteri
          (fun k vals -> Array.blit vals 0 out starts.(k) (Array.length vals))
          chunks;
        out)
  end

let sweep_db ?pool ?batch e freqs =
  Array.map Scnoise_util.Db.of_power (sweep ?pool ?batch e freqs)

let average_variance e = Covariance.average_variance e.cov e.out_row

let integrated_noise ?(points = 400) ?pool ?batch e ~fmin ~fmax =
  if fmax <= fmin then invalid_arg "Psd.integrated_noise: fmax <= fmin";
  if points < 2 then invalid_arg "Psd.integrated_noise: points < 2";
  let freqs = Grid.linspace fmin fmax points in
  let s = sweep ?pool ?batch e freqs in
  (* double-sided PSD: a [fmin, fmax] band with fmin >= 0 also collects
     the mirrored negative-frequency band *)
  2.0 *. Grid.trapezoid freqs s
