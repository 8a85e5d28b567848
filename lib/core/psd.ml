module Vec = Scnoise_linalg.Vec
module Cvec = Scnoise_linalg.Cvec
module Pwl = Scnoise_circuit.Pwl
module Grid = Scnoise_util.Grid
module Obs = Scnoise_obs.Obs
module Pool = Scnoise_par.Pool

let c_points = Obs.counter "psd_points"

(* Wall time per frequency point (a block of B points records B samples
   of a B-th of its time).  Recording is a single atomic add, but the
   two extra clock reads are only worth paying when telemetry has been
   asked for, so the hot path gates on [Obs.is_enabled]. *)
let h_point = Obs.histogram "psd.point_s"

(* Columns per block solve (exact integer buckets): tail blocks
   narrower than the sweep's width show up as sub-width entries. *)
let h_batch_width =
  Obs.histogram ~mode:Scnoise_obs.Hist.Counts "psd.batch_width"

type engine = {
  cov : Covariance.sampled;
  bvp : Periodic_bvp.t;
  out_row : Vec.t;
  forcing : Periodic_bvp.forcing; (* k(t_i) = K(t_i) c *)
  variance : Covariance.variance;
}

(* The output row is known here, so this is where the covariance trace
   is unrolled: one pass yields the forcing k(t_i) = K(t_i) c, the
   variance cᵀ k(t_i) and the solver's rows cᵀ Phi(t_i, 0), and no
   K(t_i) or Phi(t_i, 0) is formed. *)
let of_sampled cov ~output =
  if Array.length output <> cov.Covariance.sys.Pwl.nstates then
    invalid_arg "Psd.of_sampled: output row has wrong length";
  let { Covariance.forcing; rows; variance } =
    Covariance.output_trace cov output
  in
  let k = Array.map Cvec.of_real forcing in
  let bvp = Periodic_bvp.of_sampled cov ~output ~rows in
  (* k(t) is continuous across grid points: interval [i] runs from
     k.(i) to k.(i + 1) *)
  {
    cov;
    bvp;
    out_row = output;
    forcing =
      Periodic_bvp.forcing bvp ~kl:(Array.get k) ~kr:(fun i -> k.(i + 1));
    variance;
  }

let prepare ?samples_per_phase ?grid ?pool sys ~output =
  Obs.with_span "psd.prepare" (fun () ->
      let cov = Covariance.sample ?samples_per_phase ?grid ?pool sys in
      of_sampled cov ~output)

let output e = Vec.copy e.out_row

let covariance e = e.cov

let bvp e = e.bvp

(* Output samples y_b(t_i) = cᵀ P_b(t_i) of one width-[width] solve. *)
let solve_into e ~omegas y =
  Periodic_bvp.solve e.bvp ~omegas ~forcing:e.forcing y

let instantaneous e ~f =
  (* S_v(t, f) = d(ESD)/dt = 2 Re (cᵀ P(t)): the instantaneous spectral
     density over one clock period in steady state *)
  let npts = Periodic_bvp.n_points e.bvp in
  let y = Cvec.panel_create ~dim:npts ~width:1 in
  solve_into e ~omegas:[| 2.0 *. Float.pi *. f |] y;
  (Periodic_bvp.times e.bvp, Array.init npts (fun i -> 2.0 *. y.(2 * i)))

(* Per-domain output buffer of the last block shape, so a parallel sweep
   allocates none per block (each pool worker keeps its own). *)
let out_key = Domain.DLS.new_key (fun () -> ref [||])

let out_scratch len =
  let cell = Domain.DLS.get out_key in
  if Array.length !cell <> len then cell := Array.make len 0.0;
  !cell

(* The PSD at every frequency of one block: one periodic-BVP solve for
   the whole block, then each column's output samples reduced to
   (1/T) Int 2 Re y(t) dt by [Grid.trapezoid]'s accumulation. *)
let psd_block e ~omegas =
  let len = Array.length omegas in
  Obs.timed_parts h_point ~parts:len (fun () ->
      Obs.add c_points len;
      Obs.hist_record_int h_batch_width len;
      let period = e.cov.Covariance.sys.Pwl.period in
      let times = e.cov.Covariance.times in
      let npts = Array.length times in
      let y = out_scratch (2 * npts * len) in
      solve_into e ~omegas y;
      let out = Array.make len 0.0 in
      for b = 0 to len - 1 do
        let acc = ref 0.0 in
        for i = 0 to npts - 2 do
          let v0 = 2.0 *. y.(2 * ((i * len) + b))
          and v1 = 2.0 *. y.(2 * (((i + 1) * len) + b)) in
          acc := !acc +. (0.5 *. (v0 +. v1) *. (times.(i + 1) -. times.(i)))
        done;
        out.(b) <- !acc /. period
      done;
      out)

let psd e ~f = (psd_block e ~omegas:[| 2.0 *. Float.pi *. f |]).(0)

let psd_db e ~f = Scnoise_util.Db.of_power (psd e ~f)

(* --- block width ---

   A sweep is tiled into blocks of at most [max_width] frequencies,
   each advanced in lockstep through the phase grid by one
   [Periodic_bvp.solve].  A block shares each entry of the phase's
   Schur matrix across groups of 4 columns with independent sums, so
   it wins at every circuit size: EXP-S3's width tables read 16 within
   noise of the best width from 1 to 100 states.  The blocks are near
   equal, ⌈npoints/16⌉ of them, so no sweep ends in a narrow tail. *)
let max_width = 16

let n_blocks ~npoints = (npoints + max_width - 1) / max_width

let batch_width (_ : engine) ~npoints =
  if npoints < 2 then 1
  else
    let nb = n_blocks ~npoints in
    (npoints + nb - 1) / nb

(* Each block of a sweep is an independent read-only BVP solve over the
   prepared engine, so fanning blocks out across the pool is safe and —
   because [Pool.map] places results by index — bit-identical to the
   serial sweep at any job count.  Edge cases stay off the heavy
   machinery: an empty sweep returns immediately without touching the
   pool, and a single point runs at width 1 without it. *)
let sweep ?pool e freqs =
  let nf = Array.length freqs in
  if nf = 0 then [||]
  else if nf = 1 then
    Obs.with_span "psd.sweep" (fun () -> [| psd e ~f:freqs.(0) |])
  else begin
    let pool = match pool with Some p -> p | None -> Pool.global () in
    Obs.with_span "psd.sweep" (fun () ->
        let nblocks = n_blocks ~npoints:nf in
        let starts = Array.init (nblocks + 1) (fun k -> k * nf / nblocks) in
        let chunks =
          Pool.map pool
            (fun k start ->
              let len = starts.(k + 1) - start in
              psd_block e
                ~omegas:
                  (Array.init len (fun i -> 2.0 *. Float.pi *. freqs.(start + i))))
            (Array.sub starts 0 nblocks)
        in
        let out = Array.make nf 0.0 in
        Array.iteri
          (fun k vals -> Array.blit vals 0 out starts.(k) (Array.length vals))
          chunks;
        out)
  end

let sweep_db ?pool e freqs =
  Array.map Scnoise_util.Db.of_power (sweep ?pool e freqs)

let variance e = e.variance

let average_variance e = e.variance.Covariance.average

let integrated_noise ?(points = 400) ?pool e ~fmin ~fmax =
  if fmax <= fmin then invalid_arg "Psd.integrated_noise: fmax <= fmin";
  if points < 2 then invalid_arg "Psd.integrated_noise: points < 2";
  let freqs = Grid.linspace fmin fmax points in
  let s = sweep ?pool e freqs in
  (* double-sided PSD: a [fmin, fmax] band with fmin >= 0 also collects
     the mirrored negative-frequency band *)
  2.0 *. Grid.trapezoid freqs s
