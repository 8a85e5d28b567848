(* A periodic-BVP solver over a PSD engine's covariance and output row,
   driven by the PSD forcing K(t_i) c but built apart from the engine —
   forcing and rows from the dense per-interval recursion
   ([Oracle.output_trace]) — so tests and benchmarks
   reach the solve layer's complex output samples and the dense
   reference ([Oracle.bvp_reference]) directly. *)

module Cvec = Scnoise_linalg.Cvec
module Bvp = Scnoise_core.Periodic_bvp
module Psd = Scnoise_core.Psd

(* [reference] is [Oracle.bvp_reference] on the same covariance,
   rows and forcing as [bvp] and [prepared] *)
type t = {
  bvp : Bvp.t;
  prepared : Bvp.forcing;
  reference : omegas:float array -> Cvec.panel -> unit;
}

let of_engine eng =
  let cov = Psd.covariance eng and c = Psd.output eng in
  let forcing, _, rows = Oracle.output_trace cov c in
  let bvp = Bvp.of_sampled cov ~output:c ~rows in
  let forcing = Array.map Cvec.of_real forcing in
  let kl = Array.get forcing and kr i = forcing.(i + 1) in
  {
    bvp;
    prepared = Bvp.forcing bvp ~kl ~kr;
    reference = Oracle.bvp_reference cov ~output:c ~rows ~kl ~kr;
  }

(* [y] is a panel of [n_points] entries by [Array.length omegas]
   columns *)
let solve ?(reference = false) fx ~omegas y =
  if reference then fx.reference ~omegas y
  else Bvp.solve fx.bvp ~omegas ~forcing:fx.prepared y

(* The output samples y(t_i) = cᵀ P(t_i) of one width-1 solve at [f]. *)
let samples ?reference fx ~f =
  let y = Cvec.create (Bvp.n_points fx.bvp) in
  solve ?reference fx ~omegas:[| 2.0 *. Float.pi *. f |] (Cvec.data y);
  y

(* The PSD from width-1 reference solves (complex LU on every interval),
   reduced here rather than by [Psd]: the oracle shares only the
   prepared grid and covariance with the engine under test. *)
let reference_psd fx ~period freqs =
  let times = Bvp.times fx.bvp in
  Array.map
    (fun f ->
      let y = Cvec.data (samples ~reference:true fx ~f) in
      let s = Array.init (Array.length times) (fun i -> 2.0 *. y.(2 * i)) in
      Scnoise_util.Grid.trapezoid times s /. period)
    freqs
