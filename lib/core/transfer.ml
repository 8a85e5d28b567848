module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Pwl = Scnoise_circuit.Pwl
module Grid = Scnoise_util.Grid

type engine = {
  sys : Pwl.t;
  bvp : Periodic_bvp.t;
  times : float array;
  interval_phase : int array;
}

(* The noise engine's solver was prepared from the same sampled grid
   and output row, and a solve takes any forcing, so transfer functions
   share it rather than sampling the covariance again. *)
let of_psd psd =
  let cov = Psd.covariance psd in
  {
    sys = cov.Covariance.sys;
    bvp = Psd.bvp psd;
    times = cov.Covariance.times;
    interval_phase = cov.Covariance.interval_phase;
  }

let prepare ?samples_per_phase ?grid sys ~output =
  of_psd (Psd.prepare ?samples_per_phase ?grid sys ~output)

let n_inputs e = Array.length e.sys.Pwl.inputs

(* The steady state for input e^{jwt} with per-phase forcing column b_p is
   x(t) = e^{jwt} P(t) with dP/dt = (A - jw) P + b_{phase(t)}; the output
   envelope cᵀP(t) is T-periodic and its Fourier coefficients are the
   harmonic transfer functions. *)
let response e ~forcing ~f ~k_range =
  if k_range < 0 then invalid_arg "Transfer.response: k_range < 0";
  let omega = 2.0 *. Float.pi *. f in
  let cols = Array.map forcing (Array.init (Pwl.n_phases e.sys) (fun p -> p)) in
  (* the input column switches with the clock: both endpoints of an
     interval take that interval's phase *)
  let k i = cols.(e.interval_phase.(i)) in
  let y = Cvec.create (Array.length e.times) in
  Periodic_bvp.solve e.bvp ~omegas:[| omega |]
    ~forcing:(Periodic_bvp.forcing e.bvp ~kl:k ~kr:k)
    (Cvec.data y);
  let y = Cvec.to_array y in
  let period = e.sys.Pwl.period in
  let wc = 2.0 *. Float.pi /. period in
  Array.init
    ((2 * k_range) + 1)
    (fun idx ->
      let k = idx - k_range in
      (* (1/T) ∫ y(t) e^{-j k wc t} dt over the (non-uniform) grid *)
      let re =
        Grid.trapezoid e.times
          (Array.mapi
             (fun i (z : Cx.t) ->
               let ph = -.float_of_int k *. wc *. e.times.(i) in
               (z.Cx.re *. cos ph) -. (z.Cx.im *. sin ph))
             y)
      in
      let im =
        Grid.trapezoid e.times
          (Array.mapi
             (fun i (z : Cx.t) ->
               let ph = -.float_of_int k *. wc *. e.times.(i) in
               (z.Cx.re *. sin ph) +. (z.Cx.im *. cos ph))
             y)
      in
      Cx.make (re /. period) (im /. period))

let harmonics e ~input ~f ~k_range =
  if input < 0 || input >= n_inputs e then
    invalid_arg "Transfer.harmonics: input index out of range";
  let omega = 2.0 *. Float.pi *. f in
  (* u = e^{jwt}: the forcing is E u + Edot du/dt = (E + jw Edot) e^{jwt} *)
  let forcing p =
    let e_col = Mat.col e.sys.Pwl.phases.(p).Pwl.e input in
    let edot_col = Mat.col e.sys.Pwl.phases.(p).Pwl.e_dot input in
    Cvec.init (Array.length e_col) (fun i ->
        Cx.make e_col.(i) (omega *. edot_col.(i)))
  in
  response e ~forcing ~f ~k_range

let gain e ~input ~f =
  (harmonics e ~input ~f ~k_range:0).(0)
