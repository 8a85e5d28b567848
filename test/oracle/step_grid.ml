(* A prepared PSD engine's grid for the shifted Schur step, and that
   step checked against [Oracle.schur_step], the general-coefficient
   step it specialises.  Each phase's real Schur T, the grid's steps
   and the forcing h/2 Zᵀ(k_i + k_{i+1}) are the circuit's own; the
   state is carried across phase boundaries unrotated, which is all a
   kernel check needs.  Columns restart where the phase or the step
   changes. *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Cvec = Scnoise_linalg.Cvec
module Eig = Scnoise_linalg.Eig
module Ctrapezoid = Scnoise_ode.Ctrapezoid
module Pwl = Scnoise_circuit.Pwl
module Covariance = Scnoise_core.Covariance
module Psd = Scnoise_core.Psd

type t = {
  n : int;
  times : float array;
  phase : int array; (* interval -> phase *)
  schur : Mat.t array; (* per phase: T *)
  tri : Ctrapezoid.quasi array;
  g : Cvec.t array; (* per interval: h/2 Zᵀ(k_i + k_{i+1}) *)
}

let of_engine e =
  let cov = Psd.covariance e in
  let sys = cov.Covariance.sys in
  let k, _, _ = Oracle.output_trace cov (Psd.output e) in
  let times = cov.Covariance.times and phase = cov.Covariance.interval_phase in
  let reduced = Array.map (fun ph -> Eig.schur ph.Pwl.a) sys.Pwl.phases in
  {
    n = sys.Pwl.nstates;
    times;
    phase;
    schur = Array.map fst reduced;
    tri = Array.map (fun (t, _) -> Ctrapezoid.quasi t) reduced;
    g =
      Array.init (Array.length times - 1) (fun i ->
          Cvec.of_real
            (Vec.scale
               (0.5 *. (times.(i + 1) -. times.(i)))
               (Mat.mul_transpose_vec (snd reduced.(phase.(i)))
                  (Vec.add k.(i) k.(i + 1)))));
  }

let steps t = Array.length t.times - 1

let h t i = t.times.(i + 1) -. t.times.(i)

let restart t i = i = 0 || t.phase.(i) <> t.phase.(i - 1) || h t i <> h t (i - 1)

(* Panels for [Array.length omegas] columns and one walk of the grid
   through them from a zero state; [check i p into] sees each step's
   input and output. *)
let walker t ~omegas =
  let width = Array.length omegas in
  let st = Ctrapezoid.schur_create ~dim:t.n ~width in
  let p = Cvec.panel_create ~dim:t.n ~width
  and into = Cvec.panel_create ~dim:t.n ~width in
  fun check ->
    Cvec.panel_fill_zero p;
    for i = 0 to steps t - 1 do
      if restart t i then
        Array.iteri
          (fun col omega ->
            Ctrapezoid.schur_start_shifted st ~tmat:t.tri.(t.phase.(i)) ~h:(h t i)
              ~col ~omega)
          omegas;
      Ctrapezoid.step_schur_into st ~g:t.g.(i) ~p ~into;
      check i p into;
      Array.blit into 0 p 0 (Array.length p)
    done

let column ~width a b =
  Array.init (Array.length a / (2 * width)) (fun r ->
      { Complex.re = a.(2 * ((r * width) + b)); im = a.((2 * ((r * width) + b)) + 1) })

(* [Oracle.schur_step] on column [b] of panel [p] at step [i] *)
let reference t ~omegas ~p i b =
  let w = 0.5 *. h t i in
  Oracle.schur_step ~t:t.schur.(t.phase.(i))
    ~d:{ Complex.re = 1.0; im = w *. omegas.(b) }
    ~alpha:{ Complex.re = w; im = 0.0 }
    ~p:(column ~width:(Array.length omegas) p b)
    ~g:(Array.init t.n (Cvec.get t.g.(i)))

let flat zs =
  Array.concat (List.map (fun (z : Complex.t) -> [| z.re; z.im |]) (Array.to_list zs))

(* Whether every column of every step of one walk at [omegas] equals
   [reference] bit for bit. *)
let matches_reference t ~omegas =
  let width = Array.length omegas and equal = ref true in
  walker t ~omegas (fun i p into ->
      for b = 0 to width - 1 do
        if
          not
            (Oracle.bits_equal
               (flat (reference t ~omegas ~p i b))
               (flat (column ~width into b)))
        then equal := false
      done);
  !equal
