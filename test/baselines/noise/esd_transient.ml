module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Cx = Scnoise_linalg.Cx
module Vanloan = Scnoise_linalg.Vanloan
module Trapezoid = Scnoise_ode.Trapezoid
module Covariance = Scnoise_core.Covariance
module Pwl = Scnoise_circuit.Pwl
module Db = Scnoise_util.Db
module Obs = Scnoise_obs.Obs

type result = {
  psd : float;
  periods : int;
  history : (float * float) array;
}

let c_cache_hits = Obs.counter "stepper_cache_hits"

let c_cache_misses = Obs.counter "stepper_cache_misses"

let c_periods = Obs.counter "esd_periods"

let psd ?samples_per_phase ?grid ?(tol_db = 0.1) ?(window_periods = 3)
    ?(min_periods = 4) ?(max_periods = 20_000) ?(init = `Zero) (sys : Pwl.t)
    ~output ~f =
  Obs.with_span "esd_transient.psd" @@ fun () ->
  let n = sys.Pwl.nstates in
  if Array.length output <> n then
    invalid_arg "Esd_transient.psd: output row length";
  let g = Covariance.discretized_grid ?samples_per_phase ?grid sys in
  let times = g.Covariance.g_times in
  let npts = Array.length times in
  let omega = 2.0 *. Float.pi *. f in
  (* steppers for K' (unshifted, so real: K' steps as its real and
     imaginary parts), cached per (phase, h) *)
  let cache : (int * float, Trapezoid.stepper) Hashtbl.t = Hashtbl.create 64 in
  let stepper p h =
    match Hashtbl.find_opt cache (p, h) with
    | Some st ->
        Obs.incr c_cache_hits;
        st
    | None ->
        Obs.incr c_cache_misses;
        let st = Trapezoid.make ~a:sys.Pwl.phases.(p).Pwl.a ~h in
        Hashtbl.add cache (p, h) st;
        st
  in
  let k =
    ref
      (match init with
      | `Zero -> Mat.create n n
      | `Periodic -> (Covariance.sample ?samples_per_phase sys).Covariance.k0)
  in
  let k' = ref (Vec.create n, Vec.create n) in
  let k'' = ref 0.0 in
  let history = ref [] in
  (* K c e^{jwt} *)
  let forcing_at kmat t =
    let base = Mat.mul_vec kmat output in
    (Vec.scale (cos (omega *. t)) base, Vec.scale (sin (omega *. t)) base)
  in
  let integrand (re, im) t =
    (* 2 Re (e^{-jwt} cᵀ K') *)
    let rot = Cx.cis (-.omega *. t) in
    2.0 *. ((rot.Cx.re *. Vec.dot output re) -. (rot.Cx.im *. Vec.dot output im))
  in
  let rec run period =
    if period > max_periods then
      failwith "Esd_transient.psd: max_periods exceeded without convergence";
    Obs.incr c_periods;
    let t_base = float_of_int (period - 1) *. sys.Pwl.period in
    let fprev = ref (forcing_at !k (t_base +. times.(0))) in
    let gprev = ref (integrand !k' (t_base +. times.(0))) in
    for i = 1 to npts - 1 do
      let t_abs = t_base +. times.(i) in
      let h = times.(i) -. times.(i - 1) in
      let p = g.Covariance.g_phase.(i - 1) in
      (* exact covariance substep *)
      k := Vanloan.propagate g.Covariance.g_disc.(i - 1) !k;
      (* cross-spectral density trapezoidal substep *)
      let fnext = forcing_at !k t_abs in
      let st = stepper p h and (re, im) = !k' and (f0re, f0im) = !fprev in
      let f1re, f1im = fnext in
      k' :=
        ( Trapezoid.step st ~x:re ~f0:f0re ~f1:f1re,
          Trapezoid.step st ~x:im ~f0:f0im ~f1:f1im );
      fprev := fnext;
      (* ESD accumulation *)
      let gnext = integrand !k' t_abs in
      k'' := !k'' +. (0.5 *. h *. (!gprev +. gnext));
      gprev := gnext
    done;
    let t_now = float_of_int period *. sys.Pwl.period in
    let est = !k'' /. t_now in
    history := (t_now, est) :: !history;
    let converged =
      period >= min_periods + window_periods
      &&
      let recent =
        List.filteri (fun i _ -> i <= window_periods) !history
      in
      match recent with
      | [] -> false
      | (_, latest) :: older ->
          List.for_all
            (fun (_, e) -> abs_float (Db.of_power latest -. Db.of_power e) < tol_db)
            older
    in
    if converged then begin
      let est = !k'' /. t_now in
      { psd = est; periods = period; history = Array.of_list (List.rev !history) }
    end
    else run (period + 1)
  in
  run 1

let sweep ?samples_per_phase ?grid ?tol_db ?window_periods ?min_periods
    ?max_periods ?init sys ~output freqs =
  Array.map
    (fun f ->
      (psd ?samples_per_phase ?grid ?tol_db ?window_periods ?min_periods
         ?max_periods ?init sys ~output ~f)
        .psd)
    freqs
