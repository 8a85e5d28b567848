module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Vanloan = Scnoise_linalg.Vanloan
module Lyapunov = Scnoise_linalg.Lyapunov
module Pwl = Scnoise_circuit.Pwl
module Obs = Scnoise_obs.Obs
module Pool = Scnoise_par.Pool

let src = Logs.Src.create "scnoise.covariance" ~doc:"periodic covariance solver"

module Log = (val Logs.src_log src : Logs.LOG)

let c_samples = Obs.counter "covariance_samples"


type grid_kind = [ `Stretched | `Uniform ]

type sampled = {
  sys : Pwl.t;
  times : float array;
  interval_phase : int array;
  ops : Vanloan.t array;
  interval_op : int array;
  phis : Mat.t array;
  k0 : Mat.t;
  phi_period : Mat.t;
  q_period : Mat.t;
  peak_rank : int;
}

(* The trace is streamed ({!iter_trace}), never stored. *)
let ks_bytes _ = 0

let held_bytes s =
  let bytes m = 8 * Mat.rows m * Mat.cols m in
  (* [phi_period] is the last transition, shared physically *)
  Array.fold_left (fun acc m -> acc + bytes m) 0 s.phis
  + Array.fold_left
      (fun acc (d : Vanloan.t) ->
        acc + bytes d.Vanloan.phi + bytes d.Vanloan.qd)
      0 s.ops
  + bytes s.k0 + bytes s.q_period

(* --- the discretised grid ---

   Flattened grid over one period: absolute times, the phase owning
   each interval, and one Van Loan discretisation per DISTINCT
   (phase, step) pair.  The stretched grid repeats a handful of step
   sizes across ~2x96 intervals, so memoising the interval operators
   replaces one 2n x 2n augmented exponential per interval by one per
   distinct step. *)
type discretized_grid = {
  g_times : float array;
  g_phase : int array;
  g_ops : Vanloan.t array;
  g_op : int array;
  g_disc : Vanloan.t array;
}

(* Memo key of an interval's step.  Consecutive differences of the
   grid's uniform section jitter in the last few mantissa bits, so the
   key quantises the step to ~1e-12 relative (rounding the low 12
   mantissa bits away) and steps that close share the first-seen
   step's operator.  The transition's sensitivity to a step
   perturbation scales with norm(A)·h, so the merge only applies to
   non-stiff intervals; stiff intervals use exact step bits. *)
let merge_stiffness_cap = 16.0

let step_key ~norm_a h =
  if norm_a *. h <= merge_stiffness_cap then
    Int64.logand
      (Int64.add (Int64.bits_of_float h) 0x800L)
      (Int64.lognot 0xFFFL)
  else Int64.bits_of_float h

let default_samples_per_phase = 96

let discretized_grid ?(samples_per_phase = default_samples_per_phase)
    ?(grid = `Stretched) ?pool (sys : Pwl.t) =
  (* The layout and the memo are cheap and stay serial, assigning
     operators in first-occurrence order; the distinct discretisations
     (a matrix exponential each) are independent, so they fan out
     across the pool and land by index, making the parallel grid
     bit-identical to the serial one. *)
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let times = ref [ 0.0 ] and phases = ref [] and ops = ref [] in
  let distinct = ref [] and count = ref 0 in
  let memo = Hashtbl.create 32 in
  let offset = ref 0.0 in
  Array.iteri
    (fun p (ph : Pwl.phase) ->
      let local =
        match grid with
        | `Stretched ->
            Phase_grid.make ~a:ph.Pwl.a ~tau:ph.Pwl.tau ~n:samples_per_phase
        | `Uniform -> Phase_grid.uniform ~tau:ph.Pwl.tau ~n:samples_per_phase
      in
      let norm_a = Mat.norm_inf ph.Pwl.a in
      for j = 1 to Array.length local - 1 do
        let h = local.(j) -. local.(j - 1) in
        let key = (p, step_key ~norm_a h) in
        let op =
          match Hashtbl.find_opt memo key with
          | Some op -> op
          | None ->
              let op = !count in
              Hashtbl.add memo key op;
              distinct := (p, h) :: !distinct;
              incr count;
              op
        in
        times := (!offset +. local.(j)) :: !times;
        phases := p :: !phases;
        ops := op :: !ops
      done;
      offset := !offset +. ph.Pwl.tau)
    sys.Pwl.phases;
  let g_ops =
    Pool.map pool
      (fun _ (p, h) ->
        let ph = sys.Pwl.phases.(p) in
        Vanloan.discretize ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau:h)
      (Array.of_list (List.rev !distinct))
  in
  let g_op = Array.of_list (List.rev !ops) in
  Log.debug (fun m ->
      m "grid: %d intervals share %d distinct step operators"
        (Array.length g_op) (Array.length g_ops));
  {
    g_times = Array.of_list (List.rev !times);
    g_phase = Array.of_list (List.rev !phases);
    g_ops;
    g_op;
    g_disc = Array.map (fun op -> g_ops.(op)) g_op;
  }

(* Runs shorter than this step one interval at a time: doubling saves
   no products on them. *)
let run_min = 5

(* Transition chain Phi(t_i, 0) at every grid time. *)
let transitions g n =
  let phis = Array.make (Array.length g.g_disc + 1) (Mat.identity n) in
  Array.iteri
    (fun i (d : Vanloan.t) -> phis.(i + 1) <- Mat.mul d.Vanloan.phi phis.(i))
    g.g_disc;
  phis

(* Process noise accumulated over one period from K = 0, one maximal
   run of a shared operator at a time, stepped between two owned
   buffers. *)
let period_noise g n =
  let bufs = Vanloan.buffers n in
  let q = ref (Mat.create n n) and next = ref (Mat.create n n) in
  let step d =
    Vanloan.step bufs d !q ~out:!next;
    let x = !q in
    q := !next;
    next := x
  in
  let nint = Array.length g.g_op in
  let i = ref 0 in
  while !i < nint do
    let op = g.g_op.(!i) in
    let len = ref 1 in
    while !i + !len < nint && g.g_op.(!i + !len) = op do
      incr len
    done;
    let d = g.g_ops.(op) in
    if !len >= run_min then step (Vanloan.repeat d !len)
    else
      for _ = 1 to !len do
        step d
      done;
    i := !i + !len
  done;
  !q

let period_map ?samples_per_phase ?grid ?pool sys =
  let g = discretized_grid ?samples_per_phase ?grid ?pool sys in
  let n = sys.Pwl.nstates in
  let phis = transitions g n in
  (phis.(Array.length phis - 1), period_noise g n)

let periodic_initial ?samples_per_phase ?pool sys =
  let phi, q = period_map ?samples_per_phase ?pool sys in
  Lyapunov.solve_discrete_doubling phi q

(* One period of the recurrence: chain the transitions, fold the
   period's process noise run by run and solve the discrete Lyapunov
   fixed point.  The trace K(t_i) is not formed here: {!iter_trace}
   unrolls it from the steady state over the memoised operators. *)
let sample ?samples_per_phase ?grid ?pool sys =
  Obs.with_span ~src "covariance.sample" (fun () ->
      Obs.incr c_samples;
      let n = sys.Pwl.nstates in
      let g = discretized_grid ?samples_per_phase ?grid ?pool sys in
      let phis = transitions g n in
      let phi_period = phis.(Array.length phis - 1) in
      let q_period = period_noise g n in
      let k0 = Lyapunov.solve_discrete_doubling phi_period q_period in
      Log.debug (fun m ->
          m "sampling done: %d states, %d grid points over one period" n
            (Array.length phis));
      {
        sys;
        times = g.g_times;
        interval_phase = g.g_phase;
        ops = g.g_ops;
        interval_op = g.g_op;
        phis;
        k0;
        phi_period;
        q_period;
        peak_rank = n;
      })

(* K(t_{i+1}) = sym (Phi_i K(t_i) Phi_iᵀ + Qd_i) from K(t_0) = k0, in
   buffers owned here: two K matrices used in turn, the kernel's two
   work matrices and one transpose per distinct operator.  Nothing is
   allocated per interval. *)
let iter_trace s f =
  Obs.with_span ~src "covariance.unroll" (fun () ->
      let n = Mat.rows s.k0 in
      let ks = [| Mat.create n n; Mat.create n n |] in
      let work = Mat.create n n and work' = Mat.create n n in
      let phi_ts =
        Array.map (fun (d : Vanloan.t) -> Mat.transpose d.Vanloan.phi) s.ops
      in
      f 0 s.k0;
      let k = ref s.k0 in
      Array.iteri
        (fun i op ->
          let out = ks.(i land 1) in
          Vanloan.propagate_into s.ops.(op) ~phi_t:phi_ts.(op) ~work ~work' !k
            ~out;
          f (i + 1) out;
          k := out)
        s.interval_op)

let unroll s =
  let ks = Array.make (Array.length s.times) s.k0 in
  iter_trace s (fun i k -> if i > 0 then ks.(i) <- Mat.copy k);
  ks

type variance = {
  trace : float array;
  boundary : float;
  average : float;
  closure_error : float;
}

let output_trace s c =
  let npts = Array.length s.times in
  let kc = Array.make npts [||] and trace = Array.make npts 0.0 in
  let closure_error = ref 0.0 in
  iter_trace s (fun i k ->
      let v = Mat.mul_vec k c in
      kc.(i) <- v;
      trace.(i) <- Vec.dot c v;
      if i = npts - 1 then closure_error := Mat.max_abs_diff k s.k0);
  let period = s.times.(npts - 1) in
  ( kc,
    {
      trace;
      boundary = trace.(0);
      average = Scnoise_util.Grid.trapezoid s.times trace /. period;
      closure_error = !closure_error;
    } )

let variance s c = snd (output_trace s c)
