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

(* Dense n×n products issued here: the monodromy, the period-noise
   fold and the forcing pass.  Counted per call site, so the product
   kernel's loop stays bare. *)
let c_products = Obs.counter "covariance_products"

type grid_kind = [ `Stretched | `Uniform ]

type run = { first : int; len : int; map : Vanloan.t option }

type sampled = {
  sys : Pwl.t;
  times : float array;
  interval_phase : int array;
  ops : Vanloan.t array;
  interval_op : int array;
  runs : run array;
  k0 : Mat.t;
  phi_period : Mat.t;
  q_period : Mat.t;
  peak_rank : int;
}

(* The trace is never formed, let alone stored. *)
let ks_bytes _ = 0

let held_bytes s =
  let bytes m = 8 * Mat.rows m * Mat.cols m in
  let map acc (d : Vanloan.t) = acc + bytes d.Vanloan.phi + bytes d.Vanloan.qd in
  Array.fold_left map 0 s.ops
  + Array.fold_left
      (fun acc r -> match r.map with Some d -> map acc d | None -> acc)
      0 s.runs
  + bytes s.k0 + bytes s.phi_period + bytes s.q_period

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

(* The maximal runs of consecutive intervals that share one operator,
   each long one with its [len]-fold map. *)
let runs_of ops interval_op =
  let nint = Array.length interval_op in
  let runs = ref [] and i = ref 0 in
  while !i < nint do
    let op = interval_op.(!i) in
    let len = ref 1 in
    while !i + !len < nint && interval_op.(!i + !len) = op do
      incr len
    done;
    let map =
      if !len >= run_min then Some (Vanloan.repeat ops.(op) !len) else None
    in
    runs := { first = !i; len = !len; map } :: !runs;
    i := !i + !len
  done;
  Array.of_list (List.rev !runs)

(* The operator of interval [i]. *)
let op_at ops interval_op i = ops.(interval_op.(i))

(* [f d] for each step of one period in order: a long run's map, or
   each interval's operator on a short run. *)
let iter_steps ops interval_op runs f =
  Array.iter
    (fun r ->
      match r.map with
      | Some d -> f d
      | None ->
          for i = r.first to r.first + r.len - 1 do
            f (op_at ops interval_op i)
          done)
    runs

(* Phi(T, 0), one product per step.  {!output_trace} forms
   Phi(t_i, 0) with the same products in the same order, so the two
   agree bit for bit. *)
let monodromy ops interval_op runs n =
  let t = ref (Mat.identity n) in
  iter_steps ops interval_op runs (fun d ->
      Obs.incr c_products;
      t := Mat.mul d.Vanloan.phi !t);
  !t

(* Process noise accumulated over one period from K = 0, step by step
   between two owned buffers. *)
let period_noise ops interval_op runs n =
  let bufs = Vanloan.buffers n in
  let q = ref (Mat.create n n) and next = ref (Mat.create n n) in
  iter_steps ops interval_op runs (fun d ->
      Obs.add c_products 2;
      Vanloan.step bufs d !q ~out:!next;
      let x = !q in
      q := !next;
      next := x);
  !q

let period_map ?samples_per_phase ?grid ?pool sys =
  let g = discretized_grid ?samples_per_phase ?grid ?pool sys in
  let n = sys.Pwl.nstates in
  let runs = runs_of g.g_ops g.g_op in
  (monodromy g.g_ops g.g_op runs n, period_noise g.g_ops g.g_op runs n)

let periodic_initial ?samples_per_phase ?pool sys =
  let phi, q = period_map ?samples_per_phase ?pool sys in
  Lyapunov.solve_discrete_doubling phi q

(* One period of the recurrence: the runs of one operator with their
   maps, the monodromy and the period's process noise from those maps,
   and the discrete Lyapunov fixed point.  No K(t_i) or Phi(t_i, 0) is
   formed here: {!output_trace} takes what the output reads of them. *)
let sample ?samples_per_phase ?grid ?pool sys =
  Obs.with_span ~src "covariance.sample" (fun () ->
      Obs.incr c_samples;
      let n = sys.Pwl.nstates in
      let g = discretized_grid ?samples_per_phase ?grid ?pool sys in
      let runs = runs_of g.g_ops g.g_op in
      let phi_period = monodromy g.g_ops g.g_op runs n in
      let q_period = period_noise g.g_ops g.g_op runs n in
      let k0 = Lyapunov.solve_discrete_doubling phi_period q_period in
      Log.debug (fun m ->
          m "sampling done: %d states, %d grid points in %d runs" n
            (Array.length g.g_times) (Array.length runs));
      {
        sys;
        times = g.g_times;
        interval_phase = g.g_phase;
        ops = g.g_ops;
        interval_op = g.g_op;
        runs;
        k0;
        phi_period;
        q_period;
        peak_rank = n;
      })

type variance = {
  trace : float array;
  boundary : float;
  average : float;
  closure_error : float;
}

type output_trace = {
  forcing : Vec.t array;
  rows : Vec.t array;
  variance : variance;
}

(* The forcing k_i = K(t_i) c and the rows r_i = Phi(t_i, 0)ᵀ c, run by
   run.  In a run of [m] intervals of one operator (Phi, Qd) from grid
   point s, with w_l = (Phi^l)ᵀ c,

     k_{s+l} = Phi^l (K_s w_l) + sum_{j<l} Phi^j (Qd w_j),
     r_{s+l} = T_sᵀ w_l,    T_s = Phi(t_s, 0),

   an exact unrolling of K_{l+1} = Phi K_l Phiᵀ + Qd: one power Phi^l
   per interval and matrix-vector products.  K and T are formed only at
   the run's end, through its map.  A short run steps K and T interval
   by interval.  Every matrix lives in buffers owned here, two of each
   kind used in turn, so the count is the same at any grid size, and
   the work vectors too: a grid point allocates only its two outputs. *)
let output_trace s c =
  Obs.with_span ~src "covariance.unroll" (fun () ->
      let n = Mat.rows s.k0 in
      if Array.length c <> n then
        invalid_arg "Covariance.output_trace: output row has wrong length";
      let npts = Array.length s.times in
      let forcing = Array.make npts [||] and rows = Array.make npts [||] in
      let trace = Array.make npts 0.0 in
      let emit i k r =
        forcing.(i) <- k;
        rows.(i) <- r;
        trace.(i) <- Vec.dot c k
      in
      let pair () = [| Mat.create n n; Mat.create n n |] in
      let kb = pair () and tb = [| Mat.identity n; Mat.create n n |] in
      let pw = pair () and bufs = Vanloan.buffers n in
      let w = Vec.create n and acc = Vec.create n in
      let u = Vec.create n and pu = Vec.create n and v = Vec.create n in
      (* the buffer of [b] that [x] is not *)
      let other b x = if x == b.(0) then b.(1) else b.(0) in
      let k = ref s.k0 and t = ref tb.(0) in
      let emit_state i =
        emit i (Mat.mul_vec !k c) (Mat.mul_transpose_vec !t c)
      in
      (* K <- d (K), T <- d.phi T *)
      let advance (d : Vanloan.t) =
        let k' = other kb !k and t' = other tb !t in
        Obs.add c_products 3;
        Vanloan.step bufs d !k ~out:k';
        Mat.mul_into d.Vanloan.phi !t t';
        k := k';
        t := t'
      in
      emit_state 0;
      Array.iter
        (fun r ->
          match r.map with
          | None ->
              for i = r.first to r.first + r.len - 1 do
                advance (op_at s.ops s.interval_op i);
                emit_state (i + 1)
              done
          | Some map ->
              let d = op_at s.ops s.interval_op r.first in
              let ks = !k and ts = !t in
              (* when point s + l is emitted: [p] = Phi^l, [w] = w_l
                 and [acc] = the sum over j < l *)
              let p = ref d.Vanloan.phi in
              Mat.mul_vec_into d.Vanloan.qd c acc;
              for l = 1 to r.len - 1 do
                if l > 1 then begin
                  Mat.mul_vec_into d.Vanloan.qd w u;
                  Mat.mul_vec_into !p u pu;
                  Vec.axpy 1.0 pu acc;
                  let p' = other pw !p in
                  Obs.incr c_products;
                  Mat.mul_into d.Vanloan.phi !p p';
                  p := p'
                end;
                Mat.mul_transpose_vec_into !p c w;
                Mat.mul_vec_into ks w v;
                let kl = Mat.mul_vec !p v in
                Vec.axpy 1.0 acc kl;
                emit (r.first + l) kl (Mat.mul_transpose_vec ts w)
              done;
              advance map;
              emit_state (r.first + r.len))
        s.runs;
      let period = s.times.(npts - 1) in
      {
        forcing;
        rows;
        variance =
          {
            trace;
            boundary = trace.(0);
            average = Scnoise_util.Grid.trapezoid s.times trace /. period;
            closure_error = Mat.max_abs_diff !k s.k0;
          };
      })

let variance s c = (output_trace s c).variance
