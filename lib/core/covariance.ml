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

(* Matrix-vector columns the forcing pass's Horner chains run. *)
let c_chain_columns = Obs.counter "covariance_chain_columns"

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
  (* pieces of one run share their map *)
  let run_maps =
    Array.fold_left
      (fun seen r ->
        match r.map with
        | Some d when not (List.memq d seen) -> d :: seen
        | _ -> seen)
      [] s.runs
  in
  Array.fold_left map 0 s.ops
  + List.fold_left map 0 run_maps
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

(* The grid's layout and the distinct (phase, step) pairs of its
   operators, in order of first occurrence. *)
let layout ~samples_per_phase ~grid (sys : Pwl.t) =
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
  (!times, !phases, !ops, Array.of_list (List.rev !distinct))

let steps ?(samples_per_phase = default_samples_per_phase) ?(grid = `Stretched)
    sys =
  let _, _, _, distinct = layout ~samples_per_phase ~grid sys in
  distinct

let discretized_grid ?(samples_per_phase = default_samples_per_phase)
    ?(grid = `Stretched) ?pool (sys : Pwl.t) =
  (* The layout and the memo are cheap and stay serial, assigning
     operators in first-occurrence order; the distinct discretisations
     (a matrix exponential each) are independent, so they fan out
     across the pool and land by index, making the parallel grid
     bit-identical to the serial one. *)
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let times, phases, ops, distinct = layout ~samples_per_phase ~grid sys in
  let g_ops =
    Pool.map pool
      (fun _ (p, h) ->
        let ph = sys.Pwl.phases.(p) in
        Vanloan.discretize ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau:h)
      distinct
  in
  Vanloan.release_buffers ();
  let g_op = Array.of_list (List.rev ops) in
  Log.debug (fun m ->
      m "grid: %d intervals share %d distinct step operators"
        (Array.length g_op) (Array.length g_ops));
  {
    g_times = Array.of_list (List.rev times);
    g_phase = Array.of_list (List.rev phases);
    g_ops;
    g_op;
    g_disc = Array.map (fun op -> g_ops.(op)) g_op;
  }

(* Runs shorter than this step one interval at a time: doubling saves
   no products on them. *)
let run_min = 5

(* The longest run {!output_trace} unrolls by Horner chains.  A run of
   [m] intervals runs m(m-1)/2 matrix-vector columns, which is at most
   the m - 1 powers' m - 1 products of n columns while m <= 2n, and its
   chain blocks stay within two [n×n] matrices.  Below n = 5 the floor
   of [2 * run_min] keeps every piece of a cut run long enough for a
   map. *)
let chain_cap n = Int.max (2 * n) (2 * run_min)

(* The maximal runs of consecutive intervals that share one operator,
   each cut into as few pieces of at most [chain_cap n] as it takes,
   their lengths differing by at most one, and each piece of at least
   [run_min] with its [len]-fold map: pieces of one operator and length
   share one map. *)
let runs_of ops interval_op =
  let nint = Array.length interval_op in
  let maps = Hashtbl.create 16 in
  let map_of op len =
    if len < run_min then None
    else
      match Hashtbl.find_opt maps (op, len) with
      | Some d -> Some d
      | None ->
          let d = Vanloan.repeat ops.(op) len in
          Hashtbl.add maps (op, len) d;
          Some d
  in
  let runs = ref [] and i = ref 0 in
  while !i < nint do
    let op = interval_op.(!i) in
    let len = ref 1 in
    while !i + !len < nint && interval_op.(!i + !len) = op do
      incr len
    done;
    let cap = chain_cap (Mat.rows ops.(op).Vanloan.phi) in
    let pieces = (!len + cap - 1) / cap in
    let short = !len / pieces and long = !len mod pieces in
    for p = 0 to pieces - 1 do
      let len = if p < long then short + 1 else short in
      runs := { first = !i; len; map = map_of op len } :: !runs;
      i := !i + len
    done
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

(* Phi(T, 0), one product per step between two owned buffers.
   {!output_trace} forms Phi(t_i, 0) with the same products in the
   same order, so the two agree bit for bit. *)
let monodromy ops interval_op runs n =
  let t = ref (Mat.identity n) and next = ref (Mat.create n n) in
  iter_steps ops interval_op runs (fun d ->
      Obs.incr c_products;
      Mat.mul_into d.Vanloan.phi !t !next;
      let x = !t in
      t := !next;
      next := x);
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
   point s, with w_l = (Phiᵀ)^l c and u_j = Qd w_j,

     k_{s+l} = Phi^l (K_s w_l) + sum_{j<l} Phi^j u_j,
     r_{s+l} = T_sᵀ w_l,    T_s = Phi(t_s, 0),

   an exact unrolling of K_{l+1} = Phi K_l Phiᵀ + Qd, taken in Horner
   form: z <- K_s w_l, then z <- Phi z + u_j for j = l-1 down to 0.  The
   chains l = 1 .. m-1 are the rows of one block Z, longest first, all
   started together: step t advances the m - t live rows (a row prefix)
   by one product with Phiᵀ, adds to row r the row r + t of U (the u_j
   in reverse order), and finishes chain l = t, the last live row.
   That is m(m-1)/2 matrix-vector columns and no power of Phi; K and T
   are formed only at the run's end, through its map.  A short run
   steps K and T interval by interval.

   Every matrix lives in buffers owned here, the same at any grid size:
   K (stepped in place once it leaves [s.k0]), T, Phiᵀ, and the chain
   blocks Z and U of [chain_cap n] rows, held as n-row pieces, with one
   spare piece the products of Z land in.  Between chains the pieces
   are free and serve as the step's work matrices and T's next value. *)
let output_trace s c =
  Obs.with_span ~src "covariance.unroll" (fun () ->
      let n = Mat.rows s.k0 in
      if Array.length c <> n then
        invalid_arg "Covariance.output_trace: output row has wrong length";
      let npts = Array.length s.times in
      let forcing = Array.make npts [||] and rows = Array.make npts [||] in
      let trace = Array.make npts 0.0 in
      let emit_forcing i k =
        forcing.(i) <- k;
        trace.(i) <- Vec.dot c k
      in
      let square () = Mat.create n n in
      let pieces = (chain_cap n + n - 1) / Int.max 1 n in
      let z = Array.init pieces (fun _ -> square ())
      and u = Array.init pieces (fun _ -> square ()) in
      let spare = ref (square ()) and phi_t = square () and kbuf = square () in
      let k = ref s.k0 and t = ref (Mat.identity n) in
      let w = Vec.create n and w' = Vec.create n in
      (* row [r] of a block is row [r mod n] of piece [r / n] *)
      let store blk r x =
        Array.blit x 0 (Mat.data blk.(r / n)) (r mod n * n) n
      in
      (* K <- d (K), T <- d.phi T, through free pieces *)
      let advance (d : Vanloan.t) =
        Obs.add c_products 3;
        Mat.transpose_into d.Vanloan.phi phi_t;
        Vanloan.propagate_into d ~phi_t ~work:z.(0) ~work':z.(1) !k ~out:kbuf;
        k := kbuf;
        Mat.mul_into d.Vanloan.phi !t u.(0);
        let t' = u.(0) in
        u.(0) <- !t;
        t := t'
      in
      let emit_state i =
        emit_forcing i (Mat.mul_vec !k c);
        rows.(i) <- Mat.mul_transpose_vec !t c
      in
      (* [f p r] for the pieces holding the first [live] rows of a
         block, [r] of them in piece [p] *)
      let pieces_of live f =
        for p = 0 to (live - 1) / n do
          f p (Int.min n (live - (p * n)))
        done
      in
      (* Z <- Z b on the first [live] rows, piece by piece through the
         spare *)
      let times live b =
        pieces_of live (fun p r ->
            let out = !spare in
            Mat.mul_into ~rows:r z.(p) b out;
            spare := z.(p);
            z.(p) <- out)
      in
      let chains (d : Vanloan.t) first m =
        let phi = d.Vanloan.phi in
        (* W, in Z: w_l in row m-1-l *)
        Array.blit c 0 w 0 n;
        store z (m - 1) w;
        for l = 1 to m - 1 do
          Mat.mul_transpose_vec_into phi w w';
          Array.blit w' 0 w 0 n;
          store z (m - 1 - l) w
        done;
        (* U = W Qd (Qd is symmetric): u_j in row m-1-j *)
        pieces_of m (fun p r ->
            Mat.mul_into ~rows:r z.(p) d.Vanloan.qd u.(p));
        (* the rows r_{s+l} = T_sᵀ w_l: the rows of W T_s *)
        pieces_of (m - 1) (fun p r ->
            Mat.mul_into ~rows:r z.(p) !t !spare;
            let sd = Mat.data !spare in
            for i = 0 to r - 1 do
              rows.(first + m - 1 - ((p * n) + i)) <- Array.sub sd (i * n) n
            done);
        (* the chains' starts K_s w_l (K is symmetric): Z = W K_s *)
        times (m - 1) !k;
        Mat.transpose_into phi phi_t;
        for step = 1 to m - 1 do
          let live = m - step in
          times live phi_t;
          (* chain l = m-1-r adds u_{l-step}, U row r + step *)
          for r = 0 to live - 1 do
            let zd = Mat.data z.(r / n) and zo = r mod n * n in
            let q = r + step in
            let ud = Mat.data u.(q / n) and uo = q mod n * n in
            for j = 0 to n - 1 do
              Array.unsafe_set zd (zo + j)
                (Array.unsafe_get zd (zo + j) +. Array.unsafe_get ud (uo + j))
            done
          done;
          Obs.add c_chain_columns live;
          let r = live - 1 in
          emit_forcing (first + step)
            (Array.sub (Mat.data z.(r / n)) (r mod n * n) n)
        done
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
              chains (op_at s.ops s.interval_op r.first) r.first r.len;
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
