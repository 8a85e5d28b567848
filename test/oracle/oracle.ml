(* Straightforward references for the library's optimised paths.  Each
   shares none of the economics of the path it checks: no operator
   memo, no run doubling, no zero-span bounds. *)

module Mat = Scnoise_linalg.Mat
module Vanloan = Scnoise_linalg.Vanloan
module Pwl = Scnoise_circuit.Pwl
module Covariance = Scnoise_core.Covariance
module Phase_grid = Scnoise_core.Phase_grid

(* Equal lengths and equal [Int64.bits_of_float] entry by entry, so a
   reordered sum, a fused multiply-add or a lost signed zero differs. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* The i-k-j product loop [Mat.mul] replaced, over the row-major data:
   bounds-checked, c += a_ik b_kj for ascending k, skipping a_ik = 0.
   EXP-K2 times it as the GEMM reference. *)
let gemm a b =
  let m = Mat.rows a and p = Mat.cols a and n = Mat.cols b in
  let ad = Mat.data a and bd = Mat.data b in
  let c = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    for k = 0 to p - 1 do
      let aik = ad.((i * p) + k) in
      if aik <> 0.0 then begin
        let brow = k * n and crow = i * n in
        for j = 0 to n - 1 do
          c.(crow + j) <- c.(crow + j) +. (aik *. bd.(brow + j))
        done
      end
    done
  done;
  c

(* The sampling grid over one period and, per interval, its phase and
   exact step. *)
let covariance_grid ~samples_per_phase (sys : Pwl.t) =
  let times = ref [ 0.0 ] and steps = ref [] and offset = ref 0.0 in
  Array.iteri
    (fun p (ph : Pwl.phase) ->
      let local =
        Phase_grid.make ~a:ph.Pwl.a ~tau:ph.Pwl.tau ~n:samples_per_phase
      in
      for j = 1 to Array.length local - 1 do
        times := (!offset +. local.(j)) :: !times;
        steps := (p, local.(j) -. local.(j - 1)) :: !steps
      done;
      offset := !offset +. ph.Pwl.tau)
    sys.Pwl.phases;
  (Array.of_list (List.rev !times), Array.of_list (List.rev !steps))

(* The per-interval covariance recurrence: one [Vanloan.discretize] per
   interval with exact step bits, the period map stepped one interval
   at a time and the fixed point by [steady] (default: the Kron solve).
   The record's operators are the per-interval ones, so its trace
   unrolls over them, one operator per interval. *)
let covariance ?(steady = Kron.solve_discrete) ~samples_per_phase
    (sys : Pwl.t) =
  let n = sys.Pwl.nstates in
  let times, steps = covariance_grid ~samples_per_phase sys in
  let disc =
    Array.map
      (fun (p, h) ->
        let ph = sys.Pwl.phases.(p) in
        Vanloan.discretize ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau:h)
      steps
  in
  let npts = Array.length times in
  let phis = Array.make npts (Mat.identity n) in
  let q = ref (Mat.create n n) in
  Array.iteri
    (fun i (d : Vanloan.t) ->
      phis.(i + 1) <- Mat.mul d.Vanloan.phi phis.(i);
      q := Vanloan.propagate d !q)
    disc;
  let phi_period = phis.(npts - 1) in
  let k0 = steady phi_period !q in
  {
    Covariance.sys;
    times;
    interval_phase = Array.map fst steps;
    ops = disc;
    interval_op = Array.init (Array.length disc) Fun.id;
    phis;
    k0;
    phi_period;
    q_period = !q;
    peak_rank = n;
  }
