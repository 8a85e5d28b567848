module Obs = Scnoise_obs.Obs

(* [lu] is flat row-major with interleaved re/im (2 n^2 floats), L unit
   lower / U upper as usual.  The complex divisions below spell out
   [Complex.div]'s scaled algorithm on the unboxed parts so pivoting
   and elimination are bitwise identical to the former boxed code. *)
type t = { n : int; lu : float array; piv : int array; mutable sign : float }

exception Singular of int

let c_factorizations = Obs.counter "clu_factorizations"

let c_solves = Obs.counter "clu_solves"

let c_ill_conditioned = Obs.counter "clu_ill_conditioned"

(* rcond-estimate distribution (min|U_ii| / max|U_ii|), mirroring
   [Lu.h_rcond] for the complex factorisations driving the BVP solves. *)
let h_rcond = Obs.histogram "clu.rcond"

let create n =
  if n < 0 then invalid_arg "Clu.create: negative size";
  { n; lu = Array.make (2 * n * n) 0.0; piv = Array.init n (fun i -> i); sign = 1.0 }

let factor_into t m =
  if Cmat.rows m <> Cmat.cols m then invalid_arg "Clu.factor: not square";
  if Cmat.rows m <> t.n then invalid_arg "Clu.factor_into: dimension mismatch";
  Sanitize.check_cmat "Clu.factor" m;
  Obs.incr c_factorizations;
  let n = t.n in
  let lu = t.lu in
  let piv = t.piv in
  Array.blit (Cmat.data m) 0 lu 0 (2 * n * n);
  for i = 0 to n - 1 do
    piv.(i) <- i
  done;
  t.sign <- 1.0;
  for k = 0 to n - 1 do
    let pmax = ref (Cx.modulus_ri lu.(2 * ((k * n) + k)) lu.((2 * ((k * n) + k)) + 1)) in
    let prow = ref k in
    for i = k + 1 to n - 1 do
      let v = Cx.modulus_ri lu.(2 * ((i * n) + k)) lu.((2 * ((i * n) + k)) + 1) in
      if v > !pmax then begin
        pmax := v;
        prow := i
      end
    done;
    if !pmax = 0.0 then raise (Singular k);
    if !prow <> k then begin
      let rk = 2 * k * n and rp = 2 * !prow * n in
      for j = 0 to (2 * n) - 1 do
        let tmp = lu.(rk + j) in
        lu.(rk + j) <- lu.(rp + j);
        lu.(rp + j) <- tmp
      done;
      let tmp = piv.(k) in
      piv.(k) <- piv.(!prow);
      piv.(!prow) <- tmp;
      t.sign <- -.t.sign
    end;
    let pr = lu.(2 * ((k * n) + k)) and pi = lu.((2 * ((k * n) + k)) + 1) in
    for i = k + 1 to n - 1 do
      let xr = lu.(2 * ((i * n) + k)) and xi = lu.((2 * ((i * n) + k)) + 1) in
      (* f = x / pivot, Complex.div's branch-on-magnitude algorithm *)
      let fr, fi =
        if abs_float pr >= abs_float pi then begin
          let r = pi /. pr in
          let d = pr +. (r *. pi) in
          ((xr +. (r *. xi)) /. d, (xi -. (r *. xr)) /. d)
        end
        else begin
          let r = pr /. pi in
          let d = pi +. (r *. pr) in
          (((r *. xr) +. xi) /. d, ((r *. xi) -. xr) /. d)
        end
      in
      lu.(2 * ((i * n) + k)) <- fr;
      lu.((2 * ((i * n) + k)) + 1) <- fi;
      if fr <> 0.0 || fi <> 0.0 then
        for j = k + 1 to n - 1 do
          let ur = lu.(2 * ((k * n) + j)) and ui = lu.((2 * ((k * n) + j)) + 1) in
          lu.(2 * ((i * n) + j)) <-
            lu.(2 * ((i * n) + j)) -. ((fr *. ur) -. (fi *. ui));
          lu.((2 * ((i * n) + j)) + 1) <-
            lu.((2 * ((i * n) + j)) + 1) -. ((fr *. ui) +. (fi *. ur))
        done
    done
  done;
  let mn = ref infinity and mx = ref 0.0 in
  for i = 0 to n - 1 do
    let u = Cx.modulus_ri lu.(2 * ((i * n) + i)) lu.((2 * ((i * n) + i)) + 1) in
    mn := min !mn u;
    mx := max !mx u
  done;
  if n > 0 then begin
    Obs.hist_record h_rcond (if !mx > 0.0 then !mn /. !mx else 0.0);
    if !mn < 1e-12 *. !mx then Obs.incr c_ill_conditioned
  end

let factor m =
  let t = create (Cmat.rows m) in
  factor_into t m;
  t

(* Substitution over the permuted right-hand side already sitting in
   [x] (interleaved, length 2n). *)
let substitute_in_place t x =
  let n = t.n in
  let lu = t.lu in
  for i = 1 to n - 1 do
    let ar = ref x.(2 * i) and ai = ref x.((2 * i) + 1) in
    for j = 0 to i - 1 do
      let lr = lu.(2 * ((i * n) + j)) and li = lu.((2 * ((i * n) + j)) + 1) in
      let xr = x.(2 * j) and xi = x.((2 * j) + 1) in
      ar := !ar -. ((lr *. xr) -. (li *. xi));
      ai := !ai -. ((lr *. xi) +. (li *. xr))
    done;
    x.(2 * i) <- !ar;
    x.((2 * i) + 1) <- !ai
  done;
  for i = n - 1 downto 0 do
    let ar = ref x.(2 * i) and ai = ref x.((2 * i) + 1) in
    for j = i + 1 to n - 1 do
      let ur = lu.(2 * ((i * n) + j)) and ui = lu.((2 * ((i * n) + j)) + 1) in
      let xr = x.(2 * j) and xi = x.((2 * j) + 1) in
      ar := !ar -. ((ur *. xr) -. (ui *. xi));
      ai := !ai -. ((ur *. xi) +. (ui *. xr))
    done;
    let dr = lu.(2 * ((i * n) + i)) and di = lu.((2 * ((i * n) + i)) + 1) in
    let xr, xi =
      if abs_float dr >= abs_float di then begin
        let r = di /. dr in
        let d = dr +. (r *. di) in
        ((!ar +. (r *. !ai)) /. d, (!ai -. (r *. !ar)) /. d)
      end
      else begin
        let r = dr /. di in
        let d = di +. (r *. dr) in
        (((r *. !ar) +. !ai) /. d, ((r *. !ai) -. !ar) /. d)
      end
    in
    x.(2 * i) <- xr;
    x.((2 * i) + 1) <- xi
  done

let check_rhs t b name =
  if Cvec.dim b <> t.n then invalid_arg ("Clu." ^ name ^ ": dimension mismatch")

let solve_into t ~work ~b ~into =
  check_rhs t b "solve_into";
  check_rhs t into "solve_into";
  if Array.length work < 2 * t.n then
    invalid_arg "Clu.solve_into: workspace too small";
  Sanitize.check_cvec "Clu.solve" b;
  Obs.incr c_solves;
  let bd = Cvec.data b and od = Cvec.data into in
  (* gather the permuted rhs into [work] so [into] may alias [b] *)
  for i = 0 to t.n - 1 do
    let p = t.piv.(i) in
    work.(2 * i) <- bd.(2 * p);
    work.((2 * i) + 1) <- bd.((2 * p) + 1)
  done;
  substitute_in_place t work;
  Array.blit work 0 od 0 (2 * t.n);
  Sanitize.check_cvec "Clu.solve (result)" into

let solve t b =
  check_rhs t b "solve";
  Sanitize.check_cvec "Clu.solve" b;
  Obs.incr c_solves;
  let bd = Cvec.data b in
  let x = Array.make (2 * t.n) 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.piv.(i) in
    x.(2 * i) <- bd.(2 * p);
    x.((2 * i) + 1) <- bd.((2 * p) + 1)
  done;
  substitute_in_place t x;
  let out = Cvec.of_data x in
  Sanitize.check_cvec "Clu.solve (result)" out;
  out

let det t =
  let acc = ref (Cx.re t.sign) in
  for i = 0 to t.n - 1 do
    let d = Cx.make t.lu.(2 * ((i * t.n) + i)) t.lu.((2 * ((i * t.n) + i)) + 1) in
    acc := Cx.( *: ) !acc d
  done;
  !acc

let inverse t =
  let out = Cmat.create t.n t.n in
  for j = 0 to t.n - 1 do
    let e = Cvec.create t.n in
    Cvec.set e j Cx.one;
    let x = solve t e in
    for i = 0 to t.n - 1 do
      Cmat.set out i j (Cvec.get x i)
    done
  done;
  out

let solve_dense m b = solve (factor m) b
