(* Row-major flat storage with interleaved re/im: entry (i,j) lives at
   d.(2*(i*nc + j)) / d.(2*(i*nc + j) + 1).  The arithmetic mirrors the
   [Cx] formulas exactly (see cvec.ml). *)

type t = { nr : int; nc : int; d : float array }

let create nr nc =
  if nr < 0 || nc < 0 then invalid_arg "Cmat.create: negative size";
  { nr; nc; d = Array.make (2 * nr * nc) 0.0 }

let init nr nc f =
  let m = create nr nc in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      let z = (f i j : Cx.t) in
      let k = 2 * ((i * nc) + j) in
      m.d.(k) <- z.Cx.re;
      m.d.(k + 1) <- z.Cx.im
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

let of_real m =
  let nr = Mat.rows m and nc = Mat.cols m in
  let c = create nr nc in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      c.d.(2 * ((i * nc) + j)) <- Mat.get m i j
    done
  done;
  c

let rows m = m.nr

let cols m = m.nc

let check_bounds m i j name =
  if i < 0 || i >= m.nr || j < 0 || j >= m.nc then
    invalid_arg ("Cmat." ^ name ^ ": index out of bounds")

let get m i j =
  check_bounds m i j "get";
  let k = 2 * ((i * m.nc) + j) in
  Cx.make m.d.(k) m.d.(k + 1)

let set m i j (z : Cx.t) =
  check_bounds m i j "set";
  let k = 2 * ((i * m.nc) + j) in
  m.d.(k) <- z.Cx.re;
  m.d.(k + 1) <- z.Cx.im

let same_dims a b name =
  if a.nr <> b.nr || a.nc <> b.nc then
    invalid_arg ("Cmat." ^ name ^ ": dimension mismatch")

let add a b =
  same_dims a b "add";
  { a with d = Array.init (Array.length a.d) (fun k -> a.d.(k) +. b.d.(k)) }

let sub a b =
  same_dims a b "sub";
  { a with d = Array.init (Array.length a.d) (fun k -> a.d.(k) -. b.d.(k)) }

let mul a b =
  if a.nc <> b.nr then invalid_arg "Cmat.mul: inner dimension mismatch";
  let c = create a.nr b.nc in
  for i = 0 to a.nr - 1 do
    for k = 0 to a.nc - 1 do
      let ka = 2 * ((i * a.nc) + k) in
      let ar = a.d.(ka) and ai = a.d.(ka + 1) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let brow = 2 * k * b.nc in
        let crow = 2 * i * b.nc in
        for j = 0 to b.nc - 1 do
          let br = b.d.(brow + (2 * j)) and bi = b.d.(brow + (2 * j) + 1) in
          c.d.(crow + (2 * j)) <-
            c.d.(crow + (2 * j)) +. ((ar *. br) -. (ai *. bi));
          c.d.(crow + (2 * j) + 1) <-
            c.d.(crow + (2 * j) + 1) +. ((ar *. bi) +. (ai *. br))
        done
      end
    done
  done;
  c

let mul_vec_into m v ~into =
  if m.nc <> Cvec.dim v then invalid_arg "Cmat.mul_vec: dimension mismatch";
  if m.nr <> Cvec.dim into then
    invalid_arg "Cmat.mul_vec_into: output dimension mismatch";
  let vd = Cvec.data v and od = Cvec.data into in
  if vd == od && m.nr > 0 && m.nc > 0 then
    invalid_arg "Cmat.mul_vec_into: output must not alias the input";
  for i = 0 to m.nr - 1 do
    let base = 2 * i * m.nc in
    let re = ref 0.0 and im = ref 0.0 in
    for j = 0 to m.nc - 1 do
      let ar = m.d.(base + (2 * j)) and ai = m.d.(base + (2 * j) + 1) in
      let br = vd.(2 * j) and bi = vd.((2 * j) + 1) in
      re := !re +. ((ar *. br) -. (ai *. bi));
      im := !im +. ((ar *. bi) +. (ai *. br))
    done;
    od.(2 * i) <- !re;
    od.((2 * i) + 1) <- !im
  done

let mul_vec m v =
  let out = Cvec.create m.nr in
  mul_vec_into m v ~into:out;
  out

let max_abs_diff a b =
  same_dims a b "max_abs_diff";
  let best = ref 0.0 in
  for k = 0 to (Array.length a.d / 2) - 1 do
    best :=
      max !best
        (Cx.modulus_ri
           (a.d.(2 * k) -. b.d.(2 * k))
           (a.d.((2 * k) + 1) -. b.d.((2 * k) + 1)))
  done;
  !best

let is_hermitian ?(tol = 1e-12) m =
  m.nr = m.nc
  && max_abs_diff m (init m.nc m.nr (fun i j -> Cx.conj (get m j i))) <= tol

let data m = m.d
