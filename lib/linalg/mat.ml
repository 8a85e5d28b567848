type t = { nr : int; nc : int; d : float array }

let create nr nc =
  if nr < 0 || nc < 0 then invalid_arg "Mat.create: negative size";
  { nr; nc; d = Array.make (nr * nc) 0.0 }

let init nr nc f =
  if nr < 0 || nc < 0 then invalid_arg "Mat.init: negative size";
  let d = Array.make (nr * nc) 0.0 in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      d.((i * nc) + j) <- f i j
    done
  done;
  { nr; nc; d }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let of_arrays rows_arr =
  let nr = Array.length rows_arr in
  if nr = 0 then invalid_arg "Mat.of_arrays: empty";
  let nc = Array.length rows_arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> nc then invalid_arg "Mat.of_arrays: ragged rows")
    rows_arr;
  init nr nc (fun i j -> rows_arr.(i).(j))

let rows m = m.nr

let cols m = m.nc

let to_arrays m =
  Array.init m.nr (fun i -> Array.init m.nc (fun j -> m.d.((i * m.nc) + j)))

let check_bounds m i j name =
  if i < 0 || i >= m.nr || j < 0 || j >= m.nc then
    invalid_arg ("Mat." ^ name ^ ": index out of bounds")

let get m i j =
  check_bounds m i j "get";
  m.d.((i * m.nc) + j)

let data m = m.d

let set m i j x =
  check_bounds m i j "set";
  m.d.((i * m.nc) + j) <- x

let update m i j f =
  check_bounds m i j "update";
  let k = (i * m.nc) + j in
  m.d.(k) <- f m.d.(k)

let copy m = { m with d = Array.copy m.d }

(* The element-wise operations below are plain loops over the backing
   buffers: no per-element closure call, so no float is boxed. *)
let transpose m =
  let nr = m.nr and nc = m.nc and s = m.d in
  let d = Array.create_float (nr * nc) in
  for i = 0 to nc - 1 do
    for j = 0 to nr - 1 do
      Array.unsafe_set d ((i * nr) + j) (Array.unsafe_get s ((j * nc) + i))
    done
  done;
  { nr = nc; nc = nr; d }

let same_dims a b name =
  if a.nr <> b.nr || a.nc <> b.nc then
    invalid_arg ("Mat." ^ name ^ ": dimension mismatch")

let add a b =
  same_dims a b "add";
  let x = a.d and y = b.d in
  let d = Array.create_float (Array.length x) in
  for k = 0 to Array.length x - 1 do
    Array.unsafe_set d k (Array.unsafe_get x k +. Array.unsafe_get y k)
  done;
  { a with d }

let sub a b =
  same_dims a b "sub";
  let x = a.d and y = b.d in
  let d = Array.create_float (Array.length x) in
  for k = 0 to Array.length x - 1 do
    Array.unsafe_set d k (Array.unsafe_get x k -. Array.unsafe_get y k)
  done;
  { a with d }

let scale s m =
  let x = m.d in
  let d = Array.create_float (Array.length x) in
  for k = 0 to Array.length x - 1 do
    Array.unsafe_set d k (s *. Array.unsafe_get x k)
  done;
  { m with d }

(* --- matrix product ---

   [c.(i).(j)] is the sum, from [0.0] and in ascending [k], of
   [a.(i).(k) *. b.(k).(j)] over the [k] with [a.(i).(k) <> 0] — the
   i-k-j loop's operation sequence, kept entry by entry, so the kernel
   is bitwise identical to that loop.  The kernel computes 2 x 4 tiles
   of [c] in float accumulators (the compiler keeps them unboxed in
   registers), each loading one [b] row segment for two [a] rows.

   Each tile runs [k] only over the union of the nonzero supports of
   its two [a] rows and its four [b] columns.  Outside the [a] support
   every term is skipped anyway; outside the [b] support every term is
   [x *. 0], which leaves a running sum unchanged as long as [x] is
   finite (a sum that starts at [+0.0] is never [-0.0]).  The [b]
   support is used only when [a] is entirely finite, since [inf *. 0]
   is NaN.  For the Van Loan matrix [[-A, Q], [0, Aᵀ]] and its Padé
   powers this skips the zero block for free.

   The tile helpers take buffers and indices only, never a float, so
   no float crosses a call.  Every index is in range by the dimension
   checks in [mul_into] and the support bounds. *)

let tile_2x4 ad bd cd ~p ~n i j k0 k1 =
  let c00 = ref 0.0 and c01 = ref 0.0 and c02 = ref 0.0 and c03 = ref 0.0 in
  let c10 = ref 0.0 and c11 = ref 0.0 and c12 = ref 0.0 and c13 = ref 0.0 in
  let r0 = i * p and r1 = (i + 1) * p in
  let bk = ref ((k0 * n) + j) in
  for k = k0 to k1 do
    let a0 = Array.unsafe_get ad (r0 + k)
    and a1 = Array.unsafe_get ad (r1 + k) in
    let o = !bk in
    if a0 <> 0.0 then begin
      let b0 = Array.unsafe_get bd o and b1 = Array.unsafe_get bd (o + 1) in
      let b2 = Array.unsafe_get bd (o + 2) and b3 = Array.unsafe_get bd (o + 3) in
      c00 := !c00 +. (a0 *. b0);
      c01 := !c01 +. (a0 *. b1);
      c02 := !c02 +. (a0 *. b2);
      c03 := !c03 +. (a0 *. b3);
      if a1 <> 0.0 then begin
        c10 := !c10 +. (a1 *. b0);
        c11 := !c11 +. (a1 *. b1);
        c12 := !c12 +. (a1 *. b2);
        c13 := !c13 +. (a1 *. b3)
      end
    end
    else if a1 <> 0.0 then begin
      c10 := !c10 +. (a1 *. Array.unsafe_get bd o);
      c11 := !c11 +. (a1 *. Array.unsafe_get bd (o + 1));
      c12 := !c12 +. (a1 *. Array.unsafe_get bd (o + 2));
      c13 := !c13 +. (a1 *. Array.unsafe_get bd (o + 3))
    end;
    bk := o + n
  done;
  let o0 = (i * n) + j and o1 = ((i + 1) * n) + j in
  Array.unsafe_set cd o0 !c00;
  Array.unsafe_set cd (o0 + 1) !c01;
  Array.unsafe_set cd (o0 + 2) !c02;
  Array.unsafe_set cd (o0 + 3) !c03;
  Array.unsafe_set cd o1 !c10;
  Array.unsafe_set cd (o1 + 1) !c11;
  Array.unsafe_set cd (o1 + 2) !c12;
  Array.unsafe_set cd (o1 + 3) !c13

(* One column of rows [i] .. [i + rows - 1] ([rows] is 1 or 2): the
   columns past the last multiple of 4, and every column of the last row
   of an odd-height product. *)
let tile_col ad bd cd ~p ~n ~rows i j k0 k1 =
  for r = i to i + rows - 1 do
    let c = ref 0.0 in
    let ra = r * p in
    for k = k0 to k1 do
      let a0 = Array.unsafe_get ad (ra + k) in
      if a0 <> 0.0 then c := !c +. (a0 *. Array.unsafe_get bd ((k * n) + j))
    done;
    Array.unsafe_set cd ((r * n) + j) !c
  done

(* Every entry of [c] is written (a tile with an empty [k] range stores
   its zero accumulators), so [c] needs no clearing first.  Empty
   matrices all share the one empty array and cannot alias. *)
let mul_into a b c =
  if a.nc <> b.nr then invalid_arg "Mat.mul_into: inner dimension mismatch";
  if c.nr <> a.nr || c.nc <> b.nc then
    invalid_arg "Mat.mul_into: output dimension mismatch";
  if Array.length c.d > 0 && (c.d == a.d || c.d == b.d) then
    invalid_arg "Mat.mul_into: aliased output";
  let m = a.nr and p = a.nc and n = b.nc in
  let ad = a.d and bd = b.d and cd = c.d in
  (* nonzero supports: [lo, hi] per row of [a] and per column of [b]
     (empty as [p, -1]) *)
  let a_lo = Array.make m p and a_hi = Array.make m (-1) in
  let a_finite = ref true in
  for i = 0 to m - 1 do
    for k = 0 to p - 1 do
      let x = Array.unsafe_get ad ((i * p) + k) in
      if x <> 0.0 then begin
        if k < a_lo.(i) then a_lo.(i) <- k;
        a_hi.(i) <- k;
        if not (Float.is_finite x) then a_finite := false
      end
    done
  done;
  let b_lo = Array.make n 0 and b_hi = Array.make n (p - 1) in
  if !a_finite then begin
    Array.fill b_lo 0 n p;
    Array.fill b_hi 0 n (-1);
    for k = 0 to p - 1 do
      for j = 0 to n - 1 do
        if Array.unsafe_get bd ((k * n) + j) <> 0.0 then begin
          if k < b_lo.(j) then b_lo.(j) <- k;
          b_hi.(j) <- k
        end
      done
    done
  end;
  for t = 0 to ((m + 1) / 2) - 1 do
    let i0 = 2 * t in
    let rows = if i0 + 1 < m then 2 else 1 in
    let alo = Int.min a_lo.(i0) a_lo.(i0 + rows - 1)
    and ahi = Int.max a_hi.(i0) a_hi.(i0 + rows - 1) in
    let n4 = if rows = 2 then n - (n mod 4) else 0 in
    for u = 0 to (n4 / 4) - 1 do
      let j0 = 4 * u in
      let blo =
        Int.min (Int.min b_lo.(j0) b_lo.(j0 + 1))
          (Int.min b_lo.(j0 + 2) b_lo.(j0 + 3))
      and bhi =
        Int.max (Int.max b_hi.(j0) b_hi.(j0 + 1))
          (Int.max b_hi.(j0 + 2) b_hi.(j0 + 3))
      in
      tile_2x4 ad bd cd ~p ~n i0 j0 (Int.max alo blo) (Int.min ahi bhi)
    done;
    for j0 = n4 to n - 1 do
      tile_col ad bd cd ~p ~n ~rows i0 j0 (Int.max alo b_lo.(j0))
        (Int.min ahi b_hi.(j0))
    done
  done

let mul a b =
  if a.nc <> b.nr then invalid_arg "Mat.mul: inner dimension mismatch";
  let c = create a.nr b.nc in
  mul_into a b c;
  c

let mul_vec m v =
  if m.nc <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.nr (fun i ->
      let acc = ref 0.0 in
      let base = i * m.nc in
      for j = 0 to m.nc - 1 do
        acc := !acc +. (m.d.(base + j) *. v.(j))
      done;
      !acc)

let mul_transpose_vec m v =
  if m.nr <> Array.length v then
    invalid_arg "Mat.mul_transpose_vec: dimension mismatch";
  let r = Array.make m.nc 0.0 in
  for i = 0 to m.nr - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then begin
      let base = i * m.nc in
      for j = 0 to m.nc - 1 do
        r.(j) <- r.(j) +. (m.d.(base + j) *. vi)
      done
    end
  done;
  r

let row m i =
  if i < 0 || i >= m.nr then invalid_arg "Mat.row: out of bounds";
  Array.init m.nc (fun j -> m.d.((i * m.nc) + j))

let col m j =
  if j < 0 || j >= m.nc then invalid_arg "Mat.col: out of bounds";
  Array.init m.nr (fun i -> m.d.((i * m.nc) + j))

let map f m = { m with d = Array.map f m.d }

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.nr - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.nc - 1 do
      acc := !acc +. abs_float m.d.((i * m.nc) + j)
    done;
    best := max !best !acc
  done;
  !best

let norm_fro m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.d)

(* [Stdlib.max !best x], written out: the polymorphic call boxes every
   float it is passed *)
let max_abs m =
  let best = ref 0.0 in
  for k = 0 to Array.length m.d - 1 do
    let x = abs_float m.d.(k) in
    if not (!best >= x) then best := x
  done;
  !best

let max_abs_diff a b =
  same_dims a b "max_abs_diff";
  let best = ref 0.0 in
  for k = 0 to Array.length a.d - 1 do
    let x = abs_float (a.d.(k) -. b.d.(k)) in
    if not (!best >= x) then best := x
  done;
  !best

let is_square m = m.nr = m.nc

let symmetrize m =
  if not (is_square m) then invalid_arg "Mat.symmetrize: not square";
  let n = m.nr and s = m.d in
  let d = Array.create_float (n * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Array.unsafe_set d ((i * n) + j)
        (0.5
        *. (Array.unsafe_get s ((i * n) + j) +. Array.unsafe_get s ((j * n) + i))
        )
    done
  done;
  { m with d }

let submatrix m ~rows:ris ~cols:cjs =
  let ris = Array.of_list ris and cjs = Array.of_list cjs in
  Array.iter (fun i -> if i < 0 || i >= m.nr then invalid_arg "Mat.submatrix") ris;
  Array.iter (fun j -> if j < 0 || j >= m.nc then invalid_arg "Mat.submatrix") cjs;
  init (Array.length ris) (Array.length cjs) (fun i j ->
      m.d.((ris.(i) * m.nc) + cjs.(j)))

let hcat a b =
  if a.nr <> b.nr then invalid_arg "Mat.hcat: row mismatch";
  init a.nr (a.nc + b.nc) (fun i j ->
      if j < a.nc then a.d.((i * a.nc) + j) else b.d.((i * b.nc) + (j - a.nc)))

let vcat a b =
  if a.nc <> b.nc then invalid_arg "Mat.vcat: column mismatch";
  init (a.nr + b.nr) a.nc (fun i j ->
      if i < a.nr then a.d.((i * a.nc) + j) else b.d.(((i - a.nr) * b.nc) + j))

let equal ?(tol = 0.0) a b =
  a.nr = b.nr && a.nc = b.nc && max_abs_diff a b <= tol

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.nr - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.nc - 1 do
      if j > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%10.4g" m.d.((i * m.nc) + j)
    done;
    Format.fprintf fmt "]";
    if i < m.nr - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
