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
let transpose_data ~nr ~nc (s : float array) (d : float array) =
  for i = 0 to nc - 1 do
    for j = 0 to nr - 1 do
      Array.unsafe_set d ((i * nr) + j) (Array.unsafe_get s ((j * nc) + i))
    done
  done

let transpose m =
  let d = Array.create_float (m.nr * m.nc) in
  transpose_data ~nr:m.nr ~nc:m.nc m.d d;
  { nr = m.nc; nc = m.nr; d }

let transpose_into m out =
  if out.nr <> m.nc || out.nc <> m.nr then
    invalid_arg "Mat.transpose_into: dimension mismatch";
  if Array.length out.d > 0 && out.d == m.d then
    invalid_arg "Mat.transpose_into: aliased output";
  transpose_data ~nr:m.nr ~nc:m.nc m.d out.d

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
   is bitwise identical to that loop.

   Each row of [a] is classified once by its nonzero support [lo, hi],
   whether it is zero-free inside it and whether it is finite
   ([classify_row]: from the support's ends, then one test per entry
   of it on a zero-free finite row), and [b]'s columns by their supports
   from either end ([column_supports]: two loads on a column with no
   zero at its ends).  Two consecutive rows with the same support,
   both zero-free inside it (no [0.0] or [-0.0]; an empty row counts)
   and both finite or both not, run in 2 x 4 tiles of [c] held in float
   accumulators (the compiler keeps them unboxed in registers), with no
   zero test: every term of the range is a term of the loop.  Every
   other row runs as a row axpy over its nonzeros, [c_i += a_ik b_k]
   for ascending [k] — the loop itself, with [c]'s row as the
   accumulator.  The products of a covariance run are one class or the
   other: the transitions, the covariances and the exponentials are
   zero-free row by row, and the rows of a Van Loan matrix and its Padé
   powers are sparse inside a support that spans both blocks.

   Both paths skip terms where [b] is zero: outside the nonzero support
   of the tile's [b] columns (tiles) or of a [b] row (axpy) every term
   is [x *. 0], which leaves a running sum unchanged as long as [x] is
   finite (a sum that starts at [+0.0] is never [-0.0]).  That bound
   applies only to rows of [a] that are entirely finite, since
   [inf *. 0] is NaN.

   The helpers take buffers and indices only, never a float, so no
   float crosses a call.  Every index is in range by the dimension
   checks in [mul_into] and the support bounds. *)

(* Rows [i] and [i + 1] against columns [j .. j + 3], over [k] in
   [k0 .. k1]. *)
let tile_2x4 ad bd cd ~p ~n i j k0 k1 =
  let c00 = ref 0.0 and c01 = ref 0.0 and c02 = ref 0.0 and c03 = ref 0.0 in
  let c10 = ref 0.0 and c11 = ref 0.0 and c12 = ref 0.0 and c13 = ref 0.0 in
  let r0 = i * p and r1 = (i + 1) * p in
  let bk = ref ((k0 * n) + j) in
  for k = k0 to k1 do
    let a0 = Array.unsafe_get ad (r0 + k)
    and a1 = Array.unsafe_get ad (r1 + k)
    and o = !bk in
    let b0 = Array.unsafe_get bd o and b1 = Array.unsafe_get bd (o + 1) in
    let b2 = Array.unsafe_get bd (o + 2) and b3 = Array.unsafe_get bd (o + 3) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c02 := !c02 +. (a0 *. b2);
    c03 := !c03 +. (a0 *. b3);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c12 := !c12 +. (a1 *. b2);
    c13 := !c13 +. (a1 *. b3);
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

(* Column [j] of row [i] of a tile pair over [k] in [k0 .. k1]: the
   columns past the last multiple of 4. *)
let tile_col ad bd cd ~p ~n i j k0 k1 =
  let c = ref 0.0 and ra = i * p in
  for k = k0 to k1 do
    c :=
      !c +. (Array.unsafe_get ad (ra + k) *. Array.unsafe_get bd ((k * n) + j))
  done;
  Array.unsafe_set cd ((i * n) + j) !c

(* Row [i] of [c]: cleared, then [a_ik b_k] added for each nonzero
   [a_ik] in ascending [k], over the [b] row's support
   [b_lo.(k) .. b_hi.(k)] when [bound] (row [i] finite). *)
let row_axpy ad bd cd ~p ~n ~bound b_lo b_hi i lo hi =
  let ci = i * n and ra = i * p in
  Array.fill cd ci n 0.0;
  for k = lo to hi do
    let x = Array.unsafe_get ad (ra + k) in
    if x <> 0.0 then begin
      let bo = k * n in
      let jlo = if bound then Array.unsafe_get b_lo k else 0
      and jhi = if bound then Array.unsafe_get b_hi k else n - 1 in
      for j = jlo to jhi do
        Array.unsafe_set cd (ci + j)
          (Array.unsafe_get cd (ci + j) +. (x *. Array.unsafe_get bd (bo + j)))
      done
    end
  done

(* Per-domain scratch of [mul_into], grown to the largest operands
   seen: per row of [a] its nonzero support, whether it is zero-free
   inside it and whether it is finite; the nonzero supports of [b]'s
   columns (for the tiles) and rows (for the axpys).  A product
   allocates no array, so it leaves the collector's pacing of its
   callers as it was. *)
type scratch = {
  mutable a_lo : int array;
  mutable a_hi : int array;
  mutable zero_free : bool array;
  mutable finite : bool array;
  mutable bc_lo : int array;
  mutable bc_hi : int array;
  mutable br_lo : int array;
  mutable br_hi : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { a_lo = [||]; a_hi = [||]; zero_free = [||]; finite = [||];
        bc_lo = [||]; bc_hi = [||]; br_lo = [||]; br_hi = [||] })

let scratch ~m ~p ~n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.a_lo < m then begin
    s.a_lo <- Array.make m 0;
    s.a_hi <- Array.make m 0;
    s.zero_free <- Array.make m false;
    s.finite <- Array.make m false
  end;
  if Array.length s.bc_lo < n then begin
    s.bc_lo <- Array.make n 0;
    s.bc_hi <- Array.make n 0
  end;
  if Array.length s.br_lo < p then begin
    s.br_lo <- Array.make p 0;
    s.br_hi <- Array.make p 0
  end;
  s

(* Row [i] of [a]: its nonzero support, found from its two ends, then
   one pass over the support that stops at the first entry that is zero
   or not finite ([x -. x] is [0] exactly when [x] is finite).  Only a
   row that has such an entry counts its nonzeros, from there on, so a
   zero-free finite row costs one test per entry of its support. *)
let classify_row ad ~p a_lo a_hi zero_free finite i =
  let r = i * p in
  let lo = ref 0 in
  while !lo < p && Array.unsafe_get ad (r + !lo) = 0.0 do
    incr lo
  done;
  if !lo = p then begin
    a_lo.(i) <- p;
    a_hi.(i) <- -1;
    zero_free.(i) <- true;
    finite.(i) <- true
  end
  else begin
    let lo = !lo and hi = ref (p - 1) in
    while Array.unsafe_get ad (r + !hi) = 0.0 do
      decr hi
    done;
    let hi = !hi and k = ref lo in
    while
      !k <= hi
      &&
      let x = Array.unsafe_get ad (r + !k) in
      x <> 0.0 && x -. x = 0.0
    do
      incr k
    done;
    a_lo.(i) <- lo;
    a_hi.(i) <- hi;
    if !k > hi then begin
      zero_free.(i) <- true;
      finite.(i) <- true
    end
    else begin
      let nnz = ref (!k - lo) and fin = ref true in
      for k = !k to hi do
        let x = Array.unsafe_get ad (r + k) in
        if x <> 0.0 then begin
          incr nnz;
          if not (Float.is_finite x) then fin := false
        end
      done;
      zero_free.(i) <- !nnz = hi - lo + 1;
      finite.(i) <- !fin
    end
  end

(* The nonzero support of each column of the [p × n] [b], walked from
   the top and from the bottom to the column's first nonzero: a column
   with no zero at either end costs two loads. *)
let column_supports bd ~p ~n bc_lo bc_hi =
  for j = 0 to n - 1 do
    let k = ref 0 in
    while !k < p && Array.unsafe_get bd ((!k * n) + j) = 0.0 do
      incr k
    done;
    if !k = p then begin
      bc_lo.(j) <- p;
      bc_hi.(j) <- -1
    end
    else begin
      bc_lo.(j) <- !k;
      let k = ref (p - 1) in
      while Array.unsafe_get bd ((!k * n) + j) = 0.0 do
        decr k
      done;
      bc_hi.(j) <- !k
    end
  done

(* Whether rows [i] and [i + 1] of the first [m] share a tile.  A
   top-level function, so that a product allocates no closure. *)
let paired ~m a_lo a_hi zero_free finite i =
  i + 1 < m && zero_free.(i) && zero_free.(i + 1)
  && a_lo.(i) = a_lo.(i + 1) && a_hi.(i) = a_hi.(i + 1)
  && finite.(i) = finite.(i + 1)

(* Every entry of the first [m] rows of [c] is written (a tile with an
   empty [k] range stores its zero accumulators, an axpy row clears
   first), so [c] needs no clearing; its later rows are not touched.
   Empty matrices all share the one empty array and cannot alias. *)
let mul_into ?rows a b c =
  if a.nc <> b.nr then invalid_arg "Mat.mul_into: inner dimension mismatch";
  if c.nr <> a.nr || c.nc <> b.nc then
    invalid_arg "Mat.mul_into: output dimension mismatch";
  if Array.length c.d > 0 && (c.d == a.d || c.d == b.d) then
    invalid_arg "Mat.mul_into: aliased output";
  let m = match rows with None -> a.nr | Some r -> r in
  if m < 0 || m > a.nr then invalid_arg "Mat.mul_into: row count out of range";
  let p = a.nc and n = b.nc in
  let ad = a.d and bd = b.d and cd = c.d in
  let { a_lo; a_hi; zero_free; finite; bc_lo; bc_hi; br_lo; br_hi } =
    scratch ~m ~p ~n
  in
  for i = 0 to m - 1 do
    classify_row ad ~p a_lo a_hi zero_free finite i
  done;
  (* whether a finite row runs in a tile, which needs [b]'s column
     supports, or as an axpy, which needs its row supports: the pairing
     walk of the product loop below, run once ahead of it *)
  let col_bound = ref false and row_bound = ref false in
  let i = ref 0 in
  while !i < m do
    if paired ~m a_lo a_hi zero_free finite !i then begin
      if finite.(!i) then col_bound := true;
      i := !i + 2
    end
    else begin
      if finite.(!i) then row_bound := true;
      incr i
    end
  done;
  if !col_bound then column_supports bd ~p ~n bc_lo bc_hi;
  if !row_bound then
    for k = 0 to p - 1 do
      let o = k * n in
      let j = ref 0 in
      while !j < n && Array.unsafe_get bd (o + !j) = 0.0 do
        incr j
      done;
      br_lo.(k) <- !j;
      let j = ref (n - 1) in
      while !j >= 0 && Array.unsafe_get bd (o + !j) = 0.0 do
        decr j
      done;
      br_hi.(k) <- !j
    done;
  let n4 = n - (n mod 4) in
  let i = ref 0 in
  while !i < m do
    let i0 = !i in
    let lo = a_lo.(i0) and hi = a_hi.(i0) and fin = finite.(i0) in
    if paired ~m a_lo a_hi zero_free finite i0 then begin
      for u = 0 to (n4 / 4) - 1 do
        let j = 4 * u in
        if fin then
          let blo =
            Int.min (Int.min bc_lo.(j) bc_lo.(j + 1))
              (Int.min bc_lo.(j + 2) bc_lo.(j + 3))
          and bhi =
            Int.max (Int.max bc_hi.(j) bc_hi.(j + 1))
              (Int.max bc_hi.(j + 2) bc_hi.(j + 3))
          in
          tile_2x4 ad bd cd ~p ~n i0 j (Int.max lo blo) (Int.min hi bhi)
        else tile_2x4 ad bd cd ~p ~n i0 j lo hi
      done;
      for r = i0 to i0 + 1 do
        for j = n4 to n - 1 do
          if fin then
            tile_col ad bd cd ~p ~n r j (Int.max lo bc_lo.(j))
              (Int.min hi bc_hi.(j))
          else tile_col ad bd cd ~p ~n r j lo hi
        done
      done;
      i := i0 + 2
    end
    else begin
      row_axpy ad bd cd ~p ~n ~bound:fin br_lo br_hi i0 lo hi;
      i := i0 + 1
    end
  done

let mul a b =
  if a.nc <> b.nr then invalid_arg "Mat.mul: inner dimension mismatch";
  let c = create a.nr b.nc in
  mul_into a b c;
  c

let mul_vec_into m v out =
  if m.nc <> Array.length v || m.nr <> Array.length out then
    invalid_arg "Mat.mul_vec_into: dimension mismatch";
  if m.nr > 0 && out == v then invalid_arg "Mat.mul_vec_into: aliased output";
  for i = 0 to m.nr - 1 do
    let acc = ref 0.0 in
    let base = i * m.nc in
    for j = 0 to m.nc - 1 do
      acc := !acc +. (m.d.(base + j) *. v.(j))
    done;
    out.(i) <- !acc
  done

let mul_vec m v =
  if m.nc <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  let out = Array.make m.nr 0.0 in
  mul_vec_into m v out;
  out

let mul_transpose_vec_into m v out =
  if m.nr <> Array.length v || m.nc <> Array.length out then
    invalid_arg "Mat.mul_transpose_vec_into: dimension mismatch";
  if m.nc > 0 && out == v then
    invalid_arg "Mat.mul_transpose_vec_into: aliased output";
  Array.fill out 0 m.nc 0.0;
  for i = 0 to m.nr - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then begin
      let base = i * m.nc in
      for j = 0 to m.nc - 1 do
        out.(j) <- out.(j) +. (m.d.(base + j) *. vi)
      done
    end
  done

let mul_transpose_vec m v =
  if m.nr <> Array.length v then
    invalid_arg "Mat.mul_transpose_vec: dimension mismatch";
  let out = Array.make m.nc 0.0 in
  mul_transpose_vec_into m v out;
  out

let row m i =
  if i < 0 || i >= m.nr then invalid_arg "Mat.row: out of bounds";
  Array.init m.nc (fun j -> m.d.((i * m.nc) + j))

let col m j =
  if j < 0 || j >= m.nc then invalid_arg "Mat.col: out of bounds";
  Array.init m.nr (fun i -> m.d.((i * m.nc) + j))

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
