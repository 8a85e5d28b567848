(* Block upper-triangular matrices [[X11, X12], [0, X22]] of order 2n,
   held as their three n×n blocks, and their product.

   The 2n product ([Mat.mul_into]) gives entry (i, j) as the sum, from
   [0.0] in ascending k, of the nonzero terms of row i against column
   j.  A term with a zero factor is [±0], which leaves such a sum as it
   is while the other factor is finite: a sum that starts at [+0.0] is
   never [-0.0].  So, for finite blocks, the 2n product of two such
   matrices is
     C11 = X11 Y11,  C12 = X11 Y12 then X12 Y22,  C22 = X22 Y22,
   each a sum over ascending k, C12 running on from the X11 Y12 terms
   into the X12 Y22 ones, and C21 = +0 — the zero block's terms are
   all [±0].  The kernel below forms exactly those sums and never
   touches the zero block, which is not stored.

   Each block row is classified once per operand ({!classify}) by its
   nonzero support [lo, hi] and whether it has a zero inside it, so an
   operand serves every product it enters without a rescan.  Two
   consecutive zero-free rows with the same supports run in 2 x 4
   tiles of float accumulators; every other row runs as a row axpy
   over its nonzeros, each against the support of the row of the
   right operand it scales.  A tile's terms with a zero right-hand
   factor, and the terms an axpy skips, are [±0]: exact for finite
   operands.

   The helpers take buffers and indices only, never a float, so no
   float crosses a call.  Every index is in range: the blocks are
   [n × n], the supports lie in [0, n - 1], and [mul] checks that the
   three operands have the same [n]. *)

type t = {
  n : int;
  d : float array; (* X11, X12, X22, each n×n row-major, from 0, n², 2n² *)
  lo : int array; (* block row (b, i) at b n + i: its first nonzero column *)
  hi : int array; (* and its last; an empty row is [n, -1] *)
  dense : bool array; (* no zero inside [lo, hi] *)
}

let x11 = 0

let x12 = 1

let x22 = 2

let create n =
  if n < 0 then invalid_arg "Btri.create: negative size";
  {
    n;
    d = Array.create_float (3 * n * n);
    lo = Array.make (3 * n) n;
    hi = Array.make (3 * n) (-1);
    dense = Array.make (3 * n) true;
  }

let data t = t.d

let offset t b = b * t.n * t.n

(* Each block row's support is found from its two ends; the pass over
   it stops at the first interior zero, so a zero-free row costs one
   test per entry of its support. *)
let classify t =
  let n = t.n and d = t.d in
  for r = 0 to (3 * n) - 1 do
    let o = r * n in
    let lo = ref 0 in
    while !lo < n && Array.unsafe_get d (o + !lo) = 0.0 do
      incr lo
    done;
    if !lo = n then begin
      t.lo.(r) <- n;
      t.hi.(r) <- -1;
      t.dense.(r) <- true
    end
    else begin
      let lo = !lo and hi = ref (n - 1) in
      while Array.unsafe_get d (o + !hi) = 0.0 do
        decr hi
      done;
      let hi = !hi and k = ref lo in
      while !k <= hi && Array.unsafe_get d (o + !k) <> 0.0 do
        incr k
      done;
      t.lo.(r) <- lo;
      t.hi.(r) <- hi;
      t.dense.(r) <- !k > hi
    end
  done

(* Rows [i] and [i + 1] of the output block at [co] against its columns
   [j .. j + 3]: the terms of [x] (from [xo]) against [y] (from [yo])
   over [k] in [k0 .. k1], then those of the second segment
   ([xo'], [yo'], [k0' .. k1'], empty when [k0' > k1']). *)
let tile_2x4 xd yd cd ~n ~xo ~yo ~k0 ~k1 ~xo' ~yo' ~k0' ~k1' ~co i j =
  let c00 = ref 0.0 and c01 = ref 0.0 and c02 = ref 0.0 and c03 = ref 0.0 in
  let c10 = ref 0.0 and c11 = ref 0.0 and c12 = ref 0.0 and c13 = ref 0.0 in
  let r0 = xo + (i * n) and r1 = xo + ((i + 1) * n) in
  for k = k0 to k1 do
    let a0 = Array.unsafe_get xd (r0 + k)
    and a1 = Array.unsafe_get xd (r1 + k)
    and o = yo + (k * n) + j in
    let b0 = Array.unsafe_get yd o and b1 = Array.unsafe_get yd (o + 1) in
    let b2 = Array.unsafe_get yd (o + 2) and b3 = Array.unsafe_get yd (o + 3) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c02 := !c02 +. (a0 *. b2);
    c03 := !c03 +. (a0 *. b3);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c12 := !c12 +. (a1 *. b2);
    c13 := !c13 +. (a1 *. b3)
  done;
  (* the second segment, the same loop *)
  let r0 = xo' + (i * n) and r1 = xo' + ((i + 1) * n) in
  for k = k0' to k1' do
    let a0 = Array.unsafe_get xd (r0 + k)
    and a1 = Array.unsafe_get xd (r1 + k)
    and o = yo' + (k * n) + j in
    let b0 = Array.unsafe_get yd o and b1 = Array.unsafe_get yd (o + 1) in
    let b2 = Array.unsafe_get yd (o + 2) and b3 = Array.unsafe_get yd (o + 3) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c02 := !c02 +. (a0 *. b2);
    c03 := !c03 +. (a0 *. b3);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c12 := !c12 +. (a1 *. b2);
    c13 := !c13 +. (a1 *. b3)
  done;
  let o0 = co + (i * n) + j and o1 = co + ((i + 1) * n) + j in
  Array.unsafe_set cd o0 !c00;
  Array.unsafe_set cd (o0 + 1) !c01;
  Array.unsafe_set cd (o0 + 2) !c02;
  Array.unsafe_set cd (o0 + 3) !c03;
  Array.unsafe_set cd o1 !c10;
  Array.unsafe_set cd (o1 + 1) !c11;
  Array.unsafe_set cd (o1 + 2) !c12;
  Array.unsafe_set cd (o1 + 3) !c13

(* Column [j] of row [i] of a tile pair: the columns past the last
   multiple of 4. *)
let tile_col xd yd cd ~n ~xo ~yo ~k0 ~k1 ~xo' ~yo' ~k0' ~k1' ~co i j =
  let c = ref 0.0 in
  let ra = xo + (i * n) in
  for k = k0 to k1 do
    c := !c +. (Array.unsafe_get xd (ra + k) *. Array.unsafe_get yd (yo + (k * n) + j))
  done;
  let ra = xo' + (i * n) in
  for k = k0' to k1' do
    c := !c +. (Array.unsafe_get xd (ra + k) *. Array.unsafe_get yd (yo' + (k * n) + j))
  done;
  Array.unsafe_set cd (co + (i * n) + j) !c

(* [c_i += x_ik y_k] for each nonzero [x_ik] of block row [xr] of [x]
   (block at [xo]), ascending [k], over the support of block row
   [yr + k] of [y] (block at [yo]), into [cd] from [ci]. *)
let axpy x y cd ~xr ~xo ~yr ~yo ~ci i =
  let n = x.n and xd = x.d and yd = y.d in
  let ra = xo + (i * n) in
  for k = x.lo.(xr + i) to x.hi.(xr + i) do
    let a = Array.unsafe_get xd (ra + k) in
    if a <> 0.0 then begin
      let bo = yo + (k * n) in
      for j = Array.unsafe_get y.lo (yr + k) to Array.unsafe_get y.hi (yr + k) do
        Array.unsafe_set cd (ci + j)
          (Array.unsafe_get cd (ci + j) +. (a *. Array.unsafe_get yd (bo + j)))
      done
    end
  done

(* Whether block row [r] and the next one share a tile. *)
let pairs x r =
  x.dense.(r) && x.dense.(r + 1)
  && x.lo.(r) = x.lo.(r + 1)
  && x.hi.(r) = x.hi.(r + 1)

(* Block [cb] of [c] from block [xb] of [x] times block [yb] of [y],
   then, when [xb' >= 0], block [xb'] of [x] times block [yb'] of
   [y], in one running sum per entry. *)
let block_product x y c ~cb ~xb ~yb ~xb' ~yb' =
  let n = x.n in
  let nn = n * n and n4 = n - (n mod 4) in
  let xd = x.d and yd = y.d and cd = c.d in
  let co = cb * nn and xo = xb * nn and yo = yb * nn in
  let xr = xb * n and yr = yb * n in
  let two = xb' >= 0 in
  let xo' = if two then xb' * nn else 0 and yo' = if two then yb' * nn else 0 in
  let xr' = if two then xb' * n else 0 and yr' = if two then yb' * n else 0 in
  let i = ref 0 in
  while !i < n do
    let i0 = !i in
    if i0 + 1 < n && pairs x (xr + i0) && ((not two) || pairs x (xr' + i0)) then begin
      let k0 = x.lo.(xr + i0) and k1 = x.hi.(xr + i0) in
      let k0' = if two then x.lo.(xr' + i0) else 0
      and k1' = if two then x.hi.(xr' + i0) else -1 in
      let u = ref 0 in
      while !u < n4 do
        tile_2x4 xd yd cd ~n ~xo ~yo ~k0 ~k1 ~xo' ~yo' ~k0' ~k1' ~co i0 !u;
        u := !u + 4
      done;
      for r = i0 to i0 + 1 do
        for j = n4 to n - 1 do
          tile_col xd yd cd ~n ~xo ~yo ~k0 ~k1 ~xo' ~yo' ~k0' ~k1' ~co r j
        done
      done;
      i := i0 + 2
    end
    else begin
      let ci = co + (i0 * n) in
      Array.fill cd ci n 0.0;
      axpy x y cd ~xr ~xo ~yr ~yo ~ci i0;
      if two then axpy x y cd ~xr:xr' ~xo:xo' ~yr:yr' ~yo:yo' ~ci i0;
      i := i0 + 1
    end
  done

let mul ?(left = true) x y c =
  if x.n <> y.n || c.n <> x.n then invalid_arg "Btri.mul: dimension mismatch";
  if x.n > 0 && (c.d == x.d || c.d == y.d) then
    invalid_arg "Btri.mul: aliased output";
  if left then block_product x y c ~cb:x11 ~xb:x11 ~yb:x11 ~xb':(-1) ~yb':(-1);
  block_product x y c ~cb:x12 ~xb:x11 ~yb:x12 ~xb':x12 ~yb':x22;
  block_product x y c ~cb:x22 ~xb:x22 ~yb:x22 ~xb':(-1) ~yb':(-1)
