module Obs = Scnoise_obs.Obs

exception No_convergence of int

(* O(n^3) work the periodic-BVP sweep pays once, at preparation *)
let c_reductions = Obs.counter "schur_reductions"

(* Householder similarity reduction to upper Hessenberg form, in place
   on the row-major [n×n] buffer [a].  With [u] (the identity on entry)
   each reflector P_k = I - beta v vᵀ is also accumulated as
   u <- u P_k, so that on exit A = u H uᵀ; the reduction's own
   arithmetic does not depend on it.

   Every entry sees the float operations of the textbook column loop
   ([Oracle.hessenberg]), in its order.  The left update's sums
   s_j = sum_i v_i a_ij run over ascending i for every column at once,
   four rows of [a] per pass with s_j held in a register, and its row
   updates a_ij - s_j v_i take four rows per pass; the right updates'
   row sums run four rows at a time in independent accumulators.

   The left update runs over the columns j >= k only.  Below the
   subdiagonal, columns j < k hold the [+0.0] their own step wrote,
   and the loop's terms there leave them so: with v and beta finite,
   v_i *. +0 is ±0, so s_j = beta *. +0 = +0 and a_ij -. (+0 *. v_i)
   is +0 again.  A step whose v or beta is not finite would write NaN
   there, so from the first such step on the full range runs.

   The helpers take buffers and indices; only the right update takes
   a float, once per step and matrix, as before. *)

(* s_j <- sum_{i > k} v_i a_ij for j in [j0, n - 1] *)
let column_sums a v s ~n ~k ~j0 =
  Array.fill s j0 (n - j0) 0.0;
  let i = ref (k + 1) in
  while !i + 4 <= n do
    let i0 = !i in
    let v0 = v.(i0) and v1 = v.(i0 + 1) and v2 = v.(i0 + 2)
    and v3 = v.(i0 + 3) in
    let r0 = i0 * n and r1 = (i0 + 1) * n and r2 = (i0 + 2) * n
    and r3 = (i0 + 3) * n in
    for j = j0 to n - 1 do
      Array.unsafe_set s j
        (Array.unsafe_get s j
        +. (v0 *. Array.unsafe_get a (r0 + j))
        +. (v1 *. Array.unsafe_get a (r1 + j))
        +. (v2 *. Array.unsafe_get a (r2 + j))
        +. (v3 *. Array.unsafe_get a (r3 + j)))
    done;
    i := i0 + 4
  done;
  for i = !i to n - 1 do
    let vi = v.(i) and r = i * n in
    for j = j0 to n - 1 do
      Array.unsafe_set s j
        (Array.unsafe_get s j +. (vi *. Array.unsafe_get a (r + j)))
    done
  done

(* a_ij <- a_ij - s_j v_i for i > k, j in [j0, n - 1] *)
let left_update a v s ~n ~k ~j0 =
  let i = ref (k + 1) in
  while !i + 4 <= n do
    let i0 = !i in
    let v0 = v.(i0) and v1 = v.(i0 + 1) and v2 = v.(i0 + 2)
    and v3 = v.(i0 + 3) in
    let r0 = i0 * n and r1 = (i0 + 1) * n and r2 = (i0 + 2) * n
    and r3 = (i0 + 3) * n in
    for j = j0 to n - 1 do
      let sj = Array.unsafe_get s j in
      Array.unsafe_set a (r0 + j) (Array.unsafe_get a (r0 + j) -. (sj *. v0));
      Array.unsafe_set a (r1 + j) (Array.unsafe_get a (r1 + j) -. (sj *. v1));
      Array.unsafe_set a (r2 + j) (Array.unsafe_get a (r2 + j) -. (sj *. v2));
      Array.unsafe_set a (r3 + j) (Array.unsafe_get a (r3 + j) -. (sj *. v3))
    done;
    i := i0 + 4
  done;
  for i = !i to n - 1 do
    let vi = v.(i) and r = i * n in
    for j = j0 to n - 1 do
      Array.unsafe_set a (r + j)
        (Array.unsafe_get a (r + j) -. (Array.unsafe_get s j *. vi))
    done
  done

(* x <- x (I - beta v vᵀ) on the rows of the row-major [x] *)
let right_update x v ~n ~k beta =
  let i = ref 0 in
  while !i + 4 <= n do
    let r0 = !i * n in
    let r1 = r0 + n in
    let r2 = r1 + n in
    let r3 = r2 + n in
    let c0 = ref 0.0 and c1 = ref 0.0 and c2 = ref 0.0 and c3 = ref 0.0 in
    for j = k + 1 to n - 1 do
      let vj = Array.unsafe_get v j in
      c0 := !c0 +. (Array.unsafe_get x (r0 + j) *. vj);
      c1 := !c1 +. (Array.unsafe_get x (r1 + j) *. vj);
      c2 := !c2 +. (Array.unsafe_get x (r2 + j) *. vj);
      c3 := !c3 +. (Array.unsafe_get x (r3 + j) *. vj)
    done;
    let c0 = beta *. !c0 and c1 = beta *. !c1 and c2 = beta *. !c2
    and c3 = beta *. !c3 in
    for j = k + 1 to n - 1 do
      let vj = Array.unsafe_get v j in
      Array.unsafe_set x (r0 + j) (Array.unsafe_get x (r0 + j) -. (c0 *. vj));
      Array.unsafe_set x (r1 + j) (Array.unsafe_get x (r1 + j) -. (c1 *. vj));
      Array.unsafe_set x (r2 + j) (Array.unsafe_get x (r2 + j) -. (c2 *. vj));
      Array.unsafe_set x (r3 + j) (Array.unsafe_get x (r3 + j) -. (c3 *. vj))
    done;
    i := !i + 4
  done;
  for i = !i to n - 1 do
    let r = i * n in
    let acc = ref 0.0 in
    for j = k + 1 to n - 1 do
      acc := !acc +. (Array.unsafe_get x (r + j) *. Array.unsafe_get v j)
    done;
    let acc = beta *. !acc in
    for j = k + 1 to n - 1 do
      Array.unsafe_set x (r + j)
        (Array.unsafe_get x (r + j) -. (acc *. Array.unsafe_get v j))
    done
  done

let reduce ?u a n =
  let v = Array.make n 0.0 and s = Array.make n 0.0 in
  (* whether every step so far had a finite v and beta *)
  let finite = ref true in
  for k = 0 to n - 3 do
    (* Householder vector annihilating a.(k+2..n-1).(k). *)
    let alpha = ref 0.0 in
    for i = k + 1 to n - 1 do
      let x = a.((i * n) + k) in
      alpha := !alpha +. (x *. x)
    done;
    let alpha = sqrt !alpha in
    if alpha > 0.0 then begin
      let sub = a.(((k + 1) * n) + k) in
      let alpha = if sub > 0.0 then -.alpha else alpha in
      Array.fill v 0 n 0.0;
      v.(k + 1) <- sub -. alpha;
      for i = k + 2 to n - 1 do
        v.(i) <- a.((i * n) + k)
      done;
      let vnorm2 = ref 0.0 in
      for i = k + 1 to n - 1 do
        vnorm2 := !vnorm2 +. (v.(i) *. v.(i))
      done;
      if !vnorm2 > 0.0 then begin
        let beta = 2.0 /. !vnorm2 in
        if !finite then begin
          if not (Float.is_finite beta) then finite := false;
          for i = k + 1 to n - 1 do
            if not (Float.is_finite v.(i)) then finite := false
          done
        end;
        (* A <- (I - beta v vᵀ) A *)
        let j0 = if !finite then k else 0 in
        column_sums a v s ~n ~k ~j0;
        for j = j0 to n - 1 do
          s.(j) <- beta *. s.(j)
        done;
        left_update a v s ~n ~k ~j0;
        (* A <- A (I - beta v vᵀ) *)
        right_update a v ~n ~k beta;
        match u with Some u -> right_update u v ~n ~k beta | None -> ()
      end
    end;
    (* Clean below the first subdiagonal in column k. *)
    for i = k + 2 to n - 1 do
      a.((i * n) + k) <- 0.0
    done
  done

let hessenberg m =
  if not (Mat.is_square m) then invalid_arg "Eig.hessenberg: not square";
  let n = Mat.rows m in
  let h = Mat.copy m and u = Mat.identity n in
  reduce ~u:(Mat.data u) (Mat.data h) n;
  (h, u)

let sign_with magnitude reference =
  if reference >= 0.0 then abs_float magnitude else -.abs_float magnitude

(* One double step's reflector on columns k .. k + 2 (k .. k + 1 unless
   [three]) of rows lo .. hi of the row-major n×n [m], in hqr's order.
   A function of its own so that its float arguments are unboxed once
   per call rather than read from a closure in the loop. *)
let column_step m n k ~lo ~hi ~three x y z q r =
  for i = lo to hi do
    let c = (i * n) + k in
    let pp = (x *. Array.unsafe_get m c) +. (y *. Array.unsafe_get m (c + 1)) in
    let pp =
      if three then begin
        let pp = pp +. (z *. Array.unsafe_get m (c + 2)) in
        Array.unsafe_set m (c + 2) (Array.unsafe_get m (c + 2) -. (pp *. r));
        pp
      end
      else pp
    in
    Array.unsafe_set m (c + 1) (Array.unsafe_get m (c + 1) -. (pp *. q));
    Array.unsafe_set m c (Array.unsafe_get m c -. pp)
  done

(* Francis implicit double-shift QR on an upper Hessenberg matrix,
   classic EISPACK "hqr", 0-based, on the row-major [n×n] buffer [a].
   Returns the eigenvalues as (wr, wi).

   With [z] it is "hqr2" up to its back-substitution: every double step
   also updates the rows right of and the columns above the active
   window — so the window's own arithmetic, and with it every
   eigenvalue, is the same bit for bit — and accumulates its reflectors
   into the columns of [z] (z <- z Q); each deflated diagonal entry
   gets the accumulated exceptional shift back.  z a zᵀ is then what it
   was on entry, with [a] quasi-upper-triangular up to the rounding
   residue the steps leave below the subdiagonal ({!schur} clears
   it). *)
let hqr ?z a n =
  let full = Option.is_some z in
  let zd = match z with Some z -> z | None -> [||] in
  let wr = Array.make n 0.0 and wi = Array.make n 0.0 in
  let anorm = ref 0.0 in
  for i = 0 to n - 1 do
    for j = max (i - 1) 0 to n - 1 do
      anorm := !anorm +. abs_float a.((i * n) + j)
    done
  done;
  let anorm = !anorm in
  let eps = epsilon_float in
  let t = ref 0.0 in
  let nn = ref (n - 1) in
  while !nn >= 0 do
    let its = ref 0 in
    let finished_block = ref false in
    while not !finished_block do
      (* Find l such that the subdiagonal element a.(l).(l-1) is
         negligible (or l = 0). *)
      let l = ref 0 in
      (try
         for ll = !nn downto 1 do
           let s =
             abs_float a.(((ll - 1) * n) + ll - 1) +. abs_float a.((ll * n) + ll)
           in
           let s = if s = 0.0 then anorm else s in
           if abs_float a.((ll * n) + ll - 1) <= eps *. s then begin
             a.((ll * n) + ll - 1) <- 0.0;
             l := ll;
             raise Exit
           end
         done
       with Exit -> ());
      let l = !l in
      let en = !nn in
      let x = a.((en * n) + en) in
      if l = en then begin
        (* one real root *)
        wr.(en) <- x +. !t;
        wi.(en) <- 0.0;
        if full then a.((en * n) + en) <- x +. !t;
        decr nn;
        finished_block := true
      end
      else begin
        let na = en - 1 in
        let y = a.((na * n) + na) in
        let w = a.((en * n) + na) *. a.((na * n) + en) in
        if l = na then begin
          (* two roots from the trailing 2x2 block *)
          let p = 0.5 *. (y -. x) in
          let q = (p *. p) +. w in
          let z = sqrt (abs_float q) in
          if full then begin
            a.((en * n) + en) <- x +. !t;
            a.((na * n) + na) <- y +. !t
          end;
          let x = x +. !t in
          if q >= 0.0 then begin
            let z = p +. sign_with z p in
            wr.(na) <- x +. z;
            wr.(en) <- (if z <> 0.0 then x -. (w /. z) else x +. z);
            wi.(na) <- 0.0;
            wi.(en) <- 0.0
          end
          else begin
            wr.(na) <- x +. p;
            wr.(en) <- x +. p;
            wi.(na) <- z;
            wi.(en) <- -.z
          end;
          nn := en - 2;
          finished_block := true
        end
        else begin
          if !its = 30 then raise (No_convergence en);
          let x = ref x and y = ref y and w = ref w in
          if !its = 10 || !its = 20 then begin
            (* exceptional shift *)
            t := !t +. !x;
            for i = 0 to en do
              a.((i * n) + i) <- a.((i * n) + i) -. !x
            done;
            let s =
              abs_float a.((en * n) + na) +. abs_float a.((na * n) + en - 2)
            in
            x := 0.75 *. s;
            y := !x;
            w := -0.4375 *. s *. s
          end;
          incr its;
          (* Look for two consecutive small subdiagonal elements. *)
          let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
          let m = ref (en - 2) in
          (try
             while !m >= l do
               let m0 = !m * n and m1 = (!m + 1) * n in
               let z = a.(m0 + !m) in
               let rr = !x -. z in
               let ss = !y -. z in
               p := (((rr *. ss) -. !w) /. a.(m1 + !m)) +. a.(m0 + !m + 1);
               q := a.(m1 + !m + 1) -. z -. rr -. ss;
               r := a.(((!m + 2) * n) + !m + 1);
               let s = abs_float !p +. abs_float !q +. abs_float !r in
               p := !p /. s;
               q := !q /. s;
               r := !r /. s;
               if !m = l then raise Exit;
               let u =
                 abs_float a.(m0 + !m - 1) *. (abs_float !q +. abs_float !r)
               in
               let v =
                 abs_float !p
                 *. (abs_float a.(m0 - n + !m - 1)
                    +. abs_float z
                    +. abs_float a.(m1 + !m + 1))
               in
               if u <= eps *. v then raise Exit;
               decr m
             done
           with Exit -> ());
          let m = !m in
          for i = m + 2 to en do
            a.((i * n) + i - 2) <- 0.0
          done;
          for i = m + 3 to en do
            a.((i * n) + i - 3) <- 0.0
          done;
          (* Double QR step over rows l..en; with [z], over the whole
             rows and columns. *)
          let jmax = if full then n - 1 else en and imin = if full then 0 else l in
          for k = m to en - 1 do
            let k0 = k * n and k1 = (k + 1) * n and k2 = (k + 2) * n in
            let three = k <> en - 1 in
            if k <> m then begin
              p := a.(k0 + k - 1);
              q := a.(k1 + k - 1);
              r := (if three then a.(k2 + k - 1) else 0.0);
              let xx = abs_float !p +. abs_float !q +. abs_float !r in
              if xx <> 0.0 then begin
                p := !p /. xx;
                q := !q /. xx;
                r := !r /. xx
              end;
              x := xx
            end;
            let s =
              sign_with (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p
            in
            if s <> 0.0 then begin
              if k = m then begin
                if l <> m then a.(k0 + k - 1) <- -.a.(k0 + k - 1)
              end
              else a.(k0 + k - 1) <- -.s *. !x;
              p := !p +. s;
              x := !p /. s;
              y := !q /. s;
              let z = !r /. s in
              q := !q /. !p;
              r := !r /. !p;
              let x = !x and y = !y and q = !q and r = !r in
              (* row modification *)
              for j = k to jmax do
                let pp =
                  Array.unsafe_get a (k0 + j)
                  +. (q *. Array.unsafe_get a (k1 + j))
                in
                let pp =
                  if three then begin
                    let pp = pp +. (r *. Array.unsafe_get a (k2 + j)) in
                    Array.unsafe_set a (k2 + j)
                      (Array.unsafe_get a (k2 + j) -. (pp *. z));
                    pp
                  end
                  else pp
                in
                Array.unsafe_set a (k1 + j)
                  (Array.unsafe_get a (k1 + j) -. (pp *. y));
                Array.unsafe_set a (k0 + j)
                  (Array.unsafe_get a (k0 + j) -. (pp *. x))
              done;
              (* column modification, then the same on every row of z to
                 accumulate the transformation *)
              column_step a n k ~lo:imin ~hi:(min en (k + 3)) ~three x y z q r;
              if full then column_step zd n k ~lo:0 ~hi:(n - 1) ~three x y z q r
            end
          done
          (* inner while continues: not finished_block *)
        end
      end
    done
  done;
  (wr, wi)

let hessenberg_eigenvalues h =
  if not (Mat.is_square h) then
    invalid_arg "Eig.hessenberg_eigenvalues: not square";
  let n = Mat.rows h in
  if n = 0 then [||]
  else if n = 1 then [| Cx.re (Mat.get h 0 0) |]
  else
    let wr, wi = hqr (Array.copy (Mat.data h)) n in
    Array.init n (fun i -> Cx.make wr.(i) wi.(i))

(* The standardised Schur factorisation of a real 2×2 block
   [[a b] [c d]] (LAPACK's dlanv2): a rotation [cs -sn; sn cs] that
   makes it upper triangular when its eigenvalues are real and gives it
   equal diagonal entries and off-diagonal entries of opposite sign
   when they are complex.  Returns (a, b, c, d, cs, sn). *)
let lanv2 a b c d =
  if c = 0.0 then (a, b, c, d, 1.0, 0.0)
  else if b = 0.0 then (d, -.c, 0.0, a, 0.0, 1.0)
  else if a -. d = 0.0 && Float.sign_bit b <> Float.sign_bit c then
    (a, b, c, d, 1.0, 0.0)
  else begin
    let temp = a -. d in
    let p = 0.5 *. temp in
    let bcmax = Float.max (abs_float b) (abs_float c) in
    let bcmis =
      Float.min (abs_float b) (abs_float c)
      *. Float.copy_sign 1.0 b *. Float.copy_sign 1.0 c
    in
    let scale = Float.max (abs_float p) bcmax in
    let z = (p /. scale *. p) +. (bcmax /. scale *. bcmis) in
    if z >= 4.0 *. epsilon_float then begin
      (* real eigenvalues *)
      let z = p +. Float.copy_sign (sqrt scale *. sqrt z) p in
      let tau = Float.hypot c z in
      (d +. z, b -. c, 0.0, d -. (bcmax /. z *. bcmis), z /. tau, c /. tau)
    end
    else begin
      (* complex or nearly equal real eigenvalues: equalise the
         diagonal *)
      let sigma = b +. c in
      let tau = Float.hypot sigma temp in
      let cs = sqrt (0.5 *. (1.0 +. (abs_float sigma /. tau))) in
      let sn = -.(p /. (tau *. cs)) *. Float.copy_sign 1.0 sigma in
      let aa = (a *. cs) +. (b *. sn) and bb = (-.a *. sn) +. (b *. cs) in
      let cc = (c *. cs) +. (d *. sn) and dd = (-.c *. sn) +. (d *. cs) in
      let a = (aa *. cs) +. (cc *. sn) and b = (bb *. cs) +. (dd *. sn) in
      let c = (-.aa *. sn) +. (cc *. cs) and d = (-.bb *. sn) +. (dd *. cs) in
      let temp = 0.5 *. (a +. d) in
      if c = 0.0 then (temp, b, c, temp, cs, sn)
      else if b = 0.0 then (temp, -.c, 0.0, temp, -.sn, cs)
      else if Float.sign_bit b = Float.sign_bit c then begin
        (* real eigenvalues after all: make it upper triangular *)
        let sab = sqrt (abs_float b) and sac = sqrt (abs_float c) in
        let p = Float.copy_sign (sab *. sac) c in
        let tau = 1.0 /. sqrt (abs_float (b +. c)) in
        let cs1 = sab *. tau and sn1 = sac *. tau in
        ( temp +. p, b -. c, 0.0, temp -. p,
          (cs *. cs1) -. (sn *. sn1), (cs *. sn1) +. (sn *. cs1) )
      end
      else (temp, b, c, temp, cs, sn)
    end
  end

(* Standardise every 2×2 diagonal block of the quasi-triangular [t]
   (row-major n×n) with {!lanv2}, rotating the rest of its two rows and
   columns and the matching columns of [z]. *)
let standardise t z n =
  let rot x i0 i1 cs sn =
    let a = x.(i0) and b = x.(i1) in
    x.(i0) <- (cs *. a) +. (sn *. b);
    x.(i1) <- (cs *. b) -. (sn *. a)
  in
  let i = ref 0 in
  while !i < n - 1 do
    let k = !i in
    let r0 = k * n and r1 = (k + 1) * n in
    if t.(r1 + k) = 0.0 then incr i
    else begin
      let a, b, c, d, cs, sn =
        lanv2 t.(r0 + k) t.(r0 + k + 1) t.(r1 + k) t.(r1 + k + 1)
      in
      t.(r0 + k) <- a;
      t.(r0 + k + 1) <- b;
      t.(r1 + k) <- c;
      t.(r1 + k + 1) <- d;
      for j = k + 2 to n - 1 do
        rot t (r0 + j) (r1 + j) cs sn
      done;
      for r = 0 to k - 1 do
        rot t ((r * n) + k) ((r * n) + k + 1) cs sn
      done;
      for r = 0 to n - 1 do
        rot z ((r * n) + k) ((r * n) + k + 1) cs sn
      done;
      i := k + 2
    end
  done

let schur m =
  if not (Mat.is_square m) then invalid_arg "Eig.schur: not square";
  Obs.incr c_reductions;
  let n = Mat.rows m in
  let t = Mat.copy m and z = Mat.identity n in
  let td = Mat.data t and zd = Mat.data z in
  reduce ~u:zd td n;
  ignore (hqr ~z:zd td n);
  (* the double steps' bulge residue below the subdiagonal *)
  for i = 2 to n - 1 do
    Array.fill td (i * n) (i - 1) 0.0
  done;
  standardise td zd n;
  (t, z)

let eigenvalues m =
  if not (Mat.is_square m) then invalid_arg "Eig.eigenvalues: not square";
  let h = Mat.copy m in
  reduce (Mat.data h) (Mat.rows m);
  hessenberg_eigenvalues h

let spectral_radius m =
  Array.fold_left (fun acc z -> max acc (Cx.modulus z)) 0.0 (eigenvalues m)

let spectral_abscissa m =
  Array.fold_left
    (fun acc (z : Cx.t) -> max acc z.re)
    neg_infinity (eigenvalues m)

let is_schur_stable ?(margin = 0.0) m = spectral_radius m < 1.0 -. margin
