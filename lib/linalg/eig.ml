exception No_convergence of int

(* Householder similarity reduction to upper Hessenberg form, in place
   on the row-major [n×n] buffer [a].  With [u] (the identity on entry)
   each reflector P_k = I - beta v vᵀ is also accumulated as
   u <- u P_k, so that on exit A = u H uᵀ; the reduction's own
   arithmetic does not depend on it.

   Every entry sees the float operations of the textbook column loop
   ([Oracle.hessenberg]), in its order: the left update's sums
   s_j = sum_i v_i a_ij run over ascending i for every column at once,
   a row of [a] at a time, into [s]; the right update and [u]'s are
   row sums already. *)
let reduce ?u a n =
  let v = Array.make n 0.0 and s = Array.make n 0.0 in
  (* x <- x (I - beta v vᵀ) on the rows of the row-major [x] *)
  let right x beta k =
    for i = 0 to n - 1 do
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
  in
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
        (* A <- (I - beta v vᵀ) A *)
        Array.fill s 0 n 0.0;
        for i = k + 1 to n - 1 do
          let vi = v.(i) and r = i * n in
          for j = 0 to n - 1 do
            Array.unsafe_set s j
              (Array.unsafe_get s j +. (vi *. Array.unsafe_get a (r + j)))
          done
        done;
        for j = 0 to n - 1 do
          s.(j) <- beta *. s.(j)
        done;
        for i = k + 1 to n - 1 do
          let vi = v.(i) and r = i * n in
          for j = 0 to n - 1 do
            Array.unsafe_set a (r + j)
              (Array.unsafe_get a (r + j) -. (Array.unsafe_get s j *. vi))
          done
        done;
        (* A <- A (I - beta v vᵀ) *)
        right a beta k;
        Option.iter (fun u -> right u beta k) u
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

(* Francis implicit double-shift QR on an upper Hessenberg matrix;
   classic EISPACK "hqr" (eigenvalues only), 0-based. *)
let hqr a n =
  let wr = Array.make n 0.0 and wi = Array.make n 0.0 in
  let anorm = ref 0.0 in
  for i = 0 to n - 1 do
    for j = max (i - 1) 0 to n - 1 do
      anorm := !anorm +. abs_float a.(i).(j)
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
           let s = abs_float a.(ll - 1).(ll - 1) +. abs_float a.(ll).(ll) in
           let s = if s = 0.0 then anorm else s in
           if abs_float a.(ll).(ll - 1) <= eps *. s then begin
             a.(ll).(ll - 1) <- 0.0;
             l := ll;
             raise Exit
           end
         done
       with Exit -> ());
      let l = !l in
      let x = a.(!nn).(!nn) in
      if l = !nn then begin
        (* one real root *)
        wr.(!nn) <- x +. !t;
        wi.(!nn) <- 0.0;
        decr nn;
        finished_block := true
      end
      else begin
        let y = a.(!nn - 1).(!nn - 1) in
        let w = a.(!nn).(!nn - 1) *. a.(!nn - 1).(!nn) in
        if l = !nn - 1 then begin
          (* two roots from the trailing 2x2 block *)
          let p = 0.5 *. (y -. x) in
          let q = (p *. p) +. w in
          let z = sqrt (abs_float q) in
          let x = x +. !t in
          if q >= 0.0 then begin
            let z = p +. sign_with z p in
            wr.(!nn - 1) <- x +. z;
            wr.(!nn) <- (if z <> 0.0 then x -. (w /. z) else x +. z);
            wi.(!nn - 1) <- 0.0;
            wi.(!nn) <- 0.0
          end
          else begin
            wr.(!nn - 1) <- x +. p;
            wr.(!nn) <- x +. p;
            wi.(!nn - 1) <- z;
            wi.(!nn) <- -.z
          end;
          nn := !nn - 2;
          finished_block := true
        end
        else begin
          if !its = 30 then raise (No_convergence !nn);
          let x = ref x and y = ref y and w = ref w in
          if !its = 10 || !its = 20 then begin
            (* exceptional shift *)
            t := !t +. !x;
            for i = 0 to !nn do
              a.(i).(i) <- a.(i).(i) -. !x
            done;
            let s =
              abs_float a.(!nn).(!nn - 1) +. abs_float a.(!nn - 1).(!nn - 2)
            in
            x := 0.75 *. s;
            y := !x;
            w := -0.4375 *. s *. s
          end;
          incr its;
          (* Look for two consecutive small subdiagonal elements. *)
          let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
          let m = ref (!nn - 2) in
          (try
             while !m >= l do
               let z = a.(!m).(!m) in
               let rr = !x -. z in
               let ss = !y -. z in
               p := (((rr *. ss) -. !w) /. a.(!m + 1).(!m)) +. a.(!m).(!m + 1);
               q := a.(!m + 1).(!m + 1) -. z -. rr -. ss;
               r := a.(!m + 2).(!m + 1);
               let s = abs_float !p +. abs_float !q +. abs_float !r in
               p := !p /. s;
               q := !q /. s;
               r := !r /. s;
               if !m = l then raise Exit;
               let u =
                 abs_float a.(!m).(!m - 1)
                 *. (abs_float !q +. abs_float !r)
               in
               let v =
                 abs_float !p
                 *. (abs_float a.(!m - 1).(!m - 1)
                    +. abs_float z
                    +. abs_float a.(!m + 1).(!m + 1))
               in
               if u <= eps *. v then raise Exit;
               decr m
             done
           with Exit -> ());
          let m = !m in
          for i = m + 2 to !nn do
            a.(i).(i - 2) <- 0.0
          done;
          for i = m + 3 to !nn do
            a.(i).(i - 3) <- 0.0
          done;
          (* Double QR step over rows l..nn. *)
          for k = m to !nn - 1 do
            if k <> m then begin
              p := a.(k).(k - 1);
              q := a.(k + 1).(k - 1);
              r := (if k <> !nn - 1 then a.(k + 2).(k - 1) else 0.0);
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
                if l <> m then a.(k).(k - 1) <- -.a.(k).(k - 1)
              end
              else a.(k).(k - 1) <- -.s *. !x;
              p := !p +. s;
              x := !p /. s;
              y := !q /. s;
              let z = !r /. s in
              q := !q /. !p;
              r := !r /. !p;
              (* row modification *)
              for j = k to !nn do
                let pp = a.(k).(j) +. (!q *. a.(k + 1).(j)) in
                let pp =
                  if k <> !nn - 1 then begin
                    let pp = pp +. (!r *. a.(k + 2).(j)) in
                    a.(k + 2).(j) <- a.(k + 2).(j) -. (pp *. z);
                    pp
                  end
                  else pp
                in
                a.(k + 1).(j) <- a.(k + 1).(j) -. (pp *. !y);
                a.(k).(j) <- a.(k).(j) -. (pp *. !x)
              done;
              (* column modification *)
              let mmin = min !nn (k + 3) in
              for i = l to mmin do
                let pp = (!x *. a.(i).(k)) +. (!y *. a.(i).(k + 1)) in
                let pp =
                  if k <> !nn - 1 then begin
                    let pp = pp +. (z *. a.(i).(k + 2)) in
                    a.(i).(k + 2) <- a.(i).(k + 2) -. (pp *. !r);
                    pp
                  end
                  else pp
                in
                a.(i).(k + 1) <- a.(i).(k + 1) -. (pp *. !q);
                a.(i).(k) <- a.(i).(k) -. pp
              done
            end
          done
          (* inner while continues: not finished_block *)
        end
      end
    done
  done;
  Array.init n (fun i -> Cx.make wr.(i) wi.(i))

let hessenberg_eigenvalues h =
  if not (Mat.is_square h) then
    invalid_arg "Eig.hessenberg_eigenvalues: not square";
  let n = Mat.rows h in
  if n = 0 then [||]
  else if n = 1 then [| Cx.re (Mat.get h 0 0) |]
  else hqr (Mat.to_arrays h) n

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
