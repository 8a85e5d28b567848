type t = { phi : Mat.t; qd : Mat.t }

(* The exponential of M = [[-A, Q], [0, Aᵀ]] tau is [[F11, F12], [0, F22]]
   with F22 = e^{Aᵀ tau} and Phi F12 = ∫ e^{As} Q e^{Aᵀs} ds.  It runs
   on M's three n×n blocks ([Btri]) and forms only F12 and F22, with
   the float operations of [Expm.expm] on the assembled 2n matrix
   ([Oracle.vanloan] keeps that composition), entry by entry:

   - the scaling exponent from M's 2n row sums, in their order (the
     zero block adds [+0.0] terms, which change no sum);
   - U and V by [Expm]'s per-entry loops on each block, the identity's
     [1.0] on the diagonal blocks and its [0.0] on X12, over the block
     products of [Btri]; their zero blocks are +0 and stay +0;
   - the Padé lhs V − U assembled at 2n (its zero block +0.0) and
     factored by [Lu], whose pivots and zero skips are the 2n ones;
   - the solve on the right block column [R12; R22] only, each column
     of a multi-column solve being the single-column solve bit for bit;
     with s squarings, the left column [R11; 0] too, the first s − 1
     squarings on all three blocks and the last on the right column.

   The left column's solution carries a zero block of [±0], which no
   squaring reads: every term it enters is [±0] against a finite
   factor.  The work buffers are owned per domain, so the exponentials
   of a grid share one set (the 2n composition allocated 44 n² floats
   per exponential). *)
type work = {
  wn : int;
  a1 : Btri.t; (* A/2^s, and V once A is no longer read *)
  a2 : Btri.t;
  a4 : Btri.t;
  a6 : Btri.t;
  t : Btri.t;
  p : Btri.t;
  lhs : Mat.t; (* 2n × 2n: V − U, factored in place *)
  rhs : Mat.t; (* 2n × n: one block column of V + U *)
  x : Mat.t; (* 2n × n: its solution *)
}

let make_work n =
  let b () = Btri.create n in
  {
    wn = n; a1 = b (); a2 = b (); a4 = b (); a6 = b (); t = b (); p = b ();
    lhs = Mat.create (2 * n) (2 * n);
    rhs = Mat.create (2 * n) n;
    x = Mat.create (2 * n) n;
  }

(* Dropped by [release_buffers] once a grid's exponentials are taken:
   held on, they would be live data through the rest of a request, and
   the major heap is sized in proportion to live data. *)
let work_key = Domain.DLS.new_key (fun () -> ref None)

let work n =
  let cell = Domain.DLS.get work_key in
  match !cell with
  | Some w when w.wn = n -> w
  | _ ->
      let w = make_work n in
      cell := Some w;
      w

let release_buffers () = Domain.DLS.get work_key := None

(* The per-entry Padé loops of [Expm] over each block: [diag] on X11
   and X22, whose diagonals are the identity's. *)
let blocks f =
  f Btri.x11 true;
  f Btri.x12 false;
  f Btri.x22 true

(* Fills the Padé system's blocks: V − U into [w.lhs] (all of it, the
   zero block +0.0) and V + U into [w.a1]; returns s. *)
let pade w ~a ~q ~tau =
  let n = w.wn in
  let n2 = 2 * n in
  let ad = Mat.data a and qd = Mat.data q in
  (* M's 2n row sums, as [Mat.norm_inf] forms them *)
  let norm = ref 0.0 in
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. abs_float (-.tau *. ad.((i * n) + j))
    done;
    for j = 0 to n - 1 do
      acc := !acc +. abs_float (tau *. qd.((i * n) + j))
    done;
    norm := max !norm !acc
  done;
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. abs_float (tau *. ad.((j * n) + i))
    done;
    norm := max !norm !acc
  done;
  let s = Expm.squarings !norm in
  let sc = 1.0 /. (2.0 ** float_of_int s) in
  let x1 = Btri.data w.a1 in
  let o12 = Btri.offset w.a1 Btri.x12 and o22 = Btri.offset w.a1 Btri.x22 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = (i * n) + j in
      x1.(k) <- sc *. (-.tau *. ad.(k));
      x1.(o12 + k) <- sc *. (tau *. qd.(k));
      x1.(o22 + k) <- sc *. (tau *. ad.((j * n) + i))
    done
  done;
  Btri.classify w.a1;
  Btri.mul w.a1 w.a1 w.a2;
  Btri.classify w.a2;
  Btri.mul w.a2 w.a2 w.a4;
  Btri.classify w.a4;
  Btri.mul w.a2 w.a4 w.a6;
  Btri.classify w.a6;
  let x2 = Btri.data w.a2 and x4 = Btri.data w.a4 and x6 = Btri.data w.a6 in
  let inner ~odd c =
    blocks (fun b _ ->
        Expm.poly_inner ~odd (Btri.data c) ~x6 ~x4 ~x2
          ~off:(Btri.offset c b) ~dim:n);
    Btri.classify c
  and tail ~odd c =
    blocks (fun b diag ->
        Expm.poly_tail ~odd (Btri.data c) ~x6 ~x4 ~x2
          ~off:(Btri.offset c b) ~dim:n ~diag)
  in
  (* U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I),
     into [t] *)
  inner ~odd:true w.t;
  Btri.mul w.a6 w.t w.p;
  tail ~odd:true w.p;
  Btri.classify w.p;
  Btri.mul w.a1 w.p w.t;
  (* V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I,
     into [a1] *)
  inner ~odd:false w.p;
  Btri.mul w.a6 w.p w.a1;
  tail ~odd:false w.a1;
  (* lhs = V − U assembled at 2n, rhs = V + U in [a1]'s blocks *)
  let ld = Mat.data w.lhs and ud = Btri.data w.t in
  blocks (fun b _ ->
      let o = Btri.offset w.a1 b in
      let r0 = if b = Btri.x22 then n else 0
      and c0 = if b = Btri.x11 then 0 else n in
      for i = 0 to n - 1 do
        let l = ((r0 + i) * n2) + c0 in
        for j = 0 to n - 1 do
          let k = o + (i * n) + j in
          let v = x1.(k) and u = ud.(k) in
          ld.(l + j) <- v -. u;
          x1.(k) <- v +. u
        done
      done);
  for i = n to n2 - 1 do
    Array.fill ld (i * n2) n 0.0
  done;
  s

(* Solves for one block column of the Padé system: [top] over the
   zero block ([bottom = None]) or over block [bottom] of [a1]. *)
let solve_column w lu ~top ~bottom =
  let n = w.wn in
  let nn = n * n and rd = Mat.data w.rhs and x1 = Btri.data w.a1 in
  Array.blit x1 (Btri.offset w.a1 top) rd 0 nn;
  (match bottom with
  | Some b -> Array.blit x1 (Btri.offset w.a1 b) rd nn nn
  | None -> Array.fill rd nn nn 0.0);
  Lu.solve_mat_into lu w.rhs ~out:w.x

(* Only safe when [norm(A) tau] is moderate: the X11 blocks of the Padé
   system approximate [e^{-A tau}], which overflows for strongly stable
   stiff [A] over a long interval. *)
let discretize_augmented ~a ~q ~tau =
  let n = Mat.rows a in
  if tau = 0.0 then { phi = Mat.identity n; qd = Mat.create n n }
  else begin
    Sanitize.check_mat "Vanloan.discretize" a;
    Sanitize.check_mat "Vanloan.discretize" q;
    Expm.count_call ();
    if n = 0 then { phi = Mat.create 0 0; qd = Mat.create 0 0 }
    else begin
      let w = work n in
      let nn = n * n in
      let s = pade w ~a ~q ~tau in
      let lu = Lu.factor_in_place w.lhs in
      solve_column w lu ~top:Btri.x12 ~bottom:(Some Btri.x22);
      let xd = Mat.data w.x in
      (* F12 and F22: the solution's right block column, or its
         square's *)
      let f, off12, off22 =
        if s = 0 then (xd, 0, nn)
        else begin
          let r = ref w.a2 and spare = ref w.a4 in
          let rd = Btri.data !r in
          Array.blit xd 0 rd (Btri.offset !r Btri.x12) (2 * nn);
          solve_column w lu ~top:Btri.x11 ~bottom:None;
          Array.blit xd 0 rd (Btri.offset !r Btri.x11) nn;
          for k = 1 to s do
            Btri.classify !r;
            Btri.mul ~left:(k < s) !r !r !spare;
            let sq = !spare in
            spare := !r;
            r := sq
          done;
          let rd = Btri.data !r in
          (rd, Btri.offset !r Btri.x12, Btri.offset !r Btri.x22)
        end
      in
      let f12 = Mat.create n n and phi = Mat.create n n in
      let phid = Mat.data phi in
      Array.blit f off12 (Mat.data f12) 0 nn;
      (* Phi = F22ᵀ *)
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          phid.((i * n) + j) <- f.(off22 + (j * n) + i)
        done
      done;
      let qd = Mat.symmetrize (Mat.mul phi f12) in
      Sanitize.check_mat "Vanloan.discretize (phi)" phi;
      Sanitize.check_mat "Vanloan.discretize (qd)" qd;
      { phi; qd }
    end
  end

(* [out = sym (phi (k phiᵀ) + qd)], the products into the two work
   matrices and the add fused with the symmetrise: entry (i, j) is
   [0.5 *. ((p_ij +. q_ij) +. (p_ji +. q_ji))], the operations
   [Mat.add] then [Mat.symmetrize] perform, and that expression is the
   same float for (j, i), so the loop fills the upper triangle and
   mirrors it. *)
let propagate_into d ~phi_t ~work ~work' k ~out =
  Mat.mul_into k phi_t work;
  Mat.mul_into d.phi work work';
  let n = Mat.rows work' in
  if Mat.rows out <> n || Mat.cols out <> n || Mat.cols work' <> n
     || Mat.rows d.qd <> n || Mat.cols d.qd <> n
  then invalid_arg "Vanloan.propagate_into: dimension mismatch";
  let p = Mat.data work' and q = Mat.data d.qd and o = Mat.data out in
  if n > 0 && (o == p || o == q) then
    invalid_arg "Vanloan.propagate_into: aliased output";
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let ij = (i * n) + j and ji = (j * n) + i in
      let x =
        0.5
        *. ((Array.unsafe_get p ij +. Array.unsafe_get q ij)
           +. (Array.unsafe_get p ji +. Array.unsafe_get q ji))
      in
      Array.unsafe_set o ij x;
      Array.unsafe_set o ji x
    done
  done

(* Buffers for stepping maps of one size: the transpose of the stepping
   operator and [propagate_into]'s two work matrices. *)
type buffers = { phi_t : Mat.t; work : Mat.t; work' : Mat.t }

let buffers n =
  { phi_t = Mat.create n n; work = Mat.create n n; work' = Mat.create n n }

let step bufs d k ~out =
  let n = Mat.rows d.phi in
  if Mat.rows bufs.phi_t <> n || Mat.cols d.phi <> n then
    invalid_arg "Vanloan.step: dimension mismatch";
  Mat.transpose_into d.phi bufs.phi_t;
  propagate_into d ~phi_t:bufs.phi_t ~work:bufs.work ~work':bufs.work' k ~out

let propagate d k =
  let n = Mat.rows d.phi in
  let out = Mat.create n n in
  step (buffers n) d k ~out;
  out

(* [b] after [a] into [out], which shares no storage with either. *)
let compose_into bufs b a ~out =
  Mat.mul_into b.phi a.phi out.phi;
  step bufs b a.qd ~out:out.qd

(* Binary powering: O(log len) compositions, into three owned maps
   that take turns as the accumulated map, the running power and the
   output, so no composition allocates. *)
let repeat d len =
  let n = Mat.rows d.phi in
  if len <= 0 then { phi = Mat.identity n; qd = Mat.create n n }
  else if len = 1 then d
  else begin
    let fresh () = { phi = Mat.create n n; qd = Mat.create n n } in
    let bufs = buffers n in
    let base = ref { phi = Mat.copy d.phi; qd = Mat.copy d.qd } in
    let acc = ref (fresh ()) and spare = ref (fresh ()) in
    let started = ref false and len = ref len in
    let swap r =
      let x = !r in
      r := !spare;
      spare := x
    in
    while !len > 0 do
      if !len land 1 = 1 then begin
        if !started then begin
          compose_into bufs !base !acc ~out:!spare;
          swap acc
        end
        else begin
          Array.blit (Mat.data !base.phi) 0 (Mat.data !acc.phi) 0 (n * n);
          Array.blit (Mat.data !base.qd) 0 (Mat.data !acc.qd) 0 (n * n);
          started := true
        end
      end;
      len := !len asr 1;
      if !len > 0 then begin
        compose_into bufs !base !base ~out:!spare;
        swap base
      end
    done;
    !acc
  end

(* Stiffness threshold on [norm(A) tau] below which the augmented form is
   numerically safe. *)
let stiff_threshold = 20.0

let discretize ~a ~q ~tau =
  if not (Mat.is_square a && Mat.is_square q) then
    invalid_arg "Vanloan.discretize: not square";
  let n = Mat.rows a in
  if Mat.rows q <> n then invalid_arg "Vanloan.discretize: size mismatch";
  if tau < 0.0 then invalid_arg "Vanloan.discretize: tau < 0";
  let stiffness = Mat.norm_inf a *. tau in
  if stiffness <= stiff_threshold then discretize_augmented ~a ~q ~tau
  else begin
    (* Stiff: [chunks] equal sub-steps, each with [norm(A) h] at most
       [stiff_threshold], so every augmented exponential stays in its
       safe range; they are composed by binary powering.  No Lyapunov
       solve is needed, so a singular or lossless [a] takes this path
       too. *)
    let chunks = int_of_float (ceil (stiffness /. stiff_threshold)) in
    repeat (discretize_augmented ~a ~q ~tau:(tau /. float_of_int chunks)) chunks
  end

let discretize_b ~a ~b ~tau =
  let q = Mat.mul b (Mat.transpose b) in
  discretize ~a ~q ~tau
