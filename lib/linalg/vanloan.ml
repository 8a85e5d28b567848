type t = { phi : Mat.t; qd : Mat.t }

(* M = [[-A, Q], [0, Aᵀ]] * tau ;  expm M = [[F11, F12], [0, F22]]
   with F22 = e^{Aᵀ tau} and Phi F12 = ∫ e^{As} Q e^{Aᵀs} ds. *)
let augmented ~a ~q ~tau =
  let n = Mat.rows a in
  let n2 = 2 * n in
  let m = Mat.create n2 n2 in
  let md = Mat.data m and ad = Mat.data a and qs = Mat.data q in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      md.((i * n2) + j) <- -.tau *. ad.((i * n) + j);
      md.((i * n2) + n + j) <- tau *. qs.((i * n) + j);
      md.(((n + i) * n2) + n + j) <- tau *. ad.((j * n) + i)
    done
  done;
  m

(* Augmented-exponential construction.  Only safe when [norm(A) tau] is
   moderate: the top-left block holds [e^{-A tau}], which overflows for
   strongly stable stiff [A] over a long interval. *)
let discretize_augmented ~a ~q ~tau =
  let n = Mat.rows a in
  if tau = 0.0 then { phi = Mat.identity n; qd = Mat.create n n }
  else begin
    let n2 = 2 * n in
    let m = augmented ~a ~q ~tau in
    let f = Expm.expm m in
    let fd = Mat.data f in
    let f12 = Mat.create n n and phi = Mat.create n n in
    let f12d = Mat.data f12 and phid = Mat.data phi in
    for i = 0 to n - 1 do
      Array.blit fd ((i * n2) + n) f12d (i * n) n;
      (* Phi = F22ᵀ *)
      for j = 0 to n - 1 do
        phid.((i * n) + j) <- fd.(((n + j) * n2) + n + i)
      done
    done;
    let qd = Mat.symmetrize (Mat.mul phi f12) in
    { phi; qd }
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
