(* Flat interleaved storage: entry i is (d.(2i), d.(2i+1)).  All the
   arithmetic below reproduces the [Cx] (= Stdlib.Complex) formulas
   term by term so results are bitwise identical to the former boxed
   representation. *)

type t = float array

let dim v = Array.length v / 2

let create n = Array.make (2 * n) 0.0

let init n f =
  let d = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    let z = (f i : Cx.t) in
    d.(2 * i) <- z.Cx.re;
    d.((2 * i) + 1) <- z.Cx.im
  done;
  d

let of_real v =
  let n = Array.length v in
  let d = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    d.(2 * i) <- v.(i)
  done;
  d

let of_array a =
  let n = Array.length a in
  let d = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    d.(2 * i) <- a.(i).Cx.re;
    d.((2 * i) + 1) <- a.(i).Cx.im
  done;
  d

let to_array v = Array.init (dim v) (fun i -> Cx.make v.(2 * i) v.((2 * i) + 1))

let real v = Array.init (dim v) (fun i -> v.(2 * i))

let imag v = Array.init (dim v) (fun i -> v.((2 * i) + 1))

let copy = Array.copy

let check_index v i name =
  if i < 0 || i >= dim v then invalid_arg ("Cvec." ^ name ^ ": index out of bounds")

let get v i =
  check_index v i "get";
  Cx.make v.(2 * i) v.((2 * i) + 1)

let set v i (z : Cx.t) =
  check_index v i "set";
  v.(2 * i) <- z.Cx.re;
  v.((2 * i) + 1) <- z.Cx.im

let check_len a b name =
  if Array.length a <> Array.length b then
    invalid_arg ("Cvec." ^ name ^ ": length mismatch")

let scale_re s a = Array.map (fun x -> s *. x) a

let norm_inf a =
  let m = ref 0.0 in
  for i = 0 to dim a - 1 do
    m := max !m (Cx.modulus_ri a.(2 * i) a.((2 * i) + 1))
  done;
  !m

let max_abs_diff a b =
  check_len a b "max_abs_diff";
  let m = ref 0.0 in
  for i = 0 to dim a - 1 do
    m :=
      max !m
        (Cx.modulus_ri (a.(2 * i) -. b.(2 * i)) (a.((2 * i) + 1) -. b.((2 * i) + 1)))
  done;
  !m

let data v = v

let of_data d =
  if Array.length d land 1 <> 0 then invalid_arg "Cvec.of_data: odd length";
  d

(* --- panels: blocked multi-RHS storage ---

   A panel packs [width] complex vectors column-major over the block:
   entry (state i, column b) lives at [2 * (i * width + b)] (re) and
   the following slot (im).  All [width] columns of one state are
   contiguous, so a kernel that walks states in its outer loop touches
   each factor/matrix element once per [width] right-hand sides and
   streams over [2 * width] adjacent floats in its inner loop. *)

type panel = float array

let panel_create ~dim ~width =
  if dim < 0 then invalid_arg "Cvec.panel_create: negative dimension";
  if width < 1 then invalid_arg "Cvec.panel_create: width < 1";
  Array.make (2 * dim * width) 0.0

let panel_check v p ~width ~col name =
  if width < 1 then invalid_arg ("Cvec." ^ name ^ ": width < 1");
  if col < 0 || col >= width then
    invalid_arg ("Cvec." ^ name ^ ": column out of bounds");
  if Array.length p <> Array.length v * width then
    invalid_arg ("Cvec." ^ name ^ ": panel size mismatch")

(* The annotations matter: left polymorphic, the element copies would
   compile to generic array accesses that box every float they read. *)
let panel_set_col (v : t) (p : panel) ~width ~col =
  panel_check v p ~width ~col "panel_set_col";
  for i = 0 to dim v - 1 do
    let k = 2 * ((i * width) + col) in
    p.(k) <- v.(2 * i);
    p.(k + 1) <- v.((2 * i) + 1)
  done

let panel_get_col (p : panel) ~width ~col ~(into : t) =
  panel_check into p ~width ~col "panel_get_col";
  for i = 0 to dim into - 1 do
    let k = 2 * ((i * width) + col) in
    into.(2 * i) <- p.(k);
    into.((2 * i) + 1) <- p.(k + 1)
  done

let panel_fill_zero p = Array.fill p 0 (Array.length p) 0.0
