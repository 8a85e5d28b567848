type t = float array

let create n = Array.make n 0.0

let init = Array.init

let copy = Array.copy

let check_len a b name =
  if Array.length a <> Array.length b then
    invalid_arg ("Vec." ^ name ^ ": length mismatch")

let add a b =
  check_len a b "add";
  Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let sub a b =
  check_len a b "sub";
  Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

let scale s a = Array.map (fun x -> s *. x) a

let axpy a x y =
  check_len x y "axpy";
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot a b =
  check_len a b "dot";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun m x -> max m (abs_float x)) 0.0 a

let max_abs_diff a b =
  check_len a b "max_abs_diff";
  let m = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    m := max !m (abs_float (a.(i) -. b.(i)))
  done;
  !m
