type t = Complex.t = { re : float; im : float }

let zero = Complex.zero

let one = Complex.one

let i = Complex.i

let re x = { re = x; im = 0.0 }

let make re im = { re; im }

let ( +: ) = Complex.add

let ( -: ) = Complex.sub

let ( *: ) = Complex.mul

let ( /: ) = Complex.div

let neg = Complex.neg

let conj = Complex.conj

let scale s z = { re = s *. z.re; im = s *. z.im }

let modulus = Complex.norm

(* [Complex.norm] on unboxed parts (it is [Float.hypot] in this
   stdlib), so flat kernels rank magnitudes bitwise-identically to the
   boxed path. *)
external modulus_ri : float -> float -> float = "caml_hypot_float" "caml_hypot"
  [@@unboxed] [@@noalloc]

let arg = Complex.arg

let exp = Complex.exp

let cis theta = { re = cos theta; im = sin theta }

let is_finite z =
  match (classify_float z.re, classify_float z.im) with
  | (FP_infinite | FP_nan), _ | _, (FP_infinite | FP_nan) -> false
  | (FP_normal | FP_subnormal | FP_zero), (FP_normal | FP_subnormal | FP_zero)
    ->
      true
