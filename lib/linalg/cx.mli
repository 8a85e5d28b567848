(** Complex scalar helpers on top of [Stdlib.Complex]. *)

type t = Complex.t = { re : float; im : float }

val zero : t

val one : t

val i : t

val re : float -> t
(** Real number as a complex. *)

val make : float -> float -> t

val ( +: ) : t -> t -> t

val ( -: ) : t -> t -> t

val ( *: ) : t -> t -> t

val ( /: ) : t -> t -> t

val neg : t -> t

val conj : t -> t

val scale : float -> t -> t

val modulus : t -> float

external modulus_ri : float -> float -> float = "caml_hypot_float" "caml_hypot"
  [@@unboxed] [@@noalloc]
(** [modulus_ri re im] is [modulus {re; im}] without boxing the
    argument or the result (same overflow-safe algorithm,
    bit-for-bit: [Complex.norm] is [Float.hypot] in this stdlib). *)

val arg : t -> float

val exp : t -> t

val cis : float -> t
(** [cis theta] is [exp (i theta)]. *)

val is_finite : t -> bool
