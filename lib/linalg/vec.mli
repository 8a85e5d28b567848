(** Dense real vectors (thin wrappers over [float array]).

    All binary operations require equal lengths and raise
    [Invalid_argument] otherwise. *)

type t = float array

val create : int -> t
(** Zero vector of the given length. *)

val init : int -> (int -> float) -> t

val copy : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val max_abs_diff : t -> t -> float
