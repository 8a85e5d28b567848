(** Decibel conversions.

    PSD values in this library are double-sided densities in V^2/Hz (or
    A^2/Hz); figures in the source papers plot them as [10 log10 S]. *)

val of_power : float -> float
(** [of_power p] is [10 log10 p].  [p <= 0] maps to [neg_infinity]. *)

val to_power : float -> float
(** [to_power d] is [10^(d/10)]. *)

val of_amplitude : float -> float
(** [of_amplitude a] is [20 log10 (abs a)]. *)

val delta : float -> float -> float
(** [delta p1 p2] is the difference [of_power p1 -. of_power p2] in dB,
    with both arguments treated as powers. *)
