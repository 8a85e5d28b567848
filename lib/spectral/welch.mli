(** Welch power-spectral-density estimation over uniformly sampled
    records. *)

type window = Rect | Hann

val periodogram :
  ?window:window -> dt:float -> float array -> float array * float array
(** [(freqs, psd)] of a single segment whose length must be a power of
    two; [psd] is the double-sided density (V^2/Hz), normalised so a
    white signal of variance [v] gives [v * dt] in every bin.  Only the
    non-negative-frequency half (n/2 + 1 bins) is returned. *)

val estimate :
  ?window:window -> ?overlap:float -> dt:float -> segment:int ->
  float array -> float array * float array
(** Welch average over segments of power-of-two length [segment] with
    fractional [overlap] (default 0.5) of a long record; raises
    [Invalid_argument] if the record is shorter than one segment. *)
