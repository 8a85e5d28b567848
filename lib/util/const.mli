(** Physical constants used throughout the noise analyses.

    All values are SI.  Thermal noise intensities follow the convention of
    the source papers: a resistor [r] at temperature [t] carries a
    double-sided current-noise power spectral density of [2 k t / r]
    (A^2/Hz). *)

val boltzmann : float
(** Boltzmann constant, J/K. *)

val room_temperature : float
(** Default analysis temperature, K (300 K, as in the source papers). *)

val kt : ?temperature:float -> unit -> float
(** [kt ()] is [boltzmann *. room_temperature]; the optional argument
    overrides the temperature. *)

val thermal_current_psd : ?temperature:float -> float -> float
(** [thermal_current_psd r] is the double-sided thermal current-noise PSD
    [2kT/r] of a resistor of [r] ohms.  Raises [Invalid_argument] if
    [r <= 0]. *)

val thermal_voltage : ?temperature:float -> unit -> float
(** [thermal_voltage ()] is [kT/q], the thermal voltage (~25.85 mV at
    300 K). *)
