(** Ideal ("full and fast" charge transfer) discrete-time noise analysis
    of switched-capacitor circuits — the classical z-domain baseline of
    the Goette-Gobet / Toth lineage the source papers compare against.

    Under instantaneous charge transfer a switched-capacitor circuit
    becomes a linear discrete-time system clocked at the switching rate:

    [x(n+1) = Ad x(n) + Bd w(n)],   [w ~ N(0, I)]

    whose state collects the per-cycle capacitor voltages and whose noise
    inputs are the sampled kT/C charges.  This module computes its
    stationary variance (discrete Lyapunov equation), its sampled-data
    spectrum, and the continuous-time spectrum of the (partially) held
    output waveform.  The exact engines of this library quantify where
    the approximation breaks (finite switch resistance, finite op-amp
    bandwidth) — see the full-and-fast validity bench. *)

module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec

type t = {
  ad : Mat.t;  (** per-cycle state map (n x n) *)
  bd : Mat.t;  (** per-cycle noise injection (n x m), unit-variance inputs *)
  c : Vec.t;  (** output row *)
  period : float;  (** clock period, s *)
}

val make : ad:Mat.t -> bd:Mat.t -> c:Vec.t -> period:float -> t
(** Validates dimensions and stability requirements are NOT checked here
    (marginal systems are permitted for transfer-function work); the
    variance functions raise {!Scnoise_linalg.Lyapunov.Not_stable} when
    the system has no stationary state, the spectra [Lu.Singular] at a
    pole on the unit circle. *)

val variance : t -> float
(** Stationary output-sample variance [cᵀ K c]. *)

val spectrum_sampled : t -> f:float -> float
(** Power spectral density of the output sample *sequence*, expressed as
    a double-sided continuous density (V^2/Hz):
    [T · cᵀ (e^{jθ}I - Ad)^{-1} Bd Bdᵀ (e^{jθ}I - Ad)^{-H} c] with
    [θ = 2 pi f T].  Periodic in [f] with period [1/T]; integrating over
    one full alias zone recovers {!variance}. *)

val spectrum_held : ?hold_fraction:float -> t -> f:float -> float
(** Continuous-time PSD of the output held for [hold_fraction] of each
    period (default 1, zero-order hold):
    [ (W^2/T) sinc^2(pi f W) · S_x(e^{j 2 pi f T}) / T ] with
    [W = hold_fraction T] — the familiar sinc-shaped sampled-data
    spectrum. *)
