(** Ideal discrete-time models of two bundled circuits, built from their
    parameter records: the z-domain baselines the tests and the bench
    compare the exact engine against. *)

val switched_rc : Scnoise_circuits.Switched_rc.params -> Dt_system.t
(** Exact discrete-time model of the switched RC's boundary-sampled
    output: [x(n+1) = a x(n) + sqrt(kT/C (1-a^2)) w(n)] with
    [a = exp(-duty T / RC)].  Its held spectrum with
    [hold_fraction = 1 - duty] is the classical sampled-data
    approximation of the full waveform's PSD. *)

val sc_integrator : Scnoise_circuits.Sc_integrator.params -> Dt_system.t
(** Ideal charge-transfer model of the SC integrator: pole
    {!Scnoise_circuits.Sc_integrator.dt_pole}, per-cycle injected
    output-referred noise [2kT/Cs (Cs/Ci)^2 + 2kT/Cd (Cd/Ci)^2] (each
    toggled capacitor samples kT/C twice per cycle); the op-amp is taken
    as noiseless, matching {!Scnoise_circuits.Sc_integrator.default}. *)
