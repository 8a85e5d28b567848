(** Frequency-domain LPTV noise analysis — the classical alternative the
    mixed-frequency-time method is motivated against.

    For each white-noise source [j] (a column of the phase-wise [B]
    matrices) the output spectrum is assembled from harmonic transfer
    functions by the aliasing sum

    [S(f) = sum_j sum_{k=-K..K} |H_{j,k}(f - k f_clk)|^2]

    where [H_{j,k}] is the k-th output harmonic for a complex-exponential
    excitation entering through source [j]'s intensity column.  Each
    [(j, k)] term costs one periodic boundary-value solve, so a single
    output frequency costs [n_sources * (2K+1)] solves — and [K] must
    cover the full noise bandwidth of the circuit in units of the clock
    rate.  For strongly under-sampled (stiff) switched-capacitor
    circuits that ratio runs into the hundreds, which is precisely why
    the time-domain method of this library wins; the truncation study is
    part of the benchmark suite. *)

module Pwl = Scnoise_circuit.Pwl
module Vec = Scnoise_linalg.Vec

type engine

val prepare : ?samples_per_phase:int -> Pwl.t -> output:Vec.t -> engine

val psd : engine -> f:float -> k_max:int -> float
(** Double-sided output PSD at [f] with the aliasing sum truncated at
    [|k| <= k_max]. *)

val psd_per_source : engine -> f:float -> k_max:int -> (string * float) list
(** Per-source contributions of the same sum. *)

val source_labels : engine -> string list
