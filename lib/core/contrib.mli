(** Per-source decomposition of the output noise spectrum.

    Because the noise sources are mutually uncorrelated, the output PSD
    is the sum of the PSDs obtained with each source acting alone.  The
    cross-spectral formulation computes each contribution by restricting
    the [B] matrices to one source's columns — the "relative contribution
    of various portions of the circuit" feature of the source papers. *)

module Pwl = Scnoise_circuit.Pwl
module Vec = Scnoise_linalg.Vec

val source_labels : Pwl.t -> string list
(** Distinct noise-source labels appearing in any phase, in first-seen
    order. *)

val restrict : Pwl.t -> keep:(string -> bool) -> Pwl.t
(** A copy of the system whose [B]/[Q] retain only the noise columns
    whose label satisfies [keep]. *)

val per_source_psd :
  ?samples_per_phase:int -> Pwl.t -> output:Vec.t -> f:float ->
  (string * float) list
(** PSD contribution of every source at frequency [f], in label order. *)

val check_additivity :
  ?samples_per_phase:int -> Pwl.t -> output:Vec.t -> f:float -> float
(** Relative gap [|sum of contributions - total| / total] — a
    consistency diagnostic (small up to discretisation error). *)
