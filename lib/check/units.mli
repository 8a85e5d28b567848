(** ERC014 / ERC015: SI-dimension inference and sweep-bandwidth checks.

    ERC014 runs structural dimension inference over [.param] expression
    trees and element-card values.  Only annotated literals ([2.5pF],
    [10kohm], [1Hz]) introduce constraints — a bare number is
    unconstrained — so decks that never spell units are never flagged.
    Dimensions are tracked as half-integer exponents over (V, A, s, K),
    which keeps [sqrt] exact; [ohm] is V/A, [F] is A·s/V, [Hz] is 1/s.
    Each element-card slot has an expected dimension fixed by its
    syntactic position ({!Scnoise_lang.Elab.t}[.value_slots]); an
    annotated value that disagrees — or an internal sum/comparison of
    incompatible dimensions, or a dimensioned argument to [exp]/[log] —
    is an error with a caret at the offending expression.

    ERC015 warns when a [.psd] sweep's bandwidth captures less than
    {!min_capture} ([0.1]) of the static kT/C noise total: sampled kT/C
    power is spread nearly uniformly over [0, f_clock/2], so a sweep to
    [fmax] sees only about [min(1, 2 fmax / f_clock)] of it. *)

val min_capture : float

val check_dims : Scnoise_lang.Elab.t -> Finding.t list
(** ERC014 over [param_exprs] and [value_slots]. *)

val check_bandwidth :
  Scnoise_circuit.Sparsity.t -> Scnoise_lang.Elab.t -> Finding.t list
(** ERC015 over the deck's [.psd] directives; silent when the circuit
    has no capacitors or no noise sources. *)
