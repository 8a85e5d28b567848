(** Debug-gated numeric sanitizer for the linear-algebra and ODE hot
    paths.

    When enabled (environment variable [SCNOISE_SANITIZE=1], or
    {!set_enabled} from code), the checked operations ({!Lu.factor},
    {!Lu.solve}, {!Expm.expm} and the [Ctrapezoid] Schur step)
    verify that their inputs and outputs are finite and raise
    {!Nonfinite} — naming the offending operation and entry — the
    moment a NaN or infinity enters the data flow, instead
    of letting it propagate silently into a garbage PSD.

    Disabled (the default), every check is a single branch on a [bool
    ref], so production throughput is unaffected. *)

exception Nonfinite of string
(** ["Lu.factor: non-finite entry nan at (2,3)"] — the operation name
    always leads the message. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Programmatic override of the [SCNOISE_SANITIZE] environment gate
    (used by tests to exercise both behaviours in one process). *)

val check_vec : string -> Vec.t -> unit

val check_mat : string -> Mat.t -> unit

val check_panel : string -> width:int -> Cvec.panel -> unit
(** Scan a blocked multi-RHS panel ({!Cvec.panel}); the report names
    the (state, column) coordinates under the given width. *)
