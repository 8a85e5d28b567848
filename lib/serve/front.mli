(** The front door shared by [scnoise] and the daemon: the deck gate
    and the resolution of analysis parameters.

    Every CLI analysis of a deck and every served request passes the
    same gate and resolves its parameters the same way (the given
    value beats the deck's analysis directive beats the builtin
    default), so served replies are bit-identical to CLI runs by
    construction rather than by two copies kept in step. *)

(** {1 Deck gate} *)

type circuit = {
  sys : Scnoise_circuit.Pwl.t;
  output : Scnoise_linalg.Vec.t;  (** observability row of the output node *)
}

(** A failure, one constructor per stage of the gate. *)
type error =
  | Deck of string  (** load, parse or elaborate; a rendered diagnostic *)
  | Erc of string  (** the ERC errors, rendered one after another *)
  | Compile of { deck : string; message : string }
  | Output of Scnoise_lang.Deck.loaded
      (** the output node is resistive or source-driven *)

val code : error -> string
(** The stage name, which is also the daemon's error code: [deck],
    [erc], [compile] or [output]. *)

val message : error -> string
(** The text both front ends report: [Compile] reads ["deck: message"],
    [Output] is a caret diagnostic at the deck's [.output] card. *)

val fatal : Scnoise_check.Finding.t list -> Scnoise_check.Finding.t list
(** The error-severity findings: the ones that stop an analysis. *)

val load : name:string -> string -> (Scnoise_lang.Deck.loaded, error) result
(** {!Scnoise_lang.Deck.load_string}, failing with [Deck]. *)

val load_file : string -> (Scnoise_lang.Deck.loaded, error) result
(** {!Scnoise_lang.Deck.load_file}, failing with [Deck]. *)

val erc : Scnoise_lang.Deck.loaded -> (unit, error) result
(** The errors-only ERC; warnings pass. *)

val compile :
  name:string -> Scnoise_lang.Deck.loaded -> (circuit, error) result
(** Compile the deck and find its output row; [name] labels compiler
    errors. *)

val gate : name:string -> Scnoise_lang.Deck.loaded -> (circuit, error) result
(** {!erc}, then {!compile}. *)

(** {1 Stability} *)

val stable : Scnoise_circuit.Pwl.t -> bool
(** {!Scnoise_circuit.Pwl.is_stable}: the verdict both front ends ask
    before psd, variance, contrib and transfer.  The steady-state
    solve's {!Scnoise_linalg.Lyapunov.Not_stable} is only a fallback:
    it misses a mode that no noise source reaches. *)

val unstable : string
(** The refusal both front ends report. *)

(** {1 Request resolution} *)

val directives : Scnoise_lang.Deck.loaded -> Scnoise_lang.Elab.analysis list
(** The deck's analysis directives, in deck order: the defaults the
    resolvers below read.  The canonical deck hash leaves them out, so
    they are read from each deck, never from a circuit cached under
    that hash. *)

type psd = {
  fmin : float;
  fmax : float;
  points : int;
  log : bool;
  spp : int;  (** samples per clock phase *)
}

type transfer = { fmin : float; fmax : float; points : int; k : int; spp : int }

type contrib = { f : float; spp : int }

val psd_defaults : psd
(** 0 to 16 kHz, 33 linear points. *)

val transfer_defaults : transfer
(** 1 Hz to 2 kHz, 21 points, no side harmonics. *)

val contrib_defaults : contrib
(** 1 kHz. *)

val spp : int option -> int
(** Samples per phase, defaulting to
    {!Scnoise_core.Covariance.default_samples_per_phase} (no directive
    sets it); the one parameter of a variance analysis. *)

val psd :
  ?fmin:float -> ?fmax:float -> ?points:int -> ?log:bool -> ?spp:int ->
  Scnoise_lang.Elab.analysis list -> psd
(** Resolve against the first [.psd] directive.  A log directive turns
    the grid logarithmic whatever [log] says. *)

val psd_freqs : psd -> float array
(** Linear from [fmin], or logarithmic from [max fmin 1e-3], to [fmax]. *)

val transfer :
  ?fmin:float -> ?fmax:float -> ?points:int -> ?k:int -> ?spp:int ->
  Scnoise_lang.Elab.analysis list -> transfer
(** Resolve against the first [.transfer] directive. *)

val transfer_freqs : transfer -> float array
(** Linear from [fmin] to [fmax]. *)

val contrib :
  ?f:float -> ?spp:int -> Scnoise_lang.Elab.analysis list -> contrib
(** Resolve against the first [.contrib] directive that sets [f]. *)
