(** Electrical-rule check (ERC): a static analysis pass over an
    elaborated netlist + clock, run between elaboration and compilation.

    Every rule is computed structurally — per-phase connectivity of the
    element graph, never a matrix factorisation — so the pass is cheap
    and its findings carry circuit-level language ("floating node",
    "capacitor-only island") rather than numeric symptoms ("singular
    matrix at pivot 3").  Errors predict conditions under which
    {!Scnoise_circuit.Compile} would fail or silently patch the system;
    warnings flag degenerate or almost-certainly-unintended structure.

    {2 Rule catalogue}

    - [ERC001-floating-node] (error): a node with no path — conductive
      {e or} capacitive — to ground or a voltage-driven node during some
      clock phase.  Its MNA row is singular in that phase.  Capacitive
      edges count: an op-amp virtual ground reached only through
      capacitors is fine.
    - [ERC002-cap-island] (error): a connected component of the
      capacitor graph that contains no ground or driven node.  The
      charge on the island is undefined at phase boundaries — exactly
      the "singular capacitance matrix" failure the compiler raises —
      even when the island is conductively grounded.
    - [ERC003-source-short] (error): a switch whose two terminals are
      both held (ground or voltage-driven, at least one driven); closing
      it shorts a source.
    - [ERC004-degenerate-switch] (warning): a switch closed in every
      clock phase (a resistor in disguise) or never closed at all.
    - [ERC005-phase-out-of-range] (error): a switch [closed=] phase
      index outside the clock schedule.
    - [ERC006-noiseless] (warning): no noise-producing element is
      connected to the output node's component; every computed spectrum
      will be identically zero.
    - [ERC007-unused-param] (warning, decks only): a [.param] never
      referenced by a later expression.
    - [ERC008-dangling-node] (warning): a non-ground, non-output node
      referenced by exactly one element terminal — usually a typo.
    - [ERC009-nyquist] (warning, decks only): a [.psd] / [.transfer]
      [fmax] beyond the clock Nyquist frequency [1/(2T)].
    - [ERC010-ill-conditioned] (warning, post-hoc): an LU factorisation
      during a subsequent analysis had a diagonal-ratio condition
      estimate worse than 1e12 (reported from the
      [lu_ill_conditioned] observability counter, see
      {!ill_conditioned}).
    - [ERC011-structural-singular] (error): a per-phase MNA block fails
      magnitude-aware structural rank.  Entries below [1e-12] times
      the block's magnitude scale are
      dropped and maximum bipartite matching is run on the surviving
      pattern; a deficient matching names the minimal (Hall-violator)
      node set whose rows the eventual LU would pivot to near-zero on.
      Predicts [ERC010] before any factorisation happens
      ({!Structural}).
    - [ERC012-dead-source] (warning): a noise source with no
      phase-sequenced path — conductive within a phase, capacitive
      charge transfer across phase boundaries — to the output.  Deleting
      it changes the PSD by exactly zero ({!Reach}).
    - [ERC013-output-isolated] (warning): no noise source at all reaches
      the output through the phase-sequenced reachability graph; the
      path-aware strengthening of [ERC006] ({!Reach}).
    - [ERC014-dimension-mismatch] (error, decks only): SI-dimension
      inference over [.param] expression trees and card values
      contradicts a slot's expected dimension — e.g. a farad-valued
      param used as a resistance ({!Units}).
    - [ERC015-band-capture] (warning, decks only): the [.psd] sweep band
      captures less than a tenth of
      the static kT/C noise power spread over the clock rate
      ({!Units}). *)

module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock
module Elab = Scnoise_lang.Elab
module Loc = Scnoise_lang.Loc

val check :
  ?output:string ->
  ?locate_element:(string -> Loc.t option) ->
  ?locate_node:(string -> Loc.t option) ->
  Netlist.t ->
  Clock.t ->
  Finding.t list
(** Structural rules (ERC001–ERC006, ERC008) and the phase-aware
    passes (ERC011–ERC013) over any netlist, programmatic or
    elaborated.  [output] enables ERC006/ERC012/ERC013 and exempts the
    output node from ERC008; the locate functions attach deck locations
    to findings when available.  The result is sorted
    ({!Finding.compare}) and recorded ({!Finding.record}). *)

val check_elab : Elab.t -> Finding.t list
(** {!check} plus the deck-only rules (ERC007, ERC009, ERC014, ERC015)
    and the phase-aware structural passes (ERC011–ERC013), with
    locations from the elaborator's maps. *)

val resolve_anchor : Elab.t -> string -> Loc.t option
(** Map a finding's position-free [anchor] (["element:R1"], ["node:a"],
    ["param:c"], ["slot:3"], ["analysis:0"]) back to a deck location in
    [e]'s maps.  Total: unknown kinds or names yield [None].  The serve
    tier uses this to re-attach carets to verdicts cached under the
    canonical (layout-erasing) deck hash. *)

val ill_conditioned_count : unit -> int
(** Current value of the [lu_ill_conditioned] observability counter. *)

val ill_conditioned : since:int -> Finding.t list
(** Post-hoc ERC010: the factorisations whose condition estimate
    tripped since the [since] baseline (a prior
    {!ill_conditioned_count}).  Empty when none did. *)
