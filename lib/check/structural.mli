(** ERC011: matching-based structural-singularity prediction.

    Operates on the {!Scnoise_circuit.Sparsity} digest — never on a
    compiled system — and predicts, before any LU factorisation runs,
    the two ways a deck's per-phase MNA blocks go (near-)singular:

    - a Laplacian block whose coupling to its reference is orders of
      magnitude below its internal scale (a capacitor block grounded
      only through a vanishing parasitic; a resistive block leaking to
      the rest of the circuit through a vanishing conductance in some
      phase), which a pure pattern analysis cannot see because the
      pattern is full;
    - a block whose pattern, after dropping entries below a relative
      tolerance of the block scale, fails maximum-bipartite-matching
      structural rank (Dulmage–Mendelsohn-style); the finding names the
      minimal deficient node set, the Hall violator of the matching.

    The relative tolerance is {!rtol}, [1e-12] (the sanitizer's
    ill-conditioning threshold).  Defects already diagnosed exactly by
    ERC001/ERC002 (floating nodes, ungrounded capacitor islands) are
    not re-reported. *)

val rtol : float

val check :
  node_name:(int -> string) ->
  locate_node:(string -> Scnoise_lang.Loc.t option) ->
  floating:bool array array ->
  Scnoise_circuit.Sparsity.t ->
  Finding.t list
(** [floating.(p).(i)] must be ERC001's verdict for node [i] in phase
    [p]; already-floating nodes are excluded from every sub-analysis. *)
