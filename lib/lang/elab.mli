(** Elaborator: located AST → {!Scnoise_circuit.Netlist.t} +
    {!Scnoise_circuit.Clock.t} + evaluated analysis directives.

    Every failure is a {!Diag.Error} located at the offending card,
    node or expression: unknown parameters, bad element values (the
    [Netlist] builder's [Invalid_argument] is re-raised with the card's
    position), an unknown or ground [.output] node, duplicate or missing
    [.clock]/[.output] directives.  Structural defects that do not stop
    elaboration (switch phases outside the clock schedule, floating
    nodes, unused parameters, ...) are left to the [Scnoise_check] ERC
    pass, which consumes the location maps recorded here.

    Expressions know the constant [pi], the functions [sqrt exp log
    log10 abs min max pow], and every [.param] defined {e above} the
    point of use (strict top-to-bottom order). *)

module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock

(** Analysis directives with their expressions evaluated; [None] fields
    were omitted in the deck and fall back to CLI defaults. *)
type analysis =
  | Psd of {
      fmin : float option;
      fmax : float option;
      points : int option;
      log : bool;
    }
  | Variance
  | Contrib of { f : float option }
  | Transfer of {
      fmin : float option;
      fmax : float option;
      points : int option;
      k : int option;
    }

type slot = { slot_what : string; slot_dim : string; slot_expr : Ast.expr }
(** One value position in the deck whose physical dimension is fixed by
    syntax: [slot_what] names it for diagnostics ("R1 r", ".clock
    period"), [slot_dim] is the expected dimension ("ohm", "F", "Hz",
    "V", "A", "s", "K", "A/V", "A2/Hz", "V2/Hz", or "1" for
    dimensionless), and [slot_expr] is the raw expression tree with
    locations and unit annotations intact. *)

type t = {
  netlist : Netlist.t;
  clock : Clock.t;
  output_node : string;
  output_loc : Loc.t;
  temperature : float option;  (** from [.temp], kelvin *)
  analyses : (analysis * Loc.t) list;  (** in deck order, with the
      directive's location *)
  params : (string * float) list;  (** evaluated [.param]s, deck order *)
  unused_params : (string * Loc.t) list;  (** [.param]s never referenced
      by any later expression, deck order *)
  element_locs : (string * Loc.t) list;  (** element name → its card *)
  node_locs : (string * Loc.t) list;  (** node name → first reference *)
  value_slots : slot list;  (** every dimensioned value position, deck
      order — consumed by the units ERC pass *)
  param_exprs : (string * Ast.expr) list;  (** raw [.param] expression
      trees, deck order *)
}

val elaborate : Ast.deck -> t
(** Raises {!Diag.Error}. *)

val eval_const : params:(string * float) list -> Ast.expr -> float
(** Evaluate an expression of an {e already-elaborated} deck against its
    evaluated [params] (see {!t}'s [params] field).  Same semantics as
    elaboration-time evaluation; raises {!Diag.Error} only on
    expressions the elaborator would itself have rejected. *)
