(** Located abstract syntax for `.scn` decks.

    Every card and expression carries the {!Loc.t} of its first token so
    the elaborator can attach diagnostics; {!strip} erases locations
    (for the parse → print → parse round-trip equality used in tests)
    and {!equal} compares decks modulo locations. *)

type binop = Add | Sub | Mul | Div | Pow

type expr = { e : expr_node; eloc : Loc.t }

and expr_node =
  | Num of float * string
      (** value plus its canonical unit annotation from the lexer
          (["ohm"], ["F"], ["Hz"], ["V"], ["A"], ["s"], ["K"], or [""]
          when the literal carried none) *)
  | Ref of string  (** parameter or built-in constant ([pi]) *)
  | Neg of expr
  | Bin of binop * expr * expr
  | Call of string * expr list

type node = { nname : string; nloc : Loc.t }
(** A node reference; ground is spelled [0]. *)

type waveform =
  | Dc of expr
  | Sin of { offset : expr; amp : expr; freq : expr; phase_deg : expr option }
  | Pwl of (expr * expr) list  (** (time, value) breakpoints *)

type noise_kind =
  | White of { psd : expr }
  | Flicker of {
      psd_1hz : expr;
      fmin : expr;
      fmax : expr;
      sections_per_decade : expr option;
    }

type card =
  | Resistor of { name : string; n1 : node; n2 : node; r : expr; noisy : bool }
  | Capacitor of { name : string; n1 : node; n2 : node; c : expr }
  | Switch of {
      name : string;
      n1 : node;
      n2 : node;
      r_on : expr;
      closed_in : int list;
      noisy : bool;
    }
  | Vsource of { name : string; n : node; wave : waveform }
  | Isource of { name : string; n1 : node; n2 : node; wave : waveform }
  | Noise of { name : string; n1 : node; n2 : node; kind : noise_kind }
  | Opamp_integrator of {
      name : string;
      plus : node;
      minus : node;
      out : node;
      ugf : expr;
      noise : expr option;
    }
  | Opamp_single_stage of {
      name : string;
      plus : node;
      minus : node;
      out : node;
      gm : expr;
      rout : expr;
      cout : expr;
      noise : expr option;
    }

type clock_spec =
  | Clock_duty of { period : expr; duty : expr }
  | Clock_two_phase of { period : expr; gap : expr option }
  | Clock_phases of expr list

type analysis =
  | Psd of {
      fmin : expr option;
      fmax : expr option;
      points : expr option;
      log : bool;
    }
  | Variance
  | Contrib of { f : expr option }
  | Transfer of {
      fmin : expr option;
      fmax : expr option;
      points : expr option;
      k : expr option;
    }

type stmt =
  | Card of card
  | Param of { pname : string; value : expr }
  | Clock of clock_spec
  | Output of node
  | Temp of expr
  | Analysis of analysis
  | End

type stmt_l = { s : stmt; sloc : Loc.t }

type deck = { stmts : stmt_l list; eof : Loc.t }

val strip : deck -> deck
(** Replace every location with {!Loc.dummy}. *)

val equal : deck -> deck -> bool
(** Structural equality modulo locations. *)
