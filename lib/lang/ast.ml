type binop = Add | Sub | Mul | Div | Pow

type expr = { e : expr_node; eloc : Loc.t }

and expr_node =
  | Num of float * string
  | Ref of string
  | Neg of expr
  | Bin of binop * expr * expr
  | Call of string * expr list

type node = { nname : string; nloc : Loc.t }

type waveform =
  | Dc of expr
  | Sin of { offset : expr; amp : expr; freq : expr; phase_deg : expr option }
  | Pwl of (expr * expr) list

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

(* ---- location stripping (for modulo-location equality) ---- *)

let rec strip_expr x =
  let e =
    match x.e with
    | Num _ | Ref _ -> x.e
    | Neg a -> Neg (strip_expr a)
    | Bin (op, a, b) -> Bin (op, strip_expr a, strip_expr b)
    | Call (f, args) -> Call (f, List.map strip_expr args)
  in
  { e; eloc = Loc.dummy }

let strip_node n = { n with nloc = Loc.dummy }

let strip_opt = Option.map strip_expr

let strip_wave = function
  | Dc v -> Dc (strip_expr v)
  | Sin { offset; amp; freq; phase_deg } ->
      Sin
        {
          offset = strip_expr offset;
          amp = strip_expr amp;
          freq = strip_expr freq;
          phase_deg = strip_opt phase_deg;
        }
  | Pwl pts -> Pwl (List.map (fun (t, v) -> (strip_expr t, strip_expr v)) pts)

let strip_card = function
  | Resistor r ->
      Resistor
        { r with n1 = strip_node r.n1; n2 = strip_node r.n2; r = strip_expr r.r }
  | Capacitor c ->
      Capacitor
        { c with n1 = strip_node c.n1; n2 = strip_node c.n2; c = strip_expr c.c }
  | Switch s ->
      Switch
        {
          s with
          n1 = strip_node s.n1;
          n2 = strip_node s.n2;
          r_on = strip_expr s.r_on;
        }
  | Vsource v -> Vsource { v with n = strip_node v.n; wave = strip_wave v.wave }
  | Isource i ->
      Isource
        {
          i with
          n1 = strip_node i.n1;
          n2 = strip_node i.n2;
          wave = strip_wave i.wave;
        }
  | Noise n ->
      let kind =
        match n.kind with
        | White { psd } -> White { psd = strip_expr psd }
        | Flicker { psd_1hz; fmin; fmax; sections_per_decade } ->
            Flicker
              {
                psd_1hz = strip_expr psd_1hz;
                fmin = strip_expr fmin;
                fmax = strip_expr fmax;
                sections_per_decade = strip_opt sections_per_decade;
              }
      in
      Noise { n with n1 = strip_node n.n1; n2 = strip_node n.n2; kind }
  | Opamp_integrator o ->
      Opamp_integrator
        {
          o with
          plus = strip_node o.plus;
          minus = strip_node o.minus;
          out = strip_node o.out;
          ugf = strip_expr o.ugf;
          noise = strip_opt o.noise;
        }
  | Opamp_single_stage o ->
      Opamp_single_stage
        {
          o with
          plus = strip_node o.plus;
          minus = strip_node o.minus;
          out = strip_node o.out;
          gm = strip_expr o.gm;
          rout = strip_expr o.rout;
          cout = strip_expr o.cout;
          noise = strip_opt o.noise;
        }

let strip_clock = function
  | Clock_duty { period; duty } ->
      Clock_duty { period = strip_expr period; duty = strip_expr duty }
  | Clock_two_phase { period; gap } ->
      Clock_two_phase { period = strip_expr period; gap = strip_opt gap }
  | Clock_phases ds -> Clock_phases (List.map strip_expr ds)

let strip_analysis = function
  | Psd p ->
      Psd
        {
          p with
          fmin = strip_opt p.fmin;
          fmax = strip_opt p.fmax;
          points = strip_opt p.points;
        }
  | Variance -> Variance
  | Contrib { f } -> Contrib { f = strip_opt f }
  | Transfer t ->
      Transfer
        {
          fmin = strip_opt t.fmin;
          fmax = strip_opt t.fmax;
          points = strip_opt t.points;
          k = strip_opt t.k;
        }

let strip_stmt = function
  | Card c -> Card (strip_card c)
  | Param p -> Param { p with value = strip_expr p.value }
  | Clock c -> Clock (strip_clock c)
  | Output n -> Output (strip_node n)
  | Temp e -> Temp (strip_expr e)
  | Analysis a -> Analysis (strip_analysis a)
  | End -> End

let strip d =
  {
    stmts = List.map (fun s -> { s = strip_stmt s.s; sloc = Loc.dummy }) d.stmts;
    eof = Loc.dummy;
  }

(* the stripped trees contain no closures, so structural equality is safe *)
let equal a b = strip a = strip b
