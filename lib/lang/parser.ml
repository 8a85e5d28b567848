open Ast

let c_cards = Scnoise_obs.Obs.counter "lang_cards"

type state = { toks : Lexer.located array; mutable pos : int }

let peek st = st.toks.(st.pos)

let next st =
  let t = st.toks.(st.pos) in
  if t.Lexer.tok <> Lexer.EOF then st.pos <- st.pos + 1;
  t

let syntax_error (t : Lexer.located) expected =
  Diag.error t.Lexer.loc "expected %s, found %s" expected
    (Lexer.describe t.Lexer.tok)

let expect_eol st =
  match (peek st).Lexer.tok with
  | Lexer.EOL -> ignore (next st)
  | Lexer.EOF -> ()
  | _ -> syntax_error (peek st) "end of line"

(* ---- expressions (inside braces and .param right-hand sides) ---- *)

(* primary := NUMBER | IDENT | IDENT '(' expr,* ')' | '(' expr ')'
   with '-NUMBER' folded into the literal so printing round-trips *)
let rec parse_primary st =
  let t = next st in
  let loc = t.Lexer.loc in
  match t.Lexer.tok with
  | Lexer.NUMBER (v, u) -> { e = Num (v, u); eloc = loc }
  | Lexer.MINUS -> (
      match (peek st).Lexer.tok with
      | Lexer.NUMBER (v, u) ->
          ignore (next st);
          { e = Num (-.v, u); eloc = loc }
      | _ -> { e = Neg (parse_primary st); eloc = loc })
  | Lexer.IDENT name -> (
      match (peek st).Lexer.tok with
      | Lexer.LPAREN ->
          ignore (next st);
          let rec args acc =
            let a = parse_expr st in
            match (next st).Lexer.tok with
            | Lexer.COMMA -> args (a :: acc)
            | Lexer.RPAREN -> List.rev (a :: acc)
            | _ -> syntax_error st.toks.(st.pos - 1) "',' or ')'"
          in
          { e = Call (String.lowercase_ascii name, args []); eloc = loc }
      | _ -> { e = Ref name; eloc = loc })
  | Lexer.LPAREN -> (
      let e = parse_expr st in
      match (next st).Lexer.tok with
      | Lexer.RPAREN -> e
      | _ -> syntax_error st.toks.(st.pos - 1) "')'")
  | _ -> syntax_error t "an expression"

and parse_power st =
  let base = parse_primary st in
  match (peek st).Lexer.tok with
  | Lexer.CARET ->
      let t = next st in
      let expo = parse_power st in
      { e = Bin (Pow, base, expo); eloc = t.Lexer.loc }
  | _ -> base

and parse_term st =
  let rec loop lhs =
    match (peek st).Lexer.tok with
    | Lexer.STAR | Lexer.SLASH ->
        let t = next st in
        let op = if t.Lexer.tok = Lexer.STAR then Mul else Div in
        let rhs = parse_power st in
        loop { e = Bin (op, lhs, rhs); eloc = t.Lexer.loc }
    | _ -> lhs
  in
  loop (parse_power st)

and parse_expr st =
  let rec loop lhs =
    match (peek st).Lexer.tok with
    | Lexer.PLUS | Lexer.MINUS ->
        let t = next st in
        let op = if t.Lexer.tok = Lexer.PLUS then Add else Sub in
        let rhs = parse_term st in
        loop { e = Bin (op, lhs, rhs); eloc = t.Lexer.loc }
    | _ -> lhs
  in
  loop (parse_term st)

(* card value: a literal (possibly negated) or a braced expression *)
let parse_value st =
  let t = peek st in
  match t.Lexer.tok with
  | Lexer.NUMBER (v, u) ->
      ignore (next st);
      { e = Num (v, u); eloc = t.Lexer.loc }
  | Lexer.MINUS -> (
      ignore (next st);
      match (peek st).Lexer.tok with
      | Lexer.NUMBER (v, u) ->
          ignore (next st);
          { e = Num (-.v, u); eloc = t.Lexer.loc }
      | _ -> syntax_error (peek st) "a number after '-'")
  | Lexer.LBRACE -> (
      ignore (next st);
      let e = parse_expr st in
      match (next st).Lexer.tok with
      | Lexer.RBRACE -> e
      | _ -> syntax_error st.toks.(st.pos - 1) "'}'")
  | _ -> syntax_error t "a value (number or {expression})"

let starts_value st =
  match (peek st).Lexer.tok with
  | Lexer.NUMBER _ | Lexer.MINUS | Lexer.LBRACE -> true
  | _ -> false

let parse_node st =
  let t = next st in
  match t.Lexer.tok with
  | Lexer.IDENT name -> { nname = name; nloc = t.Lexer.loc }
  | Lexer.NUMBER (v, u) ->
      let i = int_of_float v in
      if float_of_int i <> v || i < 0 || u <> "" then
        Diag.error t.Lexer.loc "node names must be identifiers or nonnegative integers";
      { nname = string_of_int i; nloc = t.Lexer.loc }
  | _ -> syntax_error t "a node name"

(* ---- key=value / flag tails ---- *)

type tail_item =
  | Key of string * Loc.t * expr
  | Int_list of string * Loc.t * int list
  | Flag of string * Loc.t

let parse_int_list st =
  let one () =
    let t = next st in
    match t.Lexer.tok with
    | Lexer.NUMBER (v, u) ->
        let i = int_of_float v in
        if float_of_int i <> v || i < 0 || u <> "" then
          Diag.error t.Lexer.loc "expected a nonnegative integer";
        i
    | _ -> syntax_error t "an integer"
  in
  let rec more acc =
    match (peek st).Lexer.tok with
    | Lexer.COMMA ->
        ignore (next st);
        more (one () :: acc)
    | _ -> List.rev acc
  in
  more [ one () ]

let item_key = function
  | Key (k, _, _) | Int_list (k, _, _) | Flag (k, _) -> k

(* A tail of [keys] (key=value), [int_keys] (key=comma-separated
   integers) and [flags] (a bare key) on card [card].  Any other key is
   refused at its own location, before its value is read. *)
let parse_tail ?(keys = []) ?(int_keys = []) ?(flags = []) st card =
  let rec loop acc =
    match (peek st).Lexer.tok with
    | Lexer.IDENT key ->
        let t = next st in
        let loc = t.Lexer.loc in
        let k = String.lowercase_ascii key in
        let valued =
          match (peek st).Lexer.tok with Lexer.EQUALS -> true | _ -> false
        in
        if not (List.mem k (if valued then keys @ int_keys else flags)) then
          Diag.error loc "%s: unknown option %S (expected %s)" card k
            (String.concat ", " (keys @ int_keys @ flags));
        if List.exists (fun i -> item_key i = k) acc then
          Diag.error loc "duplicate %S" k;
        let item =
          if not valued then Flag (k, loc)
          else (
            ignore (next st);
            if List.mem k int_keys then Int_list (k, loc, parse_int_list st)
            else Key (k, loc, parse_value st))
        in
        loop (item :: acc)
    | _ -> List.rev acc
  in
  loop []

let find_key loc_of tail card k =
  match
    List.find_map (function Key (k', _, e) when k' = k -> Some e | _ -> None) tail
  with
  | Some e -> e
  | None -> Diag.error loc_of "%s: missing %s=<value>" card k

let find_key_opt tail k =
  List.find_map (function Key (k', _, e) when k' = k -> Some e | _ -> None) tail

let find_flag tail k =
  List.exists (function Flag (k', _) -> k' = k | _ -> false) tail

(* ---- waveforms ---- *)

let parse_wave st =
  if starts_value st then Dc (parse_value st)
  else
    let t = next st in
    match t.Lexer.tok with
    | Lexer.IDENT kw -> (
        match String.lowercase_ascii kw with
        | "dc" -> Dc (parse_value st)
        | "sin" ->
            let offset = parse_value st in
            let amp = parse_value st in
            let freq = parse_value st in
            let phase_deg = if starts_value st then Some (parse_value st) else None in
            Sin { offset; amp; freq; phase_deg }
        | "pwl" ->
            let rec pts acc =
              if starts_value st then begin
                let tm = parse_value st in
                if not (starts_value st) then
                  syntax_error (peek st) "a value (pwl points come in time/value pairs)";
                let v = parse_value st in
                pts ((tm, v) :: acc)
              end
              else List.rev acc
            in
            let l = pts [] in
            if l = [] then syntax_error (peek st) "at least one pwl time/value pair";
            Pwl l
        | _ -> Diag.error t.Lexer.loc "unknown waveform %S (expected dc, sin or pwl)" kw)
    | _ -> syntax_error t "a waveform (dc/sin/pwl or a value)"

(* ---- element cards ---- *)

let has_prefix p s =
  String.length s >= String.length p
  && String.uppercase_ascii (String.sub s 0 (String.length p)) = p

let parse_card st name loc =
  Scnoise_obs.Obs.incr c_cards;
  if has_prefix "OPI" name then begin
    let plus = parse_node st and minus = parse_node st and out = parse_node st in
    let tail = parse_tail ~keys:[ "ugf"; "noise" ] st name in
    Opamp_integrator
      {
        name;
        plus;
        minus;
        out;
        ugf = find_key loc tail name "ugf";
        noise = find_key_opt tail "noise";
      }
  end
  else if has_prefix "OP1" name then begin
    let plus = parse_node st and minus = parse_node st and out = parse_node st in
    let tail = parse_tail ~keys:[ "gm"; "rout"; "cout"; "noise" ] st name in
    Opamp_single_stage
      {
        name;
        plus;
        minus;
        out;
        gm = find_key loc tail name "gm";
        rout = find_key loc tail name "rout";
        cout = find_key loc tail name "cout";
        noise = find_key_opt tail "noise";
      }
  end
  else
    match Char.uppercase_ascii name.[0] with
    | 'R' ->
        let n1 = parse_node st and n2 = parse_node st in
        let r = parse_value st in
        let tail = parse_tail ~flags:[ "noiseless" ] st name in
        Resistor { name; n1; n2; r; noisy = not (find_flag tail "noiseless") }
    | 'C' ->
        let n1 = parse_node st and n2 = parse_node st in
        let c = parse_value st in
        Capacitor { name; n1; n2; c }
    | 'S' ->
        let n1 = parse_node st and n2 = parse_node st in
        let r_on = parse_value st in
        let tail =
          parse_tail ~int_keys:[ "closed" ] ~flags:[ "noiseless" ] st name
        in
        let closed_in =
          match
            List.find_map
              (function Int_list ("closed", _, l) -> Some l | _ -> None)
              tail
          with
          | Some l -> l
          | None -> Diag.error loc "%s: missing closed=<phase list>" name
        in
        Switch
          { name; n1; n2; r_on; closed_in; noisy = not (find_flag tail "noiseless") }
    | 'V' ->
        let n = parse_node st in
        Vsource { name; n; wave = parse_wave st }
    | 'I' ->
        let n1 = parse_node st and n2 = parse_node st in
        Isource { name; n1; n2; wave = parse_wave st }
    | 'N' -> (
        let n1 = parse_node st and n2 = parse_node st in
        match (peek st).Lexer.tok with
        | Lexer.IDENT kw when String.lowercase_ascii kw = "flicker" ->
            ignore (next st);
            let tail =
              parse_tail ~keys:[ "psd1hz"; "fmin"; "fmax"; "spd" ] st name
            in
            Noise
              {
                name;
                n1;
                n2;
                kind =
                  Flicker
                    {
                      psd_1hz = find_key loc tail name "psd1hz";
                      fmin = find_key loc tail name "fmin";
                      fmax = find_key loc tail name "fmax";
                      sections_per_decade = find_key_opt tail "spd";
                    };
              }
        | _ ->
            let tail = parse_tail ~keys:[ "psd" ] st name in
            Noise { name; n1; n2; kind = White { psd = find_key loc tail name "psd" } })
    | _ ->
        Diag.error loc
          "unknown element card %S (expected an R/C/S/V/I/N/OPI/OP1 prefix)" name

(* ---- directives ---- *)

let parse_directive st d loc =
  match d with
  | "param" ->
      let t = next st in
      let pname =
        match t.Lexer.tok with
        | Lexer.IDENT n -> n
        | _ -> syntax_error t "a parameter name"
      in
      (match (peek st).Lexer.tok with
      | Lexer.EQUALS -> ignore (next st)
      | _ -> ());
      let value =
        match (peek st).Lexer.tok with
        | Lexer.LBRACE -> parse_value st
        | _ -> parse_expr st
      in
      Param { pname; value }
  | "clock" -> (
      let t = next st in
      match t.Lexer.tok with
      | Lexer.IDENT kind -> (
          match String.lowercase_ascii kind with
          | "duty" ->
              let tail =
                parse_tail ~keys:[ "period"; "duty" ] st ".clock duty"
              in
              Clock
                (Clock_duty
                   {
                     period = find_key loc tail ".clock duty" "period";
                     duty = find_key loc tail ".clock duty" "duty";
                   })
          | "two_phase" ->
              let tail =
                parse_tail ~keys:[ "period"; "gap" ] st ".clock two_phase"
              in
              Clock
                (Clock_two_phase
                   {
                     period = find_key loc tail ".clock two_phase" "period";
                     gap = find_key_opt tail "gap";
                   })
          | "phases" ->
              let rec vals acc =
                if starts_value st then vals (parse_value st :: acc)
                else List.rev acc
              in
              let ds = vals [] in
              if ds = [] then syntax_error (peek st) "at least one phase duration";
              Clock (Clock_phases ds)
          | other ->
              Diag.error t.Lexer.loc
                "unknown clock form %S (expected duty, two_phase or phases)" other)
      | _ -> syntax_error t "a clock form (duty, two_phase or phases)")
  | "output" -> Output (parse_node st)
  | "temp" -> Temp (parse_value st)
  | "psd" ->
      let tail =
        parse_tail ~keys:[ "fmin"; "fmax"; "points" ] ~flags:[ "log" ] st ".psd"
      in
      Analysis
        (Psd
           {
             fmin = find_key_opt tail "fmin";
             fmax = find_key_opt tail "fmax";
             points = find_key_opt tail "points";
             log = find_flag tail "log";
           })
  | "variance" -> Analysis Variance
  | "contrib" ->
      let tail = parse_tail ~keys:[ "f" ] st ".contrib" in
      Analysis (Contrib { f = find_key_opt tail "f" })
  | "transfer" ->
      let tail =
        parse_tail ~keys:[ "fmin"; "fmax"; "points"; "k" ] st ".transfer"
      in
      Analysis
        (Transfer
           {
             fmin = find_key_opt tail "fmin";
             fmax = find_key_opt tail "fmax";
             points = find_key_opt tail "points";
             k = find_key_opt tail "k";
           })
  | "end" -> End
  | other -> Diag.error loc "unknown directive .%s" other

(* ---- driver ---- *)

let parse_tokens source toks =
  ignore source;
  let st = { toks = Array.of_list toks; pos = 0 } in
  let rec loop acc =
    match (peek st).Lexer.tok with
    | Lexer.EOL ->
        ignore (next st);
        loop acc
    | Lexer.EOF -> List.rev acc
    | Lexer.DIRECTIVE d ->
        let t = next st in
        let s = parse_directive st d t.Lexer.loc in
        expect_eol st;
        let acc = { s; sloc = t.Lexer.loc } :: acc in
        if s = End then List.rev acc else loop acc
    | Lexer.IDENT name ->
        let t = next st in
        let s = Card (parse_card st name t.Lexer.loc) in
        expect_eol st;
        loop ({ s; sloc = t.Lexer.loc } :: acc)
    | _ -> syntax_error (peek st) "an element card or a directive"
  in
  let stmts = loop [] in
  let eof = st.toks.(Array.length st.toks - 1).Lexer.loc in
  { stmts; eof }

let parse source = parse_tokens source (Lexer.tokenize source)
