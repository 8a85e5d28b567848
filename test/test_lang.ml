module Source = Scnoise_lang.Source
module Lexer = Scnoise_lang.Lexer
module Parser = Scnoise_lang.Parser
module Printer = Scnoise_lang.Printer
module Ast = Scnoise_lang.Ast
module Diag = Scnoise_lang.Diag
module Deck = Scnoise_lang.Deck
module Elab = Scnoise_lang.Elab
module Loc = Scnoise_lang.Loc
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Psd = Scnoise_core.Psd
module Grid = Scnoise_util.Grid
module SRC = Scnoise_circuits.Switched_rc
module INT = Scnoise_circuits.Sc_integrator
module LAD = Scnoise_circuits.Sc_ladder
module Check = Scnoise_check.Check
module Finding = Scnoise_check.Finding

let deck_dir = Filename.concat ".." "examples/decks"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let tokens_of text =
  Lexer.tokenize (Source.of_string ~name:"deck.scn" text)

(* --- lexer --- *)

let number_of text =
  match tokens_of text with
  | { Lexer.tok = Lexer.NUMBER (v, _); _ } :: _ -> v
  | _ -> Alcotest.failf "%S did not lex as a number" text

let test_lexer_suffixes () =
  let check s v =
    let got = number_of s in
    if got <> v then Alcotest.failf "%S: expected %.17g, got %.17g" s v got
  in
  check "42" 42.0;
  check "1e3" 1e3;
  check "1.5e-3" 1.5e-3;
  check "7f" 7e-15;
  check "2.5p" 2.5e-12;
  check "8n" 8e-9;
  check "3u" 3e-6;
  check "9m" 9e-3;
  check "10k" 1e4;
  check "1meg" 1e6;
  check "4MEG" 4e6;
  check "5g" 5e9;
  check "6t" 6e12;
  (* unit tails after the suffix are ignored *)
  check "10kohm" 1e4;
  check "2.5pF" 2.5e-12;
  check "1megHz" 1e6

let number_unit_of text =
  match tokens_of text with
  | { Lexer.tok = Lexer.NUMBER (v, u); _ } :: _ -> (v, u)
  | _ -> Alcotest.failf "%S did not lex as a number" text

let test_lexer_unit_tails () =
  let check s v u =
    let gv, gu = number_unit_of s in
    if gv <> v || gu <> u then
      Alcotest.failf "%S: expected (%.17g, %S), got (%.17g, %S)" s v u gv gu
  in
  (* scale prefix + canonical unit *)
  check "10kohm" 1e4 "ohm";
  check "2.5pF" 2.5e-12 "F";
  check "1megHz" 1e6 "Hz";
  check "3uV" 3e-6 "V";
  check "9mA" 9e-3 "A";
  check "1us" 1e-6 "s";
  (* whole-word units with no scale *)
  check "5ohm" 5.0 "ohm";
  check "2farad" 2.0 "F";
  check "1hz" 1.0 "Hz";
  check "12volts" 12.0 "V";
  check "1sec" 1.0 "s";
  check "300kelvin" 300.0 "K";
  (* a bare trailing scale letter stays a scale, never a unit *)
  check "7f" 7e-15 "";
  check "300K" 3e5 "";
  check "42" 42.0 ""

let test_lexer_comments_and_continuation () =
  let toks =
    tokens_of "* a full-line comment\nR1 a 0 1k ; trailing comment\n+ noiseless\n"
  in
  let shapes =
    List.map
      (fun { Lexer.tok; _ } ->
        match tok with
        | Lexer.IDENT s -> "id:" ^ s
        | Lexer.NUMBER (v, _) -> Printf.sprintf "num:%g" v
        | Lexer.EOL -> "eol"
        | Lexer.EOF -> "eof"
        | _ -> "other")
      toks
  in
  (* the continuation line merges into one logical line: no EOL between
     1k and noiseless *)
  Alcotest.(check (list string)) "token stream"
    [ "id:R1"; "id:a"; "num:0"; "num:1000"; "id:noiseless"; "eol"; "eof" ]
    shapes

let test_lexer_error_loc () =
  match tokens_of "R1 a 0 10q\n" with
  | exception Diag.Error (loc, msg) ->
      Alcotest.(check string) "loc" "deck.scn:1:10" (Loc.to_string loc);
      Alcotest.(check string) "msg" "unknown SI suffix \"q\" on number" msg
  | _ -> Alcotest.fail "bad suffix accepted"

let test_lexer_dangling_continuation () =
  match tokens_of "+ 1k\n" with
  | exception Diag.Error (_, msg) ->
      if not (String.length msg > 0) then Alcotest.fail "empty message"
  | _ -> Alcotest.fail "dangling continuation accepted"

(* --- parser --- *)

let parse_text text = Parser.parse (Source.of_string ~name:"deck.scn" text)

let test_parser_negative_literal () =
  let d = parse_text ".param x = -3\nR1 a 0 -2.5\n" in
  match List.map (fun s -> s.Ast.s) d.Ast.stmts with
  | [
   Ast.Param { value = { Ast.e = Ast.Num (v1, _); _ }; _ };
   Ast.Card (Ast.Resistor { r = { Ast.e = Ast.Num (v2, _); _ }; _ });
  ] ->
      Alcotest.(check (float 0.0)) "param" (-3.0) v1;
      Alcotest.(check (float 0.0)) "r" (-2.5) v2
  | _ -> Alcotest.fail "unexpected AST shape"

let test_parser_numeric_nodes () =
  let d = parse_text "C1 a 0 1p\n" in
  match List.map (fun s -> s.Ast.s) d.Ast.stmts with
  | [ Ast.Card (Ast.Capacitor { n1; n2; _ }) ] ->
      Alcotest.(check string) "n1" "a" n1.Ast.nname;
      Alcotest.(check string) "n2" "0" n2.Ast.nname
  | _ -> Alcotest.fail "unexpected AST shape"

let test_parser_switch_phases () =
  let d = parse_text "S1 a 0 1k closed=0,2 noiseless\n" in
  match List.map (fun s -> s.Ast.s) d.Ast.stmts with
  | [ Ast.Card (Ast.Switch { closed_in; noisy; _ }) ] ->
      Alcotest.(check (list int)) "phases" [ 0; 2 ] closed_in;
      Alcotest.(check bool) "noiseless" false noisy
  | _ -> Alcotest.fail "unexpected AST shape"

(* --- printer round trips --- *)

(* exercises every card kind, waveform, expression operator and
   directive the grammar knows *)
let kitchen_sink =
  ".param a = 1 + 2 * 3\n\
   .param b = (1 + 2) * 3\n\
   .param d = 2 ^ 3 ^ 2\n\
   .param e = -(a + b)\n\
   .param f = pow(a, 2) / sqrt(b)\n\
   R1 n1 0 {a} noiseless\n\
   C1 n1 n2 2.5p\n\
   S1 n2 0 1k closed=0,2 noiseless\n\
   V1 n3 sin 0 -1 1k 45\n\
   I1 n1 n2 pwl 0 0 1u 1 2u 0\n\
   N1 n1 0 psd=1e-22\n\
   N2 n1 0 flicker psd1hz=1e-20 fmin=1 fmax=1meg spd=3\n\
   OPI1 0 n1 n4 ugf={2 * pi * 1meg} noise=1e-18\n\
   OP11 0 n1 n5 gm=1m rout=1meg cout=1p\n\
   .clock two_phase period=1u gap=0.02\n\
   .output n1\n\
   .temp 350\n\
   .psd fmin=1 fmax=1k points=11 log\n\
   .variance\n\
   .contrib f=1k\n\
   .transfer fmin=1 fmax=1k points=5 k=2\n\
   .end\n"

let check_roundtrip name text =
  let ast = parse_text text in
  let printed = Printer.deck ast in
  let ast' =
    try parse_text printed
    with Diag.Error (loc, msg) ->
      Alcotest.failf "%s: printed deck does not reparse: %s: %s\n%s" name
        (Loc.to_string loc) msg printed
  in
  if not (Ast.equal ast ast') then
    Alcotest.failf "%s: AST changed across print/parse:\n%s" name printed;
  (* printing is a fixed point *)
  Alcotest.(check string) (name ^ " idempotent") printed (Printer.deck ast')

let test_roundtrip_kitchen_sink () = check_roundtrip "kitchen sink" kitchen_sink

(* unit tails survive print → parse with their canonical spellings *)
let test_roundtrip_units () =
  check_roundtrip "unit tails"
    ".param rload = 10kohm\n\
     .param cval = 2.5pF\n\
     R1 a 0 {rload}\n\
     C1 a 0 {cval}\n\
     V1 b dc 1V\n\
     S1 a b 1k closed=0\n\
     .clock duty period=1us duty=0.5\n\
     .output a\n\
     .psd fmin=1hz fmax=1megHz\n\
     .end\n"

let test_roundtrip_shipped_decks () =
  let decks = Sys.readdir deck_dir in
  Array.sort compare decks;
  let scn =
    Array.to_list decks |> List.filter (fun f -> Filename.check_suffix f ".scn")
  in
  if List.length scn < 2 then Alcotest.fail "expected at least two shipped decks";
  List.iter
    (fun f -> check_roundtrip f (read_file (Filename.concat deck_dir f)))
    scn

let test_float_str_exact () =
  List.iter
    (fun v ->
      let s = Printer.float_str v in
      if float_of_string s <> v then
        Alcotest.failf "float_str %h -> %s does not reparse" v s)
    [ 0.1; 1.0 /. 3.0; 2.5e-12; Float.pi; 1e-22; 6.28318530717958623e7 ]

(* --- diagnostics fixtures --- *)

let load text = Deck.load_string ~name:"deck.scn" text

let check_error name text expected =
  match load text with
  | Ok _ -> Alcotest.failf "%s: bad deck accepted" name
  | Error msg -> Alcotest.(check string) name expected msg

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_error_contains name text fragment =
  match load text with
  | Ok _ -> Alcotest.failf "%s: bad deck accepted" name
  | Error msg ->
      if not (contains msg fragment) then
        Alcotest.failf "%s: diagnostic %S lacks %S" name msg fragment

let test_diag_lexical () =
  check_error "lexical"
    "R1 a 0 10q\n"
    "deck.scn:1:10: unknown SI suffix \"q\" on number\n  R1 a 0 10q\n           ^"

let test_diag_syntax () =
  check_error "syntax"
    "R1 a 0\n"
    "deck.scn:1:7: expected a value (number or {expression}), found end of \
     line\n  R1 a 0\n        ^"

let test_diag_unknown_node () =
  check_error "unknown node"
    "S1 vout 0 1k closed=0\nC1 vout 0 1n\n.clock duty period=1u duty=0.5\n\
     .output vx\n"
    "deck.scn:4:9: unknown node \"vx\"\n  .output vx\n          ^"

let test_diag_bad_value () =
  (* netlist validation failures carry the element name and the card's
     position *)
  check_error "negative r"
    "R1 a 0 -5\nC1 a 0 1n\n.clock duty period=1u duty=0.5\n.output a\n"
    "deck.scn:1:1: Netlist.resistor \"R1\": r <= 0\n  R1 a 0 -5\n  ^";
  check_error_contains "unknown parameter" "S1 a 0 {rs} closed=0\n"
    "unknown parameter \"rs\""

let test_diag_missing_directives () =
  check_error_contains "missing clock"
    "S1 a 0 1k closed=0\nC1 a 0 1n\n.output a\n" "missing .clock directive";
  check_error_contains "missing output"
    "S1 a 0 1k closed=0\nC1 a 0 1n\n.clock duty period=1u duty=0.5\n"
    "missing .output directive";
  check_error_contains "empty deck" ".clock duty period=1u duty=0.5\n"
    "deck has no element cards"

let test_diag_ground_output () =
  check_error_contains "ground output"
    "C1 a 0 1n\nR1 a 0 1k\n.clock duty period=1u duty=0.5\n.output 0\n"
    "output node cannot be ground"

let test_diag_duplicates () =
  check_error_contains "duplicate clock"
    "C1 a 0 1n\nR1 a 0 1k\n.clock duty period=1u duty=0.5\n\
     .clock duty period=1u duty=0.5\n.output a\n" "duplicate .clock directive";
  check_error_contains "duplicate param" ".param x = 1\n.param x = 2\nC1 a 0 1n\n"
    "parameter \"x\" already defined";
  check_error_contains "duplicate key" "S1 a 0 1k closed=0 closed=1\n"
    "duplicate \"closed\"";
  check_error_contains "unknown option" "R1 a 0 1k bogus=3\n"
    "unknown option \"bogus\"";
  (* the one PSD path is MFT: .psd has no engine= option *)
  check_error_contains "psd engine" "C1 a 0 1n\n.psd fmin=1 engine=mft\n"
    "deck.scn:2:13: .psd: unknown option \"engine\""

(* --- parity with the programmatic circuits --- *)

let sweep sys output freqs =
  let eng = Psd.prepare ~samples_per_phase:64 sys ~output in
  Psd.sweep eng freqs

let compile_deck path =
  match Deck.load_file path with
  | Error msg -> Alcotest.failf "%s: %s" path msg
  | Ok { Deck.elab = e; _ } ->
      let sys =
        Compile.compile ?temperature:e.Elab.temperature e.Elab.netlist
          e.Elab.clock
      in
      (sys, Pwl.observable sys e.Elab.output_node)

let check_parity name (sys_a, out_a) (sys_b, out_b) freqs =
  let pa = sweep sys_a out_a freqs and pb = sweep sys_b out_b freqs in
  Array.iteri
    (fun i f ->
      let a = pa.(i) and b = pb.(i) in
      let rel = abs_float (a -. b) /. (abs_float b +. 1e-300) in
      if rel > 1e-9 then
        Alcotest.failf "%s: at %g Hz deck gives %.17g, library gives %.17g \
                        (rel %.3g)" name f a b rel)
    freqs

let test_parity_switched_rc () =
  let b = SRC.build (SRC.with_ratio ~duty:0.5 ~t_over_rc:5.0 ()) in
  check_parity "switched-rc"
    (compile_deck (Filename.concat deck_dir "switched_rc.scn"))
    (b.SRC.sys, b.SRC.output)
    (Grid.linspace 0.0 16e3 9)

let test_parity_sc_integrator () =
  let b = INT.build INT.default in
  check_parity "sc_integrator"
    (compile_deck (Filename.concat deck_dir "sc_integrator.scn"))
    (b.INT.sys, b.INT.output)
    (Grid.linspace 100.0 16e3 7)

let test_parity_sc_ladder () =
  let b = LAD.build (LAD.with_parasitics LAD.default) in
  check_parity "sc_ladder"
    (compile_deck (Filename.concat deck_dir "sc_ladder.scn"))
    (b.LAD.sys, b.LAD.output)
    (Grid.logspace 100.0 40e3 9)

(* the shipped ladder deck must come through the strict ERC gate clean:
   no errors and no warnings *)
let test_erc_sc_ladder () =
  match Deck.load_file (Filename.concat deck_dir "sc_ladder.scn") with
  | Error msg -> Alcotest.fail msg
  | Ok { Deck.elab = e; _ } ->
      let fs = Check.check_elab e in
      List.iter
        (fun f -> Printf.printf "finding: %s\n" (Finding.to_string f))
        fs;
      Alcotest.(check int) "errors" 0 (Finding.errors fs);
      Alcotest.(check int) "warnings" 0 (Finding.warnings fs)

(* --- deck directives reach the elaborated form --- *)

let test_elab_directives () =
  let text =
    "S1 a 0 1k closed=0\nC1 a 0 1n\n.clock duty period=1u duty=0.5\n\
     .output a\n.temp 350\n.psd fmin=10 fmax=1k points=5 log\n\
     .contrib f=500\n"
  in
  match load text with
  | Error msg -> Alcotest.fail msg
  | Ok { Deck.elab = e; _ } -> (
      Alcotest.(check (option (float 0.0))) "temp" (Some 350.0) e.Elab.temperature;
      match List.map fst e.Elab.analyses with
      | [ Elab.Psd { fmin; fmax; points; log }; Elab.Contrib { f } ] ->
          Alcotest.(check (option (float 0.0))) "fmin" (Some 10.0) fmin;
          Alcotest.(check (option (float 0.0))) "fmax" (Some 1e3) fmax;
          Alcotest.(check (option int)) "points" (Some 5) points;
          Alcotest.(check bool) "log" true log;
          Alcotest.(check (option (float 0.0))) "f" (Some 500.0) f
      | _ -> Alcotest.fail "unexpected analyses")

let test_looks_like_path () =
  Alcotest.(check bool) "scn" true (Deck.looks_like_path "foo.scn");
  Alcotest.(check bool) "slash" true (Deck.looks_like_path "decks/foo");
  Alcotest.(check bool) "stdin" true (Deck.looks_like_path "-");
  Alcotest.(check bool) "name" false (Deck.looks_like_path "switched-rc")

(* --- canonical content hash (the serve cache key) --- *)

module Canon = Scnoise_lang.Canon

let hash_of text =
  match Deck.load_string ~name:"canon.scn" text with
  | Ok l -> Canon.hash l.Deck.elab l.Deck.ast
  | Error msg -> Alcotest.fail msg

let canon_base =
  ".param rs = 1k\n\
   .param c  = 1n\n\
   S1 vout 0 {rs} closed=0\n\
   C1 vout 0 {c}\n\
   .clock duty period={5 * rs * c} duty=0.5\n\
   .output vout\n\
   .end\n"

let test_canon_layout_invariant () =
  let base = hash_of canon_base in
  (* comments, blank lines and spacing do not matter *)
  let noisy =
    "* a comment\n\n.param rs = 1k   ; trailing note\n\
     .param c  =   1n\n\n\n\
     S1   vout 0   {rs}   closed=0\n\
     C1 vout 0 {c}\n\
     .clock duty period={5 * rs * c} duty=0.5\n\
     .output vout\n.end\n"
  in
  Alcotest.(check string) "comments+whitespace" base (hash_of noisy);
  (* parameter order and expression spelling do not matter once
     evaluated *)
  let reordered =
    ".param c  = 1n\n\
     .param rs = 1000\n\
     S1 vout 0 {rs} closed=0\n\
     C1 vout 0 {c * 1}\n\
     .clock duty period=5u duty=0.5\n\
     .output vout\n\
     .end\n"
  in
  Alcotest.(check string) "param order+spelling" base (hash_of reordered);
  (* analysis directives are request defaults, not circuit content *)
  let with_directive =
    canon_base |> String.split_on_char '\n'
    |> List.map (fun l ->
           if l = ".end" then ".psd fmin=0 fmax=16k points=33\n.end" else l)
    |> String.concat "\n"
  in
  Alcotest.(check string) "directives excluded" base (hash_of with_directive)

let test_canon_value_sensitive () =
  let base = hash_of canon_base in
  let changed_value =
    ".param rs = 1k\n.param c  = 2n\n\
     S1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
     .clock duty period={5 * rs * c} duty=0.5\n.output vout\n.end\n"
  in
  if hash_of changed_value = base then
    Alcotest.fail "changed capacitor value must change the hash";
  let changed_clock =
    ".param rs = 1k\n.param c  = 1n\n\
     S1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
     .clock duty period={5 * rs * c} duty=0.3\n.output vout\n.end\n"
  in
  if hash_of changed_clock = base then
    Alcotest.fail "changed duty cycle must change the hash";
  (* the canonical document leads with its format version *)
  match Deck.load_string ~name:"canon.scn" canon_base with
  | Error msg -> Alcotest.fail msg
  | Ok l ->
      let doc = Canon.canonical l.Deck.elab l.Deck.ast in
      if not (String.length doc > String.length Canon.version
              && String.sub doc 0 (String.length Canon.version)
                 = Canon.version)
      then Alcotest.fail "canonical document must start with the version"

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "si suffixes" `Quick test_lexer_suffixes;
          Alcotest.test_case "unit tails" `Quick test_lexer_unit_tails;
          Alcotest.test_case "comments+continuation" `Quick
            test_lexer_comments_and_continuation;
          Alcotest.test_case "error loc" `Quick test_lexer_error_loc;
          Alcotest.test_case "dangling continuation" `Quick
            test_lexer_dangling_continuation;
        ] );
      ( "parser",
        [
          Alcotest.test_case "negative literal" `Quick
            test_parser_negative_literal;
          Alcotest.test_case "numeric nodes" `Quick test_parser_numeric_nodes;
          Alcotest.test_case "switch phases" `Quick test_parser_switch_phases;
        ] );
      ( "printer",
        [
          Alcotest.test_case "kitchen sink" `Quick test_roundtrip_kitchen_sink;
          Alcotest.test_case "unit tails" `Quick test_roundtrip_units;
          Alcotest.test_case "shipped decks" `Quick
            test_roundtrip_shipped_decks;
          Alcotest.test_case "float_str" `Quick test_float_str_exact;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "lexical" `Quick test_diag_lexical;
          Alcotest.test_case "syntax" `Quick test_diag_syntax;
          Alcotest.test_case "unknown node" `Quick test_diag_unknown_node;
          Alcotest.test_case "bad value" `Quick test_diag_bad_value;
          Alcotest.test_case "missing directives" `Quick
            test_diag_missing_directives;
          Alcotest.test_case "ground output" `Quick test_diag_ground_output;
          Alcotest.test_case "duplicates" `Quick test_diag_duplicates;
        ] );
      ( "parity",
        [
          Alcotest.test_case "switched-rc" `Quick test_parity_switched_rc;
          Alcotest.test_case "sc integrator" `Quick test_parity_sc_integrator;
          Alcotest.test_case "sc ladder" `Quick test_parity_sc_ladder;
          Alcotest.test_case "sc ladder erc" `Quick test_erc_sc_ladder;
        ] );
      ( "elaborator",
        [
          Alcotest.test_case "directives" `Quick test_elab_directives;
          Alcotest.test_case "looks_like_path" `Quick test_looks_like_path;
        ] );
      ( "canon",
        [
          Alcotest.test_case "layout invariant" `Quick
            test_canon_layout_invariant;
          Alcotest.test_case "value sensitive" `Quick
            test_canon_value_sensitive;
        ] );
    ]
