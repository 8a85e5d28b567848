(* ERC (Scnoise_check) and numeric-sanitizer tests: each bad fixture
   deck trips exactly its rule at the expected file:line:col, every
   bundled circuit and example deck passes clean, and the
   SCNOISE_SANITIZE gate turns silent NaN propagation into a named
   error. *)

module Deck = Scnoise_lang.Deck
module Loc = Scnoise_lang.Loc
module Check = Scnoise_check.Check
module Finding = Scnoise_check.Finding
module Sanitize = Scnoise_linalg.Sanitize
module Lu = Scnoise_linalg.Lu
module Mat = Scnoise_linalg.Mat

let bad_dir = Filename.concat "decks" "bad"

let deck_dir = Filename.concat ".." "examples/decks"

let load path =
  match Deck.load_file path with
  | Ok l -> l
  | Error msg -> Alcotest.failf "%s: %s" path msg

let show fs = String.concat "\n" (List.map Finding.to_string fs)

(* --- bad fixtures: exact rule, severity and caret position --- *)

let expect_one file ~rule ~severity ~line ~col =
  let path = Filename.concat bad_dir file in
  let loaded = load path in
  match Check.check_elab loaded.Deck.elab with
  | [ f ] ->
      Alcotest.(check string) "rule" rule f.Finding.rule;
      Alcotest.(check string) "severity"
        (Finding.severity_label severity)
        (Finding.severity_label f.Finding.severity);
      (match f.Finding.loc with
      | None -> Alcotest.failf "%s: finding has no location" file
      | Some l ->
          Alcotest.(check string) "loc"
            (Printf.sprintf "%s:%d:%d" path line col)
            (Loc.to_string l));
      (* the rendered form carries the caret diagnostics *)
      let r = Finding.render ~source:loaded.Deck.source f in
      if not (String.length r > 0 && String.contains r '^') then
        Alcotest.failf "%s: expected caret in rendering:\n%s" file r
  | fs -> Alcotest.failf "%s: expected exactly one finding, got %d:\n%s" file
            (List.length fs) (show fs)

let test_floating_node () =
  expect_one "floating_node.scn" ~rule:"ERC001-floating-node"
    ~severity:Finding.Error ~line:5 ~col:4

let test_source_short () =
  expect_one "source_short.scn" ~rule:"ERC003-source-short"
    ~severity:Finding.Error ~line:3 ~col:1

let test_phase_range () =
  expect_one "phase_range.scn" ~rule:"ERC005-phase-out-of-range"
    ~severity:Finding.Error ~line:2 ~col:1

let test_noiseless () =
  expect_one "noiseless.scn" ~rule:"ERC006-noiseless"
    ~severity:Finding.Warning ~line:4 ~col:8

let test_unused_param () =
  expect_one "unused_param.scn" ~rule:"ERC007-unused-param"
    ~severity:Finding.Warning ~line:3 ~col:1

let test_structural_singular () =
  expect_one "structural_singular.scn" ~rule:"ERC011-structural-singular"
    ~severity:Finding.Error ~line:6 ~col:8

let test_dead_source () =
  expect_one "dead_source.scn" ~rule:"ERC012-dead-source"
    ~severity:Finding.Warning ~line:7 ~col:1

let test_isolated_output () =
  expect_one "isolated_output.scn" ~rule:"ERC013-output-isolated"
    ~severity:Finding.Warning ~line:8 ~col:4

let test_unit_mismatch () =
  expect_one "unit_mismatch.scn" ~rule:"ERC014-dimension-mismatch"
    ~severity:Finding.Error ~line:3 ~col:11

let test_band_low () =
  expect_one "band_low.scn" ~rule:"ERC015-band-capture"
    ~severity:Finding.Warning ~line:7 ~col:1

(* --- phase-aware passes: the semantic claims behind the rules --- *)

let lu_count () = Scnoise_obs.Obs.counter_value "lu_factorizations"

(* The admission path (ERC gate, then compile only when clean) must
   reject an ERC011 deck before ANY LU factorisation runs — the whole
   point of predicting singularity structurally.  Bypassing the gate
   reproduces the old behaviour: compile burns the factorisation and
   only post-hoc ERC010 notices. *)
let test_erc011_before_any_lu () =
  let loaded = load (Filename.concat bad_dir "structural_singular.scn") in
  let e = loaded.Deck.elab in
  let before = lu_count () in
  let fs = Check.check_elab e in
  (match
     List.filter (fun f -> f.Finding.rule = "ERC011-structural-singular") fs
   with
  | [ _ ] -> ()
  | _ -> Alcotest.failf "expected one ERC011, got:\n%s" (show fs));
  Alcotest.(check bool) "gate rejects" true (Finding.errors fs > 0);
  Alcotest.(check int) "rejected path runs zero LU factorisations" before
    (lu_count ());
  let module Elab = Scnoise_lang.Elab in
  let module Compile = Scnoise_circuit.Compile in
  let since = Check.ill_conditioned_count () in
  (match Compile.compile e.Elab.netlist e.Elab.clock with
  | exception Compile.Error _ -> ()
  | _ -> ());
  Alcotest.(check bool) "ungated compile burns LU" true (lu_count () > before);
  match Check.ill_conditioned ~since with
  | _ :: _ -> ()
  | [] -> Alcotest.fail "expected post-hoc ERC010 on the ungated path"

(* ERC012 is a theorem, not a heuristic: the compiled system is
   block-diagonal across the cut, so deleting the dead source changes
   the spectrum by exactly zero — bitwise. *)
let test_dead_source_psd_parity () =
  let module Netlist = Scnoise_circuit.Netlist in
  let module Clock = Scnoise_circuit.Clock in
  let module Compile = Scnoise_circuit.Compile in
  let module Pwl = Scnoise_circuit.Pwl in
  let module Psd = Scnoise_core.Psd in
  let build ~island_noisy =
    let nl = Netlist.create () in
    let out = Netlist.node nl "out" and iso = Netlist.node nl "iso" in
    Netlist.resistor ~name:"R1" nl out Netlist.ground 10e3;
    Netlist.capacitor ~name:"C1" nl out Netlist.ground 1e-12;
    Netlist.resistor ~name:"R2" ~noisy:island_noisy nl iso Netlist.ground
      10e3;
    Netlist.capacitor ~name:"C2" nl iso Netlist.ground 1e-12;
    nl
  in
  let clock = Clock.duty ~period:1e-6 ~duty:0.5 in
  let noisy = build ~island_noisy:true in
  (match
     List.filter
       (fun f -> f.Finding.rule = "ERC012-dead-source")
       (Check.check ~output:"out" noisy clock)
   with
  | [ f ] -> Alcotest.(check string) "subject" "R2" f.Finding.subject
  | fs -> Alcotest.failf "expected one ERC012, got:\n%s" (show fs));
  let psd nl =
    let sys = Compile.compile nl clock in
    let output = Pwl.observable sys "out" in
    let eng = Psd.prepare ~samples_per_phase:32 sys ~output in
    Psd.sweep eng [| 1e3; 10e3; 100e3 |]
  in
  let a = psd noisy and b = psd (build ~island_noisy:false) in
  Array.iteri
    (fun i va ->
      if Int64.bits_of_float va <> Int64.bits_of_float b.(i) then
        Alcotest.failf "deleting the dead source changed the psd at %g Hz: \
                        %h vs %h"
          [| 1e3; 10e3; 100e3 |].(i) va b.(i))
    a

(* --- structural rules straight on a programmatic netlist --- *)

let test_cap_island () =
  let module Netlist = Scnoise_circuit.Netlist in
  let module Clock = Scnoise_circuit.Clock in
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" in
  (* a is conductively grounded, but the {a, b} capacitor island still
     has no capacitive path to the reference: C_dd is singular. *)
  Netlist.resistor ~name:"R1" nl a Netlist.ground 1e3;
  Netlist.capacitor ~name:"C1" nl a b 1e-12;
  Netlist.resistor ~name:"R2" nl b Netlist.ground 1e3;
  let clock = Clock.duty ~period:1e-6 ~duty:0.5 in
  match Check.check nl clock with
  | [ f ] ->
      Alcotest.(check string) "rule" "ERC002-cap-island" f.Finding.rule;
      (* and the compiler indeed refuses this netlist *)
      let module Compile = Scnoise_circuit.Compile in
      (match Compile.compile nl clock with
      | exception Compile.Error _ -> ()
      | _ -> Alcotest.fail "expected Compile.Error for the cap island")
  | fs -> Alcotest.failf "expected one ERC002, got:\n%s" (show fs)

let test_degenerate_switch () =
  let module Netlist = Scnoise_circuit.Netlist in
  let module Clock = Scnoise_circuit.Clock in
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.switch ~name:"S1" ~closed_in:[ 0; 1 ] nl a Netlist.ground 1e3;
  Netlist.capacitor ~name:"C1" nl a Netlist.ground 1e-12;
  let clock = Clock.duty ~period:1e-6 ~duty:0.5 in
  let fs = Check.check nl clock in
  match
    List.filter (fun f -> f.Finding.rule = "ERC004-degenerate-switch") fs
  with
  | [ f ] -> Alcotest.(check string) "subject" "S1" f.Finding.subject
  | _ -> Alcotest.failf "expected one ERC004, got:\n%s" (show fs)

let test_dangling_node () =
  let module Netlist = Scnoise_circuit.Netlist in
  let module Clock = Scnoise_circuit.Clock in
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" and typo = Netlist.node nl "typo" in
  Netlist.resistor ~name:"R1" nl a Netlist.ground 1e3;
  Netlist.capacitor ~name:"C1" nl a Netlist.ground 1e-12;
  Netlist.resistor ~name:"R2" nl a typo 1e3;
  Netlist.capacitor ~name:"C2" nl typo Netlist.ground 1e-12;
  Netlist.resistor ~name:"R3" nl typo Netlist.ground 1e3;
  let nl2 = Netlist.create () in
  let a2 = Netlist.node nl2 "a" in
  let t2 = Netlist.node nl2 "typo" in
  Netlist.resistor ~name:"R1" nl2 a2 Netlist.ground 1e3;
  Netlist.capacitor ~name:"C1" nl2 a2 Netlist.ground 1e-12;
  Netlist.capacitor ~name:"C2" nl2 t2 a2 1e-12;
  let clock = Clock.duty ~period:1e-6 ~duty:0.5 in
  (* three references: clean *)
  (match Check.check ~output:"a" nl clock with
  | [] -> ()
  | fs -> Alcotest.failf "expected clean, got:\n%s" (show fs));
  (* exactly one reference: dangling *)
  match
    List.filter
      (fun f -> f.Finding.rule = "ERC008-dangling-node")
      (Check.check ~output:"a" nl2 clock)
  with
  | [ f ] -> Alcotest.(check string) "subject" "typo" f.Finding.subject
  | fs -> Alcotest.failf "expected one ERC008, got:\n%s" (show fs)

let test_nyquist () =
  let text =
    "S1 a 0 1k closed=0\nC1 a 0 1n\nR1 a 0 1e6\n\
     .clock duty period=1u duty=0.5\n.output a\n.psd fmin=0 fmax=10meg\n"
  in
  match Deck.load_string ~name:"nyquist.scn" text with
  | Error msg -> Alcotest.fail msg
  | Ok loaded -> (
      match
        List.filter
          (fun f -> f.Finding.rule = "ERC009-nyquist")
          (Check.check_elab loaded.Deck.elab)
      with
      | [ f ] ->
          Alcotest.(check string) "severity" "warning"
            (Finding.severity_label f.Finding.severity)
      | fs ->
          Alcotest.failf "expected one ERC009, got:\n%s" (show fs))

(* --- clean passes: no findings on anything we ship --- *)

let check_clean label fs =
  if fs <> [] then Alcotest.failf "%s: unexpected findings:\n%s" label (show fs)

let test_clean_example_decks () =
  List.iter
    (fun file ->
      let loaded = load (Filename.concat deck_dir file) in
      check_clean file (Check.check_elab loaded.Deck.elab))
    [ "sc_integrator.scn"; "switched_rc.scn" ]

let test_clean_bundled_circuits () =
  let module SRC = Scnoise_circuits.Switched_rc in
  let module LP = Scnoise_circuits.Sc_lowpass in
  let module BP = Scnoise_circuits.Sc_bandpass in
  let module INT = Scnoise_circuits.Sc_integrator in
  let module LAD = Scnoise_circuits.Sc_ladder in
  let module DS = Scnoise_circuits.Sc_delta_sigma in
  let run label ~netlist ~clock ~output_node =
    check_clean label (Check.check ~output:output_node netlist clock)
  in
  let b = SRC.build SRC.default in
  run "switched-rc" ~netlist:b.SRC.netlist ~clock:b.SRC.clock
    ~output_node:b.SRC.output_node;
  let b = LP.build LP.default in
  run "lowpass" ~netlist:b.LP.netlist ~clock:b.LP.clock
    ~output_node:b.LP.output_node;
  let b = LP.build LP.single_stage_variant in
  run "lowpass-single-stage" ~netlist:b.LP.netlist ~clock:b.LP.clock
    ~output_node:b.LP.output_node;
  let b = BP.build BP.default in
  run "bandpass" ~netlist:b.BP.netlist ~clock:b.BP.clock
    ~output_node:b.BP.output_node;
  let b = INT.build INT.default in
  run "integrator" ~netlist:b.INT.netlist ~clock:b.INT.clock
    ~output_node:b.INT.output_node;
  let b = LAD.build LAD.default in
  run "ladder" ~netlist:b.LAD.netlist ~clock:b.LAD.clock
    ~output_node:b.LAD.output_node;
  let b = DS.build DS.default in
  run "delta-sigma" ~netlist:b.DS.netlist ~clock:b.DS.clock
    ~output_node:b.DS.output_node

(* --- exit-code policy used by `scnoise check` --- *)

let test_strict_policy () =
  let loaded = load (Filename.concat bad_dir "unused_param.scn") in
  let fs = Check.check_elab loaded.Deck.elab in
  Alcotest.(check int) "errors" 0 (Finding.errors fs);
  Alcotest.(check int) "warnings" 1 (Finding.warnings fs);
  let loaded = load (Filename.concat bad_dir "floating_node.scn") in
  let fs = Check.check_elab loaded.Deck.elab in
  Alcotest.(check int) "errors" 1 (Finding.errors fs)

(* --- numeric sanitizer --- *)

let with_sanitizer b f =
  let before = Sanitize.enabled () in
  Sanitize.set_enabled b;
  Fun.protect ~finally:(fun () -> Sanitize.set_enabled before) f

let nan_matrix () =
  Mat.of_arrays [| [| 1.0; 0.0 |]; [| Float.nan; 1.0 |] |]

let test_sanitize_lu () =
  with_sanitizer true (fun () ->
      match Lu.factor (nan_matrix ()) with
      | exception Sanitize.Nonfinite msg ->
          if not (String.length msg >= 9 && String.sub msg 0 9 = "Lu.factor")
          then Alcotest.failf "unexpected sanitizer message: %s" msg
      | _ -> Alcotest.fail "expected Sanitize.Nonfinite from Lu.factor")

let test_sanitize_off_by_default () =
  with_sanitizer false (fun () ->
      (* without the gate the NaN sails through the factorisation *)
      match Lu.factor (nan_matrix ()) with
      | _ -> ()
      | exception Sanitize.Nonfinite msg ->
          Alcotest.failf "sanitizer fired while disabled: %s" msg)

let test_sanitize_expm () =
  let module Expm = Scnoise_linalg.Expm in
  with_sanitizer true (fun () ->
      match Expm.expm (nan_matrix ()) with
      | exception Sanitize.Nonfinite msg ->
          if not (String.length msg >= 9 && String.sub msg 0 9 = "Expm.expm")
          then Alcotest.failf "unexpected sanitizer message: %s" msg
      | _ -> Alcotest.fail "expected Sanitize.Nonfinite from Expm.expm")

let test_ill_conditioned_counter () =
  let before = Check.ill_conditioned_count () in
  ignore (Lu.factor (Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1e-15 |] |]));
  let fs = Check.ill_conditioned ~since:before in
  match fs with
  | [ f ] ->
      Alcotest.(check string) "rule" "ERC010-ill-conditioned" f.Finding.rule
  | _ -> Alcotest.failf "expected one ERC010, got:\n%s" (show fs)

let () =
  Alcotest.run "check"
    [
      ( "bad decks",
        [
          Alcotest.test_case "floating node" `Quick test_floating_node;
          Alcotest.test_case "source short" `Quick test_source_short;
          Alcotest.test_case "phase range" `Quick test_phase_range;
          Alcotest.test_case "noiseless" `Quick test_noiseless;
          Alcotest.test_case "unused param" `Quick test_unused_param;
          Alcotest.test_case "structural singular" `Quick
            test_structural_singular;
          Alcotest.test_case "dead source" `Quick test_dead_source;
          Alcotest.test_case "isolated output" `Quick test_isolated_output;
          Alcotest.test_case "unit mismatch" `Quick test_unit_mismatch;
          Alcotest.test_case "band low" `Quick test_band_low;
        ] );
      ( "phase-aware",
        [
          Alcotest.test_case "erc011 before any lu" `Quick
            test_erc011_before_any_lu;
          Alcotest.test_case "dead source psd parity" `Quick
            test_dead_source_psd_parity;
        ] );
      ( "structural",
        [
          Alcotest.test_case "cap island" `Quick test_cap_island;
          Alcotest.test_case "degenerate switch" `Quick
            test_degenerate_switch;
          Alcotest.test_case "dangling node" `Quick test_dangling_node;
          Alcotest.test_case "nyquist" `Quick test_nyquist;
        ] );
      ( "clean",
        [
          Alcotest.test_case "example decks" `Quick test_clean_example_decks;
          Alcotest.test_case "bundled circuits" `Quick
            test_clean_bundled_circuits;
        ] );
      ( "policy",
        [ Alcotest.test_case "strict counts" `Quick test_strict_policy ] );
      ( "sanitizer",
        [
          Alcotest.test_case "lu nan" `Quick test_sanitize_lu;
          Alcotest.test_case "off by default" `Quick
            test_sanitize_off_by_default;
          Alcotest.test_case "expm nan" `Quick test_sanitize_expm;
          Alcotest.test_case "ill-conditioned counter" `Quick
            test_ill_conditioned_counter;
        ] );
    ]
