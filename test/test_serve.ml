(* End-to-end tests of the analysis daemon: framing, the two-tier
   cache, concurrent clients, and — the load-bearing property — bit
   parity of served results against direct library runs at several job
   counts.  The server runs in a domain of this process listening on a
   throwaway Unix socket; clients are real sockets through the real
   framing code. *)

module Sp = Scnoise_serve.Protocol
module Sx = Scnoise_serve.Exec
module Front = Scnoise_serve.Front
module Sv = Scnoise_serve.Server
module Scl = Scnoise_serve.Client
module Json = Scnoise_obs.Json
module Deck = Scnoise_lang.Deck
module Elab = Scnoise_lang.Elab
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Contrib = Scnoise_core.Contrib
module Transfer = Scnoise_core.Transfer
module Grid = Scnoise_util.Grid
module Pool = Scnoise_par.Pool
module Obs = Scnoise_obs.Obs

(* --- fixtures --- *)

let deck_a =
  ".param rs = 1k\n.param c = 1n\n\
   S1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
   .clock duty period={5 * rs * c} duty=0.5\n.output vout\n.end\n"

(* [deck_a] with a non-default .psd directive *)
let deck_a_psd =
  ".param rs = 1k\n.param c = 1n\n\
   S1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
   .clock duty period={5 * rs * c} duty=0.5\n.output vout\n\
   .psd fmin=100 fmax=8k points=25 log\n.end\n"

(* electrically different twin (bigger capacitor) *)
let deck_b =
  ".param rs = 1k\n.param c = 2n\n\
   S1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
   .clock duty period={5 * rs * c} duty=0.5\n.output vout\n.end\n"

(* a third distinct circuit, for eviction pressure *)
let deck_c =
  ".param rs = 2k\n.param c = 1n\n\
   S1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
   .clock duty period={5 * rs * c} duty=0.5\n.output vout\n.end\n"

let deck_dir = Filename.concat ".." "examples/decks"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- direct (in-process) references, replicating the CLI's calls --- *)

let compiled_of deck =
  match Deck.load_string ~name:"direct" deck with
  | Error msg -> Alcotest.fail msg
  | Ok l -> (
      let e = l.Deck.elab in
      let sys =
        Compile.compile ?temperature:e.Elab.temperature e.Elab.netlist
          e.Elab.clock
      in
      match Pwl.observable sys e.Elab.output_node with
      | exception Not_found -> Alcotest.fail "output not observable"
      | output -> (sys, output))

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* the builtin defaults, as a request without parameters resolves them
   on a deck without directives *)
let default_spp = Front.spp None

let default_freqs = Front.psd_freqs (Front.psd [])

let direct_psd ~jobs deck freqs =
  let sys, output = compiled_of deck in
  with_pool jobs (fun pool ->
      let eng = Psd.prepare ~samples_per_phase:default_spp ~pool sys ~output in
      Psd.sweep ~pool eng freqs)

let check_bits what a b =
  if not (Oracle.bits_equal a b) then
    Alcotest.failf "%s: served values are not bit-identical" what

(* --- server harness --- *)

let tmp_sock () =
  let f = Filename.temp_file "scnoise-test" ".sock" in
  Sys.remove f;
  f

let with_server ?cache_entries ?max_frame f =
  let sock = tmp_sock () in
  let exec = Sx.create ?cache_entries () in
  let server =
    Sv.create ~exec
      (Sv.config ?max_frame ~handle_signals:false (Sv.Unix_path sock))
  in
  let d = Domain.spawn (fun () -> Sv.run server) in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then Sv.request_stop server;
      Domain.join d)
    (fun () -> f (Sv.Unix_path sock) (fun () -> stopped := true))

let connect addr =
  match Scl.connect addr with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let rpc conn json =
  match Scl.rpc conn json with
  | Ok j -> j
  | Error msg -> Alcotest.failf "rpc: %s" msg

let no_deck_req op = { Sp.rq_id = None; rq_deck = None; rq_deck_name = "<request>"; rq_op = op }

let psd_req ?id ?(deck = deck_a) ?fmin ?fmax ?points ?spp () =
  {
    Sp.rq_id = id;
    rq_deck = Some deck;
    rq_deck_name = "<test>";
    rq_op =
      Sp.Psd
        {
          p_fmin = fmin;
          p_fmax = fmax;
          p_points = points;
          p_log = None;
          p_spp = spp;
          p_engine = None;
        };
  }

let result_of what reply =
  if not (Sp.reply_ok reply) then
    Alcotest.failf "%s: error reply %s" what (Json.to_string reply);
  match Sp.reply_result reply with
  | Some r -> r
  | None -> Alcotest.failf "%s: reply has no result" what

let psd_values what reply =
  match Sp.float_array_field (result_of what reply) "psd_V2_per_Hz" with
  | Some v -> v
  | None -> Alcotest.failf "%s: no psd_V2_per_Hz" what

let num_of what j name =
  match Json.member name j with
  | Some (Json.Num x) -> x
  | _ -> Alcotest.failf "%s: missing number %S" what name

let expect_error what code reply =
  if Sp.reply_ok reply then
    Alcotest.failf "%s: expected %s error, got ok" what code;
  match Sp.reply_error_code reply with
  | Some c when c = code -> ()
  | c ->
      Alcotest.failf "%s: expected error code %S, got %S" what code
        (Option.value c ~default:"<none>")

(* --- tests --- *)

let test_ping_stats () =
  with_server (fun addr _ ->
      let conn = connect addr in
      let reply = rpc conn (Sp.request_to_json (no_deck_req Sp.Ping)) in
      ignore (result_of "ping" reply);
      let stats = result_of "stats" (rpc conn (Sp.request_to_json (no_deck_req Sp.Stats))) in
      ignore (num_of "stats" stats "uptime_s");
      (match Json.member "cache" stats with
      | Some _ -> ()
      | None -> Alcotest.fail "stats has no cache section");
      Scl.close conn)

let test_psd_parity_and_cache_levels () =
  with_server (fun addr _ ->
      let conn = connect addr in
      let send ?fmax () =
        rpc conn (Sp.request_to_json (psd_req ?fmax ()))
      in
      let r1 = send () in
      Alcotest.(check (option string)) "first is cold" (Some "cold")
        (Sp.reply_cache r1);
      let r2 = send () in
      Alcotest.(check (option string)) "repeat hits result tier"
        (Some "result") (Sp.reply_cache r2);
      (* a new frequency range reuses the prepared solver *)
      let r3 = send ~fmax:8e3 () in
      Alcotest.(check (option string)) "new range hits prepared tier"
        (Some "prepared") (Sp.reply_cache r3);
      (* bit parity at the CLI defaults *)
      let freqs = default_freqs in
      let served = psd_values "psd" r1 in
      check_bits "jobs=1" served (direct_psd ~jobs:1 deck_a freqs);
      check_bits "jobs=4" served (direct_psd ~jobs:4 deck_a freqs);
      check_bits "result-tier replay" served (psd_values "psd2" r2);
      let freqs8 = Front.psd_freqs (Front.psd ~fmax:8e3 []) in
      check_bits "prepared-tier range jobs=1" (psd_values "psd3" r3)
        (direct_psd ~jobs:1 deck_a freqs8);
      check_bits "prepared-tier range jobs=4" (psd_values "psd3" r3)
        (direct_psd ~jobs:4 deck_a freqs8);
      (* a request without parameters takes the deck's .psd directive *)
      let served =
        psd_values "directive deck"
          (rpc conn (Sp.request_to_json (psd_req ~deck:deck_a_psd ())))
      in
      let freqs = Grid.logspace 100.0 8e3 25 in
      check_bits "directive range jobs=1" served
        (direct_psd ~jobs:1 deck_a_psd freqs);
      check_bits "directive range jobs=4" served
        (direct_psd ~jobs:4 deck_a_psd freqs);
      Scl.close conn)

let test_variance_contrib_parity () =
  with_server (fun addr _ ->
      let conn = connect addr in
      let sys, output = compiled_of deck_a in
      (* variance: the CLI runs Covariance.variance on
         Covariance.sample at spp; the daemon reads what its engine
         recorded from the same unroll *)
      let vr =
        result_of "variance"
          (rpc conn
             (Sp.request_to_json
                {
                  Sp.rq_id = None;
                  rq_deck = Some deck_a;
                  rq_deck_name = "<test>";
                  rq_op = Sp.Variance { v_spp = None };
                }))
      in
      let v =
        Covariance.variance
          (Covariance.sample ~samples_per_phase:default_spp sys)
          output
      in
      check_bits "variance"
        [|
          num_of "variance" vr "boundary_V2";
          num_of "variance" vr "average_V2";
          num_of "variance" vr "closure_error";
        |]
        [|
          v.Covariance.boundary;
          v.Covariance.average;
          v.Covariance.closure_error;
        |];
      (* contrib at an explicit frequency *)
      let cr =
        result_of "contrib"
          (rpc conn
             (Sp.request_to_json
                {
                  Sp.rq_id = None;
                  rq_deck = Some deck_a;
                  rq_deck_name = "<test>";
                  rq_op = Sp.Contrib { c_f = Some 2e3; c_spp = None };
                }))
      in
      let direct =
        Contrib.per_source_psd ~samples_per_phase:default_spp sys ~output
          ~f:2e3
      in
      let served =
        match Json.member "sources" cr with
        | Some (Json.List l) ->
            List.map
              (fun s ->
                ( (match Json.member "name" s with
                  | Some (Json.Str n) -> n
                  | _ -> Alcotest.fail "contrib source has no name"),
                  num_of "contrib" s "psd_V2_per_Hz" ))
              l
        | _ -> Alcotest.fail "contrib reply has no sources"
      in
      Alcotest.(check int) "same source count" (List.length direct)
        (List.length served);
      List.iter2
        (fun (ln, lv) (rn, rv) ->
          Alcotest.(check string) "source label" ln rn;
          check_bits ("contrib " ^ ln) [| lv |] [| rv |])
        direct served;
      Scl.close conn)

let test_transfer_parity_and_inputs_error () =
  with_server (fun addr _ ->
      let conn = connect addr in
      (* switched-rc has no signal input: structured error *)
      expect_error "transfer w/o inputs" "inputs"
        (rpc conn
           (Sp.request_to_json
              {
                Sp.rq_id = None;
                rq_deck = Some deck_a;
                rq_deck_name = "<test>";
                rq_op =
                  Sp.Transfer
                    {
                      t_fmin = None;
                      t_fmax = None;
                      t_points = None;
                      t_k = None;
                      t_spp = None;
                    };
              }));
      (* the integrator deck has Vin: compare H0 bit for bit *)
      let deck = read_file (Filename.concat deck_dir "sc_integrator.scn") in
      let tr =
        result_of "transfer"
          (rpc conn
             (Sp.request_to_json
                {
                  Sp.rq_id = None;
                  rq_deck = Some deck;
                  rq_deck_name = "<test>";
                  rq_op =
                    Sp.Transfer
                      {
                        t_fmin = Some 10.0;
                        t_fmax = Some 1e3;
                        t_points = Some 5;
                        t_k = None;
                        t_spp = Some 48;
                      };
                }))
      in
      let sys, output = compiled_of deck in
      let eng = Transfer.prepare ~samples_per_phase:48 sys ~output in
      let freqs = Grid.linspace 10.0 1e3 5 in
      let h =
        Array.map (fun f -> Transfer.harmonics eng ~input:0 ~f ~k_range:0) freqs
      in
      let get name =
        match Sp.float_array_field tr name with
        | Some v -> v
        | None -> Alcotest.failf "transfer: no %s" name
      in
      check_bits "H0 re" (get "h0_re")
        (Array.map (fun h -> h.(0).Scnoise_linalg.Cx.re) h);
      check_bits "H0 im" (get "h0_im")
        (Array.map (fun h -> h.(0).Scnoise_linalg.Cx.im) h);
      Scl.close conn)

(* The integrator deck with its damping cap at 2.5 Ci: the sampled pole
   1 - Cd/Ci is -1.5, so there is no steady state.  Every op that needs
   one is refused by the Floquet check with the same code, also when
   every switch is noiseless and no noise reaches the unstable mode
   (ERC006 only warns): the steady-state solve alone would then find a
   zero covariance and answer ok. *)
let unstable_deck ~noiseless =
  read_file (Filename.concat deck_dir "sc_integrator.scn")
  |> String.split_on_char '\n'
  |> List.map (fun l ->
         if String.starts_with ~prefix:".param cd " l then ".param cd = 25p"
         else if noiseless && String.starts_with ~prefix:"S" l then
           l ^ " noiseless"
         else l)
  |> String.concat "\n"

let test_unstable_deck () =
  let req deck op =
    Sp.request_to_json
      { Sp.rq_id = None; rq_deck = Some deck; rq_deck_name = "<test>";
        rq_op = op }
  in
  with_server (fun addr _ ->
      let conn = connect addr in
      List.iter
        (fun noiseless ->
          let deck = unstable_deck ~noiseless in
          let what op = Printf.sprintf "%s (noiseless %b)" op noiseless in
          expect_error (what "psd") "unstable"
            (rpc conn (Sp.request_to_json (psd_req ~deck ~points:3 ())));
          expect_error (what "variance") "unstable"
            (rpc conn (req deck (Sp.Variance { v_spp = None })));
          expect_error (what "contrib") "unstable"
            (rpc conn (req deck (Sp.Contrib { c_f = Some 2e3; c_spp = None })));
          expect_error (what "transfer") "unstable"
            (rpc conn
               (req deck
                  (Sp.Transfer
                     {
                       t_fmin = None;
                       t_fmax = None;
                       t_points = Some 3;
                       t_k = None;
                       t_spp = None;
                     }))))
        [ false; true ];
      Scl.close conn)

(* The band-pass at f0 = 12 kHz, q = 8: the eigenvalue iteration on
   its monodromy does not converge, so stability is not shown.  The
   Floquet check counts that as not stable, and every op that needs a
   steady state answers [unstable]; an escaping [Eig.No_convergence]
   would answer [internal]. *)
let test_stability_not_shown () =
  let deck = read_file (Filename.concat "decks" "sc_bandpass_q8.scn") in
  let sys, _ = compiled_of deck in
  (match
     Scnoise_linalg.Eig.spectral_radius (Scnoise_circuit.Pwl.monodromy sys)
   with
  | r -> Alcotest.failf "the deck's Floquet radius converged (%g)" r
  | exception Scnoise_linalg.Eig.No_convergence _ -> ());
  let req op =
    Sp.request_to_json
      { Sp.rq_id = None; rq_deck = Some deck; rq_deck_name = "<test>";
        rq_op = op }
  in
  with_server (fun addr _ ->
      let conn = connect addr in
      expect_error "psd" "unstable"
        (rpc conn (Sp.request_to_json (psd_req ~deck ~points:3 ())));
      expect_error "variance" "unstable"
        (rpc conn (req (Sp.Variance { v_spp = None })));
      expect_error "contrib" "unstable"
        (rpc conn (req (Sp.Contrib { c_f = Some 2e3; c_spp = None })));
      expect_error "transfer" "unstable"
        (rpc conn
           (req
              (Sp.Transfer
                 { t_fmin = None; t_fmax = None; t_points = Some 3;
                   t_k = None; t_spp = None })));
      Scl.close conn)

(* One prepared engine per (circuit, spp): psd, variance and transfer
   at the default spp sample the periodic covariance once between them,
   and the transfer reply reuses the engine the psd request prepared. *)
let test_one_engine_per_circuit () =
  let exec = Sx.create () in
  let deck = read_file (Filename.concat deck_dir "sc_integrator.scn") in
  let send op =
    Sx.handle exec
      (Sp.Single
         { Sp.rq_id = None; rq_deck = Some deck; rq_deck_name = "<test>";
           rq_op = op })
  in
  let samples () = Obs.counter_value "covariance_samples" in
  let before = samples () in
  let psd =
    send
      (Sp.Psd
         { p_fmin = None; p_fmax = None; p_points = None; p_log = None;
           p_spp = None; p_engine = None })
  in
  ignore (result_of "psd" psd);
  ignore (result_of "variance" (send (Sp.Variance { v_spp = None })));
  let tr =
    send
      (Sp.Transfer
         { t_fmin = None; t_fmax = None; t_points = None; t_k = None;
           t_spp = None })
  in
  ignore (result_of "transfer" tr);
  Alcotest.(check int) "one covariance sample" 1 (samples () - before);
  Alcotest.(check (option string)) "transfer reuses the psd engine"
    (Some "prepared") (Sp.reply_cache tr)

(* deck with one warning finding (ERC007), so the check reply carries a
   located finding whose caret must be re-derived per request *)
let deck_warn =
  ".param unused = 1k\n\
   R1 vout 0 10k\nC1 vout 0 1n\n\
   .clock duty period=1u duty=0.5\n.output vout\n.end\n"

let check_req ?(deck = deck_warn) () =
  { Sp.rq_id = None; rq_deck = Some deck; rq_deck_name = "<test>";
    rq_op = Sp.Check }

let finding_locs what reply =
  match Json.member "findings" (result_of what reply) with
  | Some (Json.List l) ->
      List.map
        (fun f ->
          match Json.member "loc" f with
          | Some (Json.Str s) -> s
          | _ -> Alcotest.failf "%s: finding without loc" what)
        l
  | _ -> Alcotest.failf "%s: reply has no findings" what

let test_check_verdict_cache () =
  with_server (fun addr _ ->
      let conn = connect addr in
      let send deck = rpc conn (Sp.request_to_json (check_req ~deck ())) in
      let r1 = send deck_warn in
      Alcotest.(check (option string)) "first is cold" (Some "cold")
        (Sp.reply_cache r1);
      let r2 = send deck_warn in
      Alcotest.(check (option string)) "repeat hits result tier"
        (Some "result") (Sp.reply_cache r2);
      (* byte-identical findings cold vs warm *)
      Alcotest.(check string) "cold/warm byte parity"
        (Json.to_string (result_of "check cold" r1))
        (Json.to_string (result_of "check warm" r2));
      (match finding_locs "check cold" r1 with
      | [ loc ] -> Alcotest.(check string) "loc" "<test>:1:17" loc
      | locs ->
          Alcotest.failf "expected one finding, got %d" (List.length locs));
      (* a layout twin (same canonical hash, shifted lines) stays warm
         and gets its carets re-derived against its own layout *)
      let r3 = send ("* shifted\n* by two lines\n" ^ deck_warn) in
      Alcotest.(check (option string)) "layout twin stays warm"
        (Some "result") (Sp.reply_cache r3);
      (match finding_locs "check shifted" r3 with
      | [ loc ] -> Alcotest.(check string) "re-derived loc" "<test>:3:17" loc
      | locs ->
          Alcotest.failf "expected one finding, got %d" (List.length locs));
      (* the hits are visible in the tier-1 counters *)
      let stats =
        result_of "stats"
          (rpc conn (Sp.request_to_json (no_deck_req Sp.Stats)))
      in
      let results =
        match
          Option.bind (Json.member "cache" stats) (Json.member "results")
        with
        | Some r -> r
        | None -> Alcotest.fail "stats has no results cache"
      in
      Alcotest.(check bool) "nonzero tier-1 hit ratio" true
        (num_of "stats" results "hits" >= 2.0);
      Scl.close conn)

let test_batch_order_and_partial_failure () =
  with_server (fun addr _ ->
      let conn = connect addr in
      let reply =
        rpc conn
          (Sp.batch_to_json ~id:"b1"
             [
               psd_req ~id:"one" ();
               { (no_deck_req (Sp.Variance { v_spp = None })) with
                 rq_id = Some "broken" };
               psd_req ~id:"two" ~deck:deck_b ();
             ])
      in
      if not (Sp.reply_ok reply) then Alcotest.fail "batch envelope failed";
      (match Json.member "id" reply with
      | Some (Json.Str "b1") -> ()
      | _ -> Alcotest.fail "batch id not echoed");
      match Json.member "results" reply with
      | Some (Json.List [ r1; r2; r3 ]) ->
          ignore (result_of "batch[0]" r1);
          expect_error "batch[1] missing deck" "protocol" r2;
          (* sub-request replies keep their ids and their order *)
          (match (Json.member "id" r1, Json.member "id" r3) with
          | Some (Json.Str "one"), Some (Json.Str "two") -> ()
          | _ -> Alcotest.fail "sub-request ids not echoed in order");
          let freqs = default_freqs in
          check_bits "batch deck_b" (psd_values "batch[2]" r3)
            (direct_psd ~jobs:1 deck_b freqs)
      | _ -> Alcotest.fail "batch reply shape")

let test_malformed_and_oversized_frames () =
  with_server ~max_frame:4096 (fun addr _ ->
      (* valid frame, garbage JSON: error reply, connection survives *)
      let conn = connect addr in
      (match Scl.rpc_string conn "{not json" with
      | Ok s -> expect_error "garbage json" "protocol" (Json.of_string s)
      | Error msg -> Alcotest.failf "garbage json: %s" msg);
      (* unknown op in valid JSON: still a protocol error *)
      (match Scl.rpc_string conn "{\"op\": \"frobnicate\"}" with
      | Ok s -> expect_error "unknown op" "protocol" (Json.of_string s)
      | Error msg -> Alcotest.failf "unknown op: %s" msg);
      (* a psd request naming an engine is refused, not answered with
         MFT behind the client's back *)
      let psd = Sp.request_to_json (psd_req ~points:3 ()) in
      (match psd with
      | Json.Obj fields ->
          expect_error "psd engine" "protocol"
            (rpc conn (Json.Obj (fields @ [ ("engine", Json.Str "mft") ])))
      | _ -> Alcotest.fail "psd request is not an object");
      ignore (result_of "psd after engine" (rpc conn psd));
      (* the same connection still serves valid requests *)
      ignore
        (result_of "ping after garbage"
           (rpc conn (Sp.request_to_json (no_deck_req Sp.Ping))));
      Scl.close conn;
      (* a header past max-frame gets an oversized error, then close;
         the reply is read without writing more, since the daemon may
         already have closed its end *)
      let conn2 = connect addr in
      Scl.send_raw conn2 "\xff\xff\xff\xff";
      (match Scl.recv conn2 with
      | Ok s -> expect_error "oversized" "oversized" (Json.of_string s)
      | Error msg -> Alcotest.failf "oversized: %s" msg);
      Scl.close conn2;
      (* a deck that does not parse is a structured deck error *)
      let conn3 = connect addr in
      expect_error "bad deck" "deck"
        (rpc conn3 (Sp.request_to_json (psd_req ~deck:"Z1 what\n.end\n" ())));
      (* and the daemon is still alive for everyone *)
      ignore
        (result_of "ping after abuse"
           (rpc conn3 (Sp.request_to_json (no_deck_req Sp.Ping))));
      Scl.close conn3)

let test_eviction_under_small_cache () =
  with_server ~cache_entries:2 (fun addr _ ->
      let conn = connect addr in
      let sweep deck = rpc conn (Sp.request_to_json (psd_req ~deck ())) in
      ignore (result_of "a" (sweep deck_a));
      ignore (result_of "b" (sweep deck_b));
      ignore (result_of "c" (sweep deck_c));
      let stats =
        result_of "stats" (rpc conn (Sp.request_to_json (no_deck_req Sp.Stats)))
      in
      let results =
        match Option.bind (Json.member "cache" stats) (Json.member "results") with
        | Some r -> r
        | None -> Alcotest.fail "stats has no results cache"
      in
      let entries = int_of_float (num_of "stats" results "entries") in
      let evictions = int_of_float (num_of "stats" results "evictions") in
      Alcotest.(check bool) "capacity respected" true (entries <= 2);
      Alcotest.(check bool) "evictions happened" true (evictions >= 1);
      (* evicted work recomputes correctly *)
      let freqs = default_freqs in
      check_bits "deck_a after eviction" (psd_values "a2" (sweep deck_a))
        (direct_psd ~jobs:1 deck_a freqs);
      Scl.close conn)

let test_concurrent_clients_bit_identical () =
  with_server (fun addr _ ->
      let freqs = default_freqs in
      let expect_a = direct_psd ~jobs:4 deck_a freqs in
      let expect_b = direct_psd ~jobs:1 deck_b freqs in
      (* a mix of requests that will be cold, prepared and result-tier
         hits, from several domains at once *)
      let client k () =
        let conn = connect addr in
        let ok = ref true in
        for i = 0 to 7 do
          let deck, expect =
            if (k + i) mod 2 = 0 then (deck_a, expect_a) else (deck_b, expect_b)
          in
          let reply = rpc conn (Sp.request_to_json (psd_req ~deck ())) in
          if not (Oracle.bits_equal (psd_values "concurrent" reply) expect) then
            ok := false
        done;
        Scl.close conn;
        !ok
      in
      let domains = List.init 4 (fun k -> Domain.spawn (client k)) in
      let oks = List.map Domain.join domains in
      Alcotest.(check (list bool)) "all clients bit-identical"
        [ true; true; true; true ] oks)

(* --- the deck memo --- *)

(* The cache against a list model of LRU, most recent first: the same
   answers, hits, misses, evictions and entries at every capacity. *)
let test_cache_lru () =
  let module Cache = Scnoise_serve.Cache in
  let rng = Random.State.make [| 33 |] in
  for cap = 1 to 4 do
    let c = Cache.create ~name:"lru-model" ~cap in
    let model = ref [] and hits = ref 0 and misses = ref 0 in
    let evictions = ref 0 in
    for step = 1 to 2000 do
      let k = string_of_int (Random.State.int rng 6) in
      if Random.State.bool rng then begin
        let want = List.assoc_opt k !model in
        (match want with
        | Some v ->
            incr hits;
            model := (k, v) :: List.remove_assoc k !model
        | None -> incr misses);
        Alcotest.(check (option int)) "find" want (Cache.find c (Cache.key k))
      end
      else begin
        Cache.put c (Cache.key k) step;
        model := (k, step) :: List.remove_assoc k !model;
        if List.length !model > cap then begin
          model := List.filteri (fun i _ -> i < cap) !model;
          incr evictions
        end
      end
    done;
    let s = Cache.stats c in
    Alcotest.(check (list int)) (Printf.sprintf "counts at cap %d" cap)
      [ !hits; !misses; !evictions; List.length !model ]
      [ s.Cache.hits; s.Cache.misses; s.Cache.evictions; s.Cache.entries ]
  done

let single deck op =
  Sp.Single
    { Sp.rq_id = None; rq_deck = Some deck; rq_deck_name = "<test>"; rq_op = op }

let psd_op ?points () =
  Sp.Psd
    { p_fmin = None; p_fmax = None; p_points = points; p_log = None;
      p_spp = None; p_engine = None }

let transfer_op =
  Sp.Transfer
    { t_fmin = None; t_fmax = None; t_points = Some 5; t_k = Some 1;
      t_spp = None }

(* A reply with the fields that depend on the executor's history
   removed: the wall time and the cache tier that answered. *)
let rec strip = function
  | Json.Obj fs ->
      Json.Obj
        (List.filter_map
           (function
             | ("elapsed_s" | "cache"), _ -> None
             | "results", Json.List l -> Some ("results", Json.List (List.map strip l))
             | f -> Some f)
           fs)
  | j -> j

let tier exec name =
  let stats =
    match Sp.reply_result (Sx.handle exec (Sp.Single (no_deck_req Sp.Stats))) with
    | Some r -> r
    | None -> Alcotest.fail "stats has no result"
  in
  match Option.bind (Json.member "cache" stats) (Json.member name) with
  | Some j -> fun field -> int_of_float (num_of "stats" j field)
  | None -> Alcotest.failf "stats has no %s tier" name

(* One long-lived executor, small enough that every tier evicts, runs a
   scripted stream of repeated texts; each reply must equal, byte for
   byte, what a fresh executor answers for the same envelope.  The
   stream holds texts that share a hash but not their directives
   ([deck_a], [deck_a_psd] and a layout twin), so a memo keyed by the
   hash alone answers [deck_a_psd] with [deck_a]'s defaults. *)
let test_memo_parity () =
  let integrator = read_file (Filename.concat deck_dir "sc_integrator.scn") in
  let twin = "* a layout twin\n\n" ^ deck_a_psd in
  let variants =
    List.init 6 (fun i -> Printf.sprintf "* variant %d\n%s" i deck_b)
  in
  let script =
    [
      single deck_a (psd_op ());
      single deck_a_psd (psd_op ());
      single deck_a (psd_op ());
      single twin (psd_op ());
      single deck_a_psd (psd_op ~points:9 ());
      single deck_b (Sp.Variance { v_spp = None });
      single deck_c (Sp.Contrib { c_f = Some 2e3; c_spp = None });
      single deck_a transfer_op;
      single integrator transfer_op;
      single integrator (psd_op ~points:5 ());
      single deck_warn (psd_op ~points:5 ());
      single deck_warn Sp.Check;
      Sp.Batch
        ( Some "b",
          [
            psd_req ~id:"1" ~deck:deck_a_psd ();
            psd_req ~id:"2" ~deck:twin ~points:7 ();
            psd_req ~id:"3" ~deck:deck_a ();
          ] );
    ]
    @ List.concat_map
        (fun d -> [ single d (psd_op ~points:5 ()); single d (Sp.Variance { v_spp = None }) ])
        variants
    @ [
        single deck_a_psd (psd_op ());
        single deck_a (psd_op ());
        single integrator transfer_op;
        single twin (psd_op ());
        single deck_c (Sp.Contrib { c_f = Some 2e3; c_spp = None });
      ]
  in
  let exec = Sx.create ~cache_entries:4 () in
  List.iteri
    (fun i env ->
      let served = Json.to_string (strip (Sx.handle exec env)) in
      let fresh = Json.to_string (strip (Sx.handle (Sx.create ()) env)) in
      Alcotest.(check string) (Printf.sprintf "request %d" i) fresh served)
    script;
  let decks = tier exec "decks" in
  Alcotest.(check bool) "memo hits" true (decks "hits" > 0);
  Alcotest.(check bool) "memo evictions" true (decks "evictions" > 0);
  Alcotest.(check bool) "memo bounded" true (decks "entries" <= 4);
  Alcotest.(check bool) "prepared evictions" true
    (tier exec "prepared" "evictions" > 0)

(* A text enters the memo on its second answer and hits from its third
   request on; a text that answered once is forgotten after as many
   other texts as the memo holds. *)
let test_memo_admission () =
  let exec = Sx.create ~cache_entries:2 () in
  let send deck = ignore (result_of "psd" (Sx.handle exec (single deck (psd_op ~points:3 ())))) in
  let counts () =
    let decks = tier exec "decks" in
    [ decks "entries"; decks "hits"; decks "misses" ]
  in
  let check what want = Alcotest.(check (list int)) what want (counts ()) in
  send deck_a;
  check "first answer: not recorded" [ 0; 0; 1 ];
  send deck_a;
  check "second answer: recorded" [ 1; 0; 2 ];
  send deck_a;
  check "third request: a hit" [ 1; 1; 2 ];
  send deck_b;
  send deck_c;
  send ("* a layout twin\n" ^ deck_c);
  send deck_b;
  check "two texts pushed out deck_b's first answer" [ 1; 1; 6 ];
  send deck_b;
  check "deck_b recorded on its next answer" [ 2; 1; 7 ]

(* A text that fails (parse, ERC, stability) answers the same error on
   every request and never enters the memo. *)
let test_memo_refuses_failures () =
  let erc = read_file (Filename.concat "decks" "bad/floating_node.scn") in
  let exec = Sx.create () in
  List.iter
    (fun (what, deck, code) ->
      let reply () = Sx.handle exec (single deck (psd_op ~points:3 ())) in
      let first = reply () in
      expect_error what code first;
      Alcotest.(check string) (what ^ ": same reply")
        (Json.to_string (strip first))
        (Json.to_string (strip (reply ()))))
    [
      ("parse error", "Z1 what\n.end\n", "deck");
      ("erc error", erc, "erc");
      ("unstable", unstable_deck ~noiseless:false, "unstable");
    ];
  let decks = tier exec "decks" in
  Alcotest.(check int) "no memo entry" 0 (decks "entries");
  Alcotest.(check int) "no memo hit" 0 (decks "hits");
  Alcotest.(check int) "every request missed" 6 (decks "misses")

let test_shutdown_request_drains () =
  with_server (fun addr mark_stopped ->
      let conn = connect addr in
      ignore
        (result_of "shutdown"
           (rpc conn (Sp.request_to_json (no_deck_req Sp.Shutdown))));
      Scl.close conn;
      (* the daemon exits on its own: joining must not hang, and new
         connections must fail once it is gone *)
      mark_stopped ();
      let gone = ref false in
      (try
         for _ = 1 to 100 do
           if not !gone then
             match Scl.connect ~attempts:1 addr with
             | Error _ -> gone := true
             | Ok c ->
                 Scl.close c;
                 Unix.sleepf 0.05
         done
       with _ -> gone := true);
      Alcotest.(check bool) "daemon exited after shutdown" true !gone)

let () =
  (* The in-process daemon runs without its own signal handling
     ([handle_signals:false]), so ignore SIGPIPE as a daemon would: the
     server closes a connection right after an oversized-frame reply,
     and a client still writing into it must get EPIPE, not a fatal
     signal that kills the whole test binary. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping+stats" `Quick test_ping_stats;
          Alcotest.test_case "malformed+oversized frames" `Quick
            test_malformed_and_oversized_frames;
          Alcotest.test_case "batch order+partial failure" `Quick
            test_batch_order_and_partial_failure;
        ] );
      ( "parity",
        [
          Alcotest.test_case "psd parity + cache tiers" `Quick
            test_psd_parity_and_cache_levels;
          Alcotest.test_case "variance+contrib" `Quick
            test_variance_contrib_parity;
          Alcotest.test_case "check verdict cache" `Quick
            test_check_verdict_cache;
          Alcotest.test_case "transfer" `Quick
            test_transfer_parity_and_inputs_error;
          Alcotest.test_case "one engine per circuit" `Quick
            test_one_engine_per_circuit;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients_bit_identical;
          Alcotest.test_case "unstable deck" `Quick test_unstable_deck;
          Alcotest.test_case "stability not shown" `Quick
            test_stability_not_shown;
          Alcotest.test_case "deck memo parity" `Quick test_memo_parity;
          Alcotest.test_case "deck memo admission" `Quick test_memo_admission;
          Alcotest.test_case "deck memo refuses failures" `Quick
            test_memo_refuses_failures;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "eviction" `Quick test_eviction_under_small_cache;
          Alcotest.test_case "cache is LRU" `Quick test_cache_lru;
          Alcotest.test_case "shutdown drains" `Quick
            test_shutdown_request_drains;
        ] );
    ]
