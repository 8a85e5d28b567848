(* serve-mix: `Server.run` in one domain behind a Unix socket, one
   client connection from this domain, closed loop.

   The stream draws uniformly over four small decks, three layout twins
   of each (same canonical hash, so they share cache entries) and the
   deck's ops: psd over three ranges, variance, transfer (decks with a
   signal input) and check — 22 result keys against a 16-entry result
   tier, so hits, prepared-tier recomputes, cold check verdicts and
   evictions run side by side.  The first 22 requests are the priming
   pass, one per key. *)

module Json = Scnoise_obs.Json
module Obs = Scnoise_obs.Obs
module Clock = Scnoise_obs.Clock
module Sp = Scnoise_serve.Protocol
module Sx = Scnoise_serve.Exec
module Sv = Scnoise_serve.Server
module Scl = Scnoise_serve.Client
module Deck = Scnoise_lang.Deck
module Elab = Scnoise_lang.Elab
module Canon = Scnoise_lang.Canon
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Psd = Scnoise_core.Psd
module Grid = Scnoise_util.Grid

let cache_entries = 16

let layouts = 3

let ranges =
  [| (0.0, 16e3, 33, false); (100.0, 8e3, 25, false); (100.0, 16e3, 17, true) |]

type op = Sweep of int | Variance | Transfer | Check

let op_key = function
  | Sweep k -> Printf.sprintf "psd/%d" k
  | Variance -> "variance"
  | Transfer -> "transfer"
  | Check -> "check"

let decks ~dir =
  [|
    ("switched_rc", Decks.read ~dir "switched_rc.scn");
    ("sc_integrator", Decks.read ~dir "sc_integrator.scn");
    ("sc_ladder", Decks.ladder ~stages:4 ~points:17);
    ("sc_lowpass", Decks.read ~dir "sc_lowpass.scn");
  |]

let load text =
  match Deck.load_string ~name:"<e2e>" text with
  | Ok loaded -> loaded
  | Error msg -> failwith msg

(* Compiled system, output row, and whether the deck's [.psd] directive
   asks for a log sweep: the daemon ORs that into every psd request. *)
let compile text =
  let e = (load text).Deck.elab in
  let sys =
    Compile.compile ?temperature:e.Elab.temperature e.Elab.netlist e.Elab.clock
  in
  let log =
    List.exists (function Elab.Psd { log; _ }, _ -> log | _ -> false) e.Elab.analyses
  in
  (sys, Pwl.observable sys e.Elab.output_node, log)

let ops (sys : Pwl.t) =
  Array.of_list
    ([ Sweep 0; Sweep 1; Sweep 2; Variance ]
    @ (if Array.length sys.Pwl.inputs > 0 then [ Transfer ] else [])
    @ [ Check ])

let range_freqs ~deck_log (fmin, fmax, points, log) =
  if log || deck_log then Grid.logspace (max fmin 1e-3) fmax points
  else Grid.linspace fmin fmax points

let request_record text op =
  let rq_op =
    match op with
    | Sweep k ->
        let fmin, fmax, points, log = ranges.(k) in
        Sp.Psd
          {
            p_fmin = Some fmin;
            p_fmax = Some fmax;
            p_points = Some points;
            p_log = Some log;
            p_spp = None;
            p_engine = None;
          }
    | Variance -> Sp.Variance { v_spp = None }
    | Transfer ->
        Sp.Transfer
          { t_fmin = None; t_fmax = None; t_points = None; t_k = None; t_spp = None }
    | Check -> Sp.Check
  in
  { Sp.rq_id = None; rq_deck = Some text; rq_deck_name = "<e2e>"; rq_op }

let request text op = Sp.request_to_json (request_record text op)

let control op =
  Sp.request_to_json
    { Sp.rq_id = None; rq_deck = None; rq_deck_name = "<e2e>"; rq_op = op }

let num result name =
  match Json.member name result with
  | Some (Json.Num x) -> x
  | _ -> failwith ("reply lacks " ^ name)

(* The positive values a reply is judged by: PSD, variance, |H0|^2. *)
let values op result =
  let arr name =
    match Sp.float_array_field result name with
    | Some a -> a
    | None -> failwith ("reply lacks " ^ name)
  in
  match op with
  | Sweep _ -> arr "psd_V2_per_Hz"
  | Variance -> [| num result "average_V2"; num result "boundary_V2" |]
  | Transfer ->
      Array.map2 (fun re im -> (re *. re) +. (im *. im)) (arr "h0_re") (arr "h0_im")
  | Check -> [||]

let catalogue ~dir =
  let decks = decks ~dir in
  let compiled = Array.map (fun (_, text) -> compile text) decks in
  (decks, compiled, Array.map (fun (sys, _, _) -> ops sys) compiled)

let evictions conn =
  match Scl.rpc conn (control Sp.Stats) with
  | Ok j ->
      let cache = Option.get (Json.member "cache" (Option.get (Sp.reply_result j))) in
      List.fold_left
        (fun acc tier -> acc +. num (Option.get (Json.member tier cache)) "evictions")
        0.0 [ "results"; "prepared" ]
  | Error msg -> failwith msg

let sockets = ref 0

let open_ ~dir ~seed ~golden =
  let decks, compiled, ops = catalogue ~dir in
  (* the parity reference: direct in-process sweeps, the executor's spp *)
  let direct =
    Array.map
      (fun (sys, output, deck_log) ->
        let eng = Psd.prepare ~samples_per_phase:96 sys ~output in
        Array.map (fun r -> Psd.sweep eng (range_freqs ~deck_log r)) ranges)
      compiled
  in
  let texts =
    Array.mapi (fun d (_, text) -> Decks.twins ~seed ~salt:(100 + d) ~n:layouts text) decks
  in
  Array.iteri
    (fun d twins ->
      let h = Canon.hash_loaded (load (snd decks.(d))) in
      Array.iter
        (fun t ->
          if Canon.hash_loaded (load t) <> h then
            failwith (fst decks.(d) ^ ": layout twin changed the canonical hash"))
        twins)
    texts;
  let frames =
    Array.mapi (fun d twins -> Array.map (fun t -> Array.map (request t) ops.(d)) twins) texts
  in
  let out = Filename.concat dir "out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  incr sockets;
  let sock = Filename.concat out (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !sockets) in
  let server =
    Sv.create
      ~exec:(Sx.create ~cache_entries ())
      (Sv.config ~handle_signals:false (Sv.Unix_path sock))
  in
  let domain =
    Domain.spawn (fun () ->
        Sv.run server;
        Obs.drain_domain_spans ())
  in
  let conn =
    match Scl.connect (Sv.Unix_path sock) with
    | Ok c -> c
    | Error msg -> failwith ("cannot connect to the daemon: " ^ msg)
  in
  let first = Hashtbl.create 64 in
  let send d l k =
    let op = ops.(d).(k) in
    let r = Pipeline.record () in
    let t0 = Clock.now () in
    let reply = Obs.with_span "e2e.request" (fun () -> Scl.rpc conn frames.(d).(l).(k)) in
    r.Pipeline.wall_s <- Clock.now () -. t0;
    let j = match reply with Ok j -> j | Error msg -> failwith msg in
    if not (Sp.reply_ok j) then failwith ("error reply: " ^ Json.to_string j);
    let result = Option.get (Sp.reply_result j) in
    let elapsed = num j "elapsed_s" in
    let tier = Option.value (Sp.reply_cache j) ~default:"none" in
    r.Pipeline.values <-
      [ ("serve." ^ tier ^ ".s", elapsed); ("serve.transport.s", r.Pipeline.wall_s -. elapsed) ];
    let wrong = ref [] and err_db = ref 0.0 in
    let text = Json.to_string result in
    (match Hashtbl.find_opt first (d, l, k) with
    | None -> Hashtbl.add first (d, l, k) text
    | Some t ->
        if t <> text then wrong := "reply differs from the first reply for its key" :: !wrong);
    let v = values op result in
    (match op with
    | Sweep i when not (Session.bits_equal v direct.(d).(i)) ->
        wrong := "served PSD is not bit-identical to the direct sweep" :: !wrong
    | Check when num result "errors" <> 0.0 || Json.member "compile_ok" result <> Some (Json.Bool true) ->
        wrong := "check verdict is not clean" :: !wrong
    | _ -> ());
    (match golden with
    | Some g when op <> Check ->
        let e = Session.golden_error ~golden:(Golden.find g (fst decks.(d) ^ "/" ^ op_key op)) v in
        err_db := e;
        if e > Session.tolerance_db then
          wrong := Printf.sprintf "%s %s is %.3g dB off its golden" (fst decks.(d)) (op_key op) e :: !wrong
    | _ -> ());
    (r, !err_db, match !wrong with [] -> None | l -> Some (String.concat "; " l))
  in
  let keys =
    Array.concat (Array.to_list (Array.mapi (fun d o -> Array.mapi (fun k _ -> (d, k)) o) ops))
  in
  let rng = Random.State.make [| seed; 7 |] in
  (* evictions before the measured requests: the priming pass evicts too *)
  let seen = ref 0.0 in
  let run i =
    if i < Array.length keys then begin
      let d, k = keys.(i) in
      let outcome = send d 0 k in
      if i = Array.length keys - 1 then seen := evictions conn;
      outcome
    end
    else
      let d = Random.State.int rng (Array.length decks) in
      let l = Random.State.int rng layouts in
      send d l (Random.State.int rng (Array.length ops.(d)))
  in
  let layer records =
    let ms xs = 1e3 *. Metrics.median xs in
    let n = float_of_int (max 1 (List.length records)) in
    let get key = List.filter_map (fun r -> List.assoc_opt key r.Pipeline.values) records in
    let latency = List.map (fun r -> r.Pipeline.wall_s) records in
    let ev = evictions conn in
    let evicted = ev -. !seen in
    seen := ev;
    (* the daemon's front end, replayed here on every distinct deck text:
       the part of each request the server spends before the caches *)
    let before = Calib.measure () in
    let replay =
      List.concat_map
        (fun twins ->
          List.concat_map
            (fun t ->
              List.init 3 (fun _ ->
                  let r = Pipeline.record () in
                  let fe = Pipeline.front_end r ~name:"<e2e>" t in
                  let t0 = Clock.now () in
                  ignore (Canon.hash_loaded fe.Pipeline.loaded);
                  (r, Clock.now () -. t0)))
            (Array.to_list twins))
        (Array.to_list texts)
    in
    let f = Calib.factor [ before; Calib.measure () ] in
    let replay =
      List.map
        (fun (r, hash_s) ->
          Pipeline.scale r f;
          (r, hash_s *. f))
        replay
    in
    let p50 = Metrics.median latency in
    let front =
      List.concat_map
        (fun k ->
          let s = Pipeline.stages.(k) in
          let st = List.map (fun (r, _) -> r.Pipeline.stage_s.(k)) replay in
          [
            (s ^ ".ms", ms st);
            (s ^ ".share", if p50 > 0.0 then Metrics.median st /. p50 else 0.0);
            (s ^ ".alloc_kb", 8e-3 *. Metrics.median (List.map (fun (r, _) -> r.Pipeline.stage_words.(k)) replay));
          ])
        [ Pipeline.parse; Pipeline.elaborate; Pipeline.erc; Pipeline.compile ]
    in
    let transport = get "serve.transport.s" in
    front
    @ [
        ("lang.parse.tokens", Metrics.median (List.map (fun (r, _) -> float_of_int r.Pipeline.counts.(0)) replay));
        ("serve.canon_hash.ms", ms (List.map snd replay));
        ("serve.result.ms", ms (get "serve.result.s"));
        ("serve.prepared.ms", ms (get "serve.prepared.s"));
        ("serve.cold.ms", ms (get "serve.cold.s"));
        ("serve.transport.ms", ms transport);
        ("serve.result_share", float_of_int (List.length (get "serve.result.s")) /. n);
        ("serve.prepared_share", float_of_int (List.length (get "serve.prepared.s")) /. n);
        ("serve.cold_share", float_of_int (List.length (get "serve.cold.s")) /. n);
        ("serve.evictions", evicted);
        (* exec (the reply's elapsed_s) + transport = latency by construction *)
        ("e2e.coverage", 1.0);
        ("e2e.unattributed_ms", 0.0);
      ]
  in
  let close () =
    ignore (Scl.rpc conn (control Sp.Shutdown));
    Scl.close conn;
    Sv.request_stop server;
    Domain.join domain
  in
  { Session.run; layer; close; warmup = Array.length keys }

(* The reference values `e2e.exe golden` records: each key answered by
   an in-process executor (what the daemon returns, bit for bit). *)
let reference ~dir =
  let decks, _, ops = catalogue ~dir in
  let exec = Sx.create ~cache_entries () in
  List.concat
    (Array.to_list
       (Array.mapi
          (fun d (name, text) ->
            List.filter_map
              (fun op ->
                if op = Check then None
                else
                  let reply = Sx.handle exec (Sp.Single (request_record text op)) in
                  Some (name ^ "/" ^ op_key op, values op (Option.get (Sp.reply_result reply))))
              (Array.to_list ops.(d)))
          decks))
