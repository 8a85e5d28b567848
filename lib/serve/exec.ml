(* Request execution with the two-tier content-addressed cache and a
   memo of deck texts in front of it.

   The deck memo maps (deck name, exact deck text) to what a request
   needs before it reaches the tiers: the canonical hash and the text's
   own analysis directives.  A text is recorded only once it has loaded,
   passed ERC and answered an analysis twice, so a repeated text skips
   parse, elaboration, hashing and ERC from its third request on; ERC
   runs at most twice per distinct text, and a verdict is reused only
   for the bytes that earned it.

   Tier 1 maps (deck hash, op, fully-resolved parameters) to the reply
   [result] JSON: a repeated request costs one memo lookup and no
   numerics at all.

   Tier 2 maps the deck hash to the prepared solver state: the compiled
   PWL system, the observability vector, and — per samples-per-phase
   setting — one prepared engine (sampled periodic covariance,
   monodromy, per-phase discretisations, periodic-BVP solver) that
   serves psd, variance and transfer requests alike.  A warm request
   that misses tier 1 skips straight to the frequency loop, which is
   the part that the domain pool parallelises.

   Decks pass {!Front}'s gate and parameters resolve through {!Front},
   exactly as in the CLI, and every numeric path calls the library
   entry points the CLI calls, so served values are bit-identical to
   direct `scnoise` runs — the parity property `test_serve` and the
   e2e `serve-mix` workload assert.

   Replies never raise: failures become structured error replies with
   the stable codes documented in {!Protocol}. *)

module Json = Scnoise_obs.Json
module Obs = Scnoise_obs.Obs
module Clock = Scnoise_obs.Clock
module Deck = Scnoise_lang.Deck
module Canon = Scnoise_lang.Canon
module Elab = Scnoise_lang.Elab
module Check = Scnoise_check.Check
module Finding = Scnoise_check.Finding
module Pwl = Scnoise_circuit.Pwl
module Lyapunov = Scnoise_linalg.Lyapunov
module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Contrib = Scnoise_core.Contrib
module Transfer = Scnoise_core.Transfer
module Pool = Scnoise_par.Pool
module P = Protocol

let c_requests = Obs.counter "serve.requests"

let c_errors = Obs.counter "serve.errors"

let c_batches = Obs.counter "serve.batches"

let h_request = Obs.histogram "serve.request_s"

exception Err of string * string

let err code fmt = Printf.ksprintf (fun m -> raise (Err (code, m))) fmt

(* Tier-2 entry: everything frequency-independent about one circuit.
   The engine alist is tiny (one entry per distinct spp seen) and is
   only mutated under the executor mutex. *)
type prepared = {
  pr_circuit : Front.circuit;
  pr_stable : bool;
  mutable pr_engines : (int * Psd.engine) list;
}

(* Deck-memo entry: no AST, elaboration or netlist, only what the
   tiers are looked up by and what the request's defaults resolve from
   (the hash leaves directives out, so a layout twin may differ). *)
type deck_memo = { hash : string; directives : Elab.analysis list }

type t = {
  decks : deck_memo Cache.t;
  answered : int array;  (* memo-key hashes of texts that answered once *)
  mutable answered_next : int;
  results : Json.t Cache.t;
  solvers : prepared Cache.t;
  mutex : Mutex.t;
  started : float;
  mutable served : int;
  mutable failed : int;
  stop : bool Atomic.t;
}

let default_cache_entries = 32

let create ?(cache_entries = default_cache_entries) () =
  {
    decks = Cache.create ~name:"decks" ~cap:cache_entries;
    answered = Array.make cache_entries (-1);
    answered_next = 0;
    results = Cache.create ~name:"results" ~cap:cache_entries;
    solvers = Cache.create ~name:"prepared" ~cap:(max 1 (cache_entries / 4));
    mutex = Mutex.create ();
    started = Clock.now ();
    served = 0;
    failed = 0;
    stop = Atomic.make false;
  }

let stopping t = Atomic.get t.stop

let request_stop t = Atomic.set t.stop true

(* ---- deck pipeline ---- *)

(* a gate failure replies with its stage as the error code *)
let gated = function
  | Ok v -> v
  | Error e -> raise (Err (Front.code e, Front.message e))

(* The memo key: the exact bytes, so a verdict never passes to a twin *)
let memo_key ~name text = Cache.key (String.concat "\x00" [ name; text ])

(* Load a text and pass it through the errors-only ERC, as the CLI does *)
let load_checked ~name text =
  let loaded = gated (Front.load ~name text) in
  gated (Front.erc loaded);
  loaded

(* The request's hash and directives.  On a memo miss the loaded deck
   comes back too, for a tier-2 miss to compile. *)
let admit t ~name ~key text =
  match Cache.find t.decks key with
  | Some m -> (m, None)
  | None ->
      let loaded = load_checked ~name text in
      let m =
        { hash = Canon.hash_loaded loaded; directives = Front.directives loaded }
      in
      (m, Some loaded)

(* True when the text answered before and is still among the last
   [cache_entries] texts that answered once; otherwise it joins them,
   pushing out the oldest.  A text enters the memo only on such a
   second answer, so a stream of texts that never repeat leaves nothing
   on the major heap: recording each one cost such a stream 3–7 % of
   its request time, in the major collections its promoted entries
   paid for. *)
let answered_before t key =
  let h = Cache.key_hash key in
  let n = Array.length t.answered in
  let rec seen i = i < n && (t.answered.(i) = h || seen (i + 1)) in
  seen 0
  || begin
       t.answered.(t.answered_next) <- h;
       t.answered_next <- (t.answered_next + 1) mod n;
       false
     end

(* Fetch (or compile) the tier-2 entry.  After a memo hit the text is
   loaded again and passes the whole gate before it compiles. *)
let prepared_entry t ~name text hash loaded =
  let key = Cache.key hash in
  match Cache.find t.solvers key with
  | Some p -> p
  | None ->
      let loaded =
        match loaded with Some l -> l | None -> load_checked ~name text
      in
      let c = gated (Front.compile ~name loaded) in
      let p =
        {
          pr_circuit = c;
          pr_stable = Front.stable c.Front.sys;
          pr_engines = [];
        }
      in
      Cache.put t.solvers key p;
      p

(* The circuit's one prepared engine at [spp], and [true] when it
   already existed (the request skipped straight to the frequency
   loop). *)
let engine p spp =
  match List.assoc_opt spp p.pr_engines with
  | Some e -> (e, true)
  | None ->
      let c = p.pr_circuit in
      let e =
        Psd.prepare ~samples_per_phase:spp c.Front.sys ~output:c.Front.output
      in
      p.pr_engines <- (spp, e) :: p.pr_engines;
      (e, false)

let require_stable p = if not p.pr_stable then err "unstable" "%s" Front.unstable

let fstr x = Printf.sprintf "%.17g" x

let result_key hash op params = String.concat "\x00" (hash :: op :: params)

let floats xs = Json.List (Array.to_list (Array.map (fun x -> Json.Num x) xs))

let level ~prepared = if prepared then "prepared" else "cold"

(* ---- analysis ops ----

   Each handler returns [(result, cache_level)] and takes the parsed
   request parameters.  [cached] consults tier 1 first and stores the
   freshly computed result on a miss. *)

let cached t key compute =
  let key = Cache.key key in
  match Cache.find t.results key with
  | Some r -> (r, "result")
  | None ->
      let r, lvl = compute () in
      Cache.put t.results key r;
      (r, lvl)

let run_psd t p hash directives (q : P.psd_params) =
  let r =
    Front.psd ?fmin:q.P.p_fmin ?fmax:q.P.p_fmax ?points:q.P.p_points
      ?log:q.P.p_log ?spp:q.P.p_spp directives
  in
  let { Front.fmin; fmax; points; log; spp } = r in
  let key =
    result_key hash "psd"
      [ fstr fmin; fstr fmax; string_of_int points; string_of_bool log;
        string_of_int spp ]
  in
  cached t key (fun () ->
      require_stable p;
      let freqs = Front.psd_freqs r in
      let eng, prepared = engine p spp in
      let values = Psd.sweep eng freqs in
      ( Json.Obj
          [ ("freqs", floats freqs); ("psd_V2_per_Hz", floats values) ],
        level ~prepared ))

let run_variance t p hash spp =
  let spp = Front.spp spp in
  let key = result_key hash "variance" [ string_of_int spp ] in
  cached t key (fun () ->
      require_stable p;
      (* the engine's sampled covariance IS the CLI's
         [Covariance.sample ~samples_per_phase:spp sys] — same call,
         same defaults — and the engine recorded its variance from the
         same unroll [Covariance.variance] runs, so the reply is
         bit-identical without unrolling again *)
      let eng, prepared = engine p spp in
      let v = Psd.variance eng in
      ( Json.Obj
          [
            ("boundary_V2", Json.Num v.Covariance.boundary);
            ("average_V2", Json.Num v.Covariance.average);
            ("closure_error", Json.Num v.Covariance.closure_error);
          ],
        level ~prepared ))

let run_contrib t p hash directives f spp =
  let c = p.pr_circuit in
  let { Front.f; spp } = Front.contrib ?f ?spp directives in
  let key = result_key hash "contrib" [ fstr f; string_of_int spp ] in
  cached t key (fun () ->
      require_stable p;
      (* per-source PSDs restrict the noise inputs, so there is no
         shared solver to reuse: contrib is cold unless tier 1 hits *)
      let parts =
        Contrib.per_source_psd ~samples_per_phase:spp c.Front.sys
          ~output:c.Front.output ~f
      in
      let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 parts in
      ( Json.Obj
          [
            ("f_Hz", Json.Num f);
            ( "sources",
              Json.List
                (List.map
                   (fun (label, s) ->
                     Json.Obj
                       [
                         ("name", Json.Str label);
                         ("psd_V2_per_Hz", Json.Num s);
                       ])
                   parts) );
            ("total_V2_per_Hz", Json.Num total);
          ],
        "cold" ))

let run_transfer t p hash directives (q : P.transfer_params) =
  let r =
    Front.transfer ?fmin:q.P.t_fmin ?fmax:q.P.t_fmax ?points:q.P.t_points
      ?k:q.P.t_k ?spp:q.P.t_spp directives
  in
  let { Front.fmin; fmax; points; k = k_range; spp } = r in
  if Array.length p.pr_circuit.Front.sys.Pwl.inputs = 0 then
    err "inputs" "circuit has no signal inputs";
  let key =
    result_key hash "transfer"
      [ fstr fmin; fstr fmax; string_of_int points; string_of_int k_range;
        string_of_int spp ]
  in
  cached t key (fun () ->
      require_stable p;
      let eng, prepared = engine p spp in
      let tr = Transfer.of_psd eng in
      let freqs = Front.transfer_freqs r in
      let hs =
        Array.map (fun f -> Transfer.harmonics tr ~input:0 ~f ~k_range) freqs
      in
      let h0_re = Array.map (fun h -> h.(k_range).Scnoise_linalg.Cx.re) hs in
      let h0_im = Array.map (fun h -> h.(k_range).Scnoise_linalg.Cx.im) hs in
      let side =
        if k_range = 0 then []
        else
          [
            ( "harmonics",
              Json.List
                (Array.to_list
                   (Array.map
                      (fun h ->
                        Json.List
                          (List.init k_range (fun i ->
                               Json.Num
                                 (Scnoise_linalg.Cx.modulus
                                    h.(k_range + i + 1)))))
                      hs)) );
          ]
      in
      ( Json.Obj
          ([
             ("freqs", floats freqs);
             ("h0_re", floats h0_re);
             ("h0_im", floats h0_im);
           ]
          @ side),
        level ~prepared ))

(* `check` findings carry line:col positions that the canonical
   (layout-insensitive) hash deliberately erases, so tier 1 stores a
   position-free verdict — findings as (rule, severity, subject,
   message, anchor) plus a name-free compile outcome — and BOTH the
   cold and the warm path re-derive locations per request by resolving
   each anchor against the request's own elaboration
   ({!Check.resolve_anchor}).  Cold and warm replies are therefore
   byte-identical, and a warm hit from a differently-laid-out deck with
   the same canonical hash still carets the right cards. *)
let check_verdict t ~name (loaded : Deck.loaded) hash =
  let key = result_key hash "check" [] in
  cached t key (fun () ->
      let e = loaded.Deck.elab in
      let findings = Check.check_elab e in
      let compile_error =
        if Finding.errors findings > 0 then []
        else
          match Front.compile ~name loaded with
          | Ok _ -> []
          | Error (Front.Compile { message; _ } as err) ->
              [
                ("compile_error_kind", Json.Str (Front.code err));
                ("compile_error", Json.Str message);
              ]
          | Error err -> [ ("compile_error_kind", Json.Str (Front.code err)) ]
      in
      ( Json.Obj
          (( "findings",
             Json.List (List.map Finding.to_json_positionless findings) )
          :: compile_error),
        "cold" ))

let run_check t ~name text =
  let loaded = gated (Front.load ~name text) in
  let e = loaded.Deck.elab in
  let hash = Canon.hash_loaded loaded in
  let verdict, lvl = check_verdict t ~name loaded hash in
  let fields = match verdict with Json.Obj fs -> fs | _ -> [] in
  let findings =
    (match List.assoc_opt "findings" fields with
    | Some (Json.List l) -> List.filter_map Finding.of_json l
    | _ -> [])
    |> List.map (fun (f : Finding.t) ->
           {
             f with
             Finding.loc =
               Option.bind f.Finding.anchor (Check.resolve_anchor e);
           })
  in
  let nerr = Finding.errors findings in
  let compile_error =
    match
      ( List.assoc_opt "compile_error_kind" fields,
        List.assoc_opt "compile_error" fields )
    with
    | Some (Json.Str "output"), _ -> Some (Front.message (Front.Output loaded))
    | _, Some (Json.Str message) ->
        Some (Front.message (Front.Compile { deck = name; message }))
    | _ -> None
  in
  ( Json.Obj
      ([
         ("schema", Json.Str "scnoise.check/1");
         ("deck", Json.Str name);
         ("findings", Json.List (List.map Finding.to_json findings));
         ("errors", Json.Num (float_of_int nerr));
         ("warnings", Json.Num (float_of_int (Finding.warnings findings)));
         ("compile_ok", Json.Bool (nerr = 0 && compile_error = None));
       ]
      @
      match compile_error with
      | Some msg -> [ ("compile_error", Json.Str msg) ]
      | None -> []),
    lvl )

(* ---- stats ---- *)

let cache_stats_json (s : Cache.stats) =
  Json.Obj
    [
      ("entries", Json.Num (float_of_int s.Cache.entries));
      ("capacity", Json.Num (float_of_int s.Cache.capacity));
      ("hits", Json.Num (float_of_int s.Cache.hits));
      ("misses", Json.Num (float_of_int s.Cache.misses));
      ("evictions", Json.Num (float_of_int s.Cache.evictions));
    ]

let stats_json t =
  Json.Obj
    [
      ("uptime_s", Json.Num (Clock.now () -. t.started));
      ("served", Json.Num (float_of_int t.served));
      ("errors", Json.Num (float_of_int t.failed));
      ("jobs", Json.Num (float_of_int (Pool.default_jobs ())));
      ( "cache",
        Json.Obj
          [
            ("results", cache_stats_json (Cache.stats t.results));
            ("prepared", cache_stats_json (Cache.stats t.solvers));
            ("decks", cache_stats_json (Cache.stats t.decks));
          ] );
    ]

(* ---- dispatch ---- *)

let deck_of rq =
  match rq.P.rq_deck with
  | Some text -> text
  | None ->
      err "protocol" "op %S requires a \"deck\" field" (P.op_name rq.P.rq_op)

let run_request t rq =
  match rq.P.rq_op with
  | P.Ping -> (Json.Obj [ ("pong", Json.Bool true) ], None)
  | P.Stats -> (stats_json t, None)
  | P.Shutdown ->
      Atomic.set t.stop true;
      (Json.Obj [ ("stopping", Json.Bool true) ], None)
  | P.Check ->
      let result, lvl = run_check t ~name:rq.P.rq_deck_name (deck_of rq) in
      (result, Some lvl)
  | P.Psd _ | P.Variance _ | P.Contrib _ | P.Transfer _ ->
      let name = rq.P.rq_deck_name in
      let text = deck_of rq in
      let key = memo_key ~name text in
      let ({ hash; directives } as m), loaded = admit t ~name ~key text in
      let p = prepared_entry t ~name text hash loaded in
      let result, lvl =
        match rq.P.rq_op with
        | P.Psd q -> run_psd t p hash directives q
        | P.Variance { v_spp } -> run_variance t p hash v_spp
        | P.Contrib { c_f; c_spp } ->
            run_contrib t p hash directives c_f c_spp
        | P.Transfer q -> run_transfer t p hash directives q
        | _ -> assert false
      in
      (* record only a text that answered: a compile, stability or
         input failure is met again on every request *)
      if Option.is_some loaded && answered_before t key then
        Cache.put t.decks key m;
      (result, Some lvl)

let handle_request t rq =
  let t0 = Clock.now () in
  Obs.incr c_requests;
  t.served <- t.served + 1;
  match run_request t rq with
  | result, cache ->
      let elapsed_s = Clock.elapsed t0 in
      Obs.hist_record h_request elapsed_s;
      P.ok_reply ?id:rq.P.rq_id ~op:(P.op_name rq.P.rq_op) ?cache ~elapsed_s
        result
  | exception exn ->
      (* the daemon must survive anything a request throws *)
      Obs.incr c_errors;
      t.failed <- t.failed + 1;
      let code, message =
        match exn with
        | Err (code, message) -> (code, message)
        | Lyapunov.Not_stable why ->
            (* the steady-state solve's fallback to {!require_stable} *)
            ("unstable", Front.unstable ^ ": " ^ why)
        | Scnoise_core.Periodic_bvp.Reduction_failed why -> ("numeric", why)
        | exn -> ("internal", Printexc.to_string exn)
      in
      P.error_reply ?id:rq.P.rq_id ~code message

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Requests are executed one at a time (each one is internally parallel
   across the domain pool); the mutex makes direct multi-domain use of
   an executor — the test harness drives it without a server — behave
   like the daemon's serialised queue. *)
let handle t env =
  locked t (fun () ->
      match env with
      | P.Single rq -> handle_request t rq
      | P.Batch (id, rqs) ->
          Obs.incr c_batches;
          P.batch_reply ?id (List.map (handle_request t) rqs))

let handle_string t s =
  match P.envelope_of_string s with
  | Error msg -> P.error_reply ~code:"protocol" msg
  | Ok env -> handle t env
