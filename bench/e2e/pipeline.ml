(* One `scnoise psd DECK` call replayed from deck text to reply, with
   each public entry point timed from outside the library.

   A stage is one call (or a pair of calls) into the library.  Around
   each stage the recorder takes the wall time, the calling domain's
   minor words and the deltas of the library's always-on counters the
   stage's count metrics read; when [Obs] is enabled the stage also
   opens an [e2e.<stage>] span, so a traced run shows the same stages.
   The glue between stages neither locks nor allocates beyond a few
   words, so the stage times sum to almost all of the request's wall
   time (the [e2e.coverage] metric). *)

module Obs = Scnoise_obs.Obs
module Clock = Scnoise_obs.Clock
module Json = Scnoise_obs.Json
module Deck = Scnoise_lang.Deck
module Elab = Scnoise_lang.Elab
module Check = Scnoise_check.Check
module Finding = Scnoise_check.Finding
module Compile = Scnoise_circuit.Compile
module Pwl = Scnoise_circuit.Pwl
module Covariance = Scnoise_core.Covariance
module Psd = Scnoise_core.Psd
module Grid = Scnoise_util.Grid

let stages =
  [|
    "lang.parse";
    "lang.elaborate";
    "check.erc";
    "circuit.compile";
    "core.covariance";
    "core.bvp_prepare";
    "core.sweep";
    "obs.encode";
  |]

let n_stages = Array.length stages

let span_names = Array.map (fun s -> "e2e." ^ s) stages

let parse = 0
let elaborate = 1
let erc = 2
let compile = 3
let covariance = 4
let bvp_prepare = 5
let sweep = 6
let encode = 7

(* A count metric: a library counter read as a delta around one stage.
   Handles are resolved once (what [Obs.counter_value] looks up by name
   on every call), so reading them costs one atomic load. *)
type probe = { metric : string; stage : int; counter : Obs.counter }

let probes =
  Array.map
    (fun (metric, stage, name) -> { metric; stage; counter = Obs.counter name })
    [|
      ("lang.parse.tokens", parse, "lang_tokens");
      ("core.covariance.expm_calls", covariance, "expm_calls");
      ("core.covariance.lu_factorizations", covariance, "lu_factorizations");
      ("core.covariance.doubling_steps", covariance, "lyapunov.doubling_steps");
      ("core.covariance.kexpm_applies", covariance, "kexpm.applies");
      ("core.bvp_prepare.lu_factorizations", bvp_prepare, "lu_factorizations");
      ("core.sweep.bvp_solves", sweep, "bvp_solves");
      ("core.sweep.block_solves", sweep, "bvp_block_solves");
      ("core.sweep.unbatched_points", sweep, "psd.unbatched_points");
      ("core.sweep.clu_factorizations", sweep, "clu_factorizations");
      ("core.sweep.demod_refines", sweep, "ode_demod_refines");
    |]

(* What one request cost. *)
type record = {
  mutable wall_s : float;
  stage_s : float array;
  stage_words : float array;
  counts : int array;  (* per probe *)
  mutable values : (string * float) list;
      (* other per-request numbers; a key ending in ".s" is a time *)
}

let record () =
  {
    wall_s = 0.0;
    stage_s = Array.make n_stages 0.0;
    stage_words = Array.make n_stages 0.0;
    counts = Array.make (Array.length probes) 0;
    values = [];
  }

(* Rescale every time in [r] by [f] (Calib.factor). *)
let scale r f =
  r.wall_s <- r.wall_s *. f;
  Array.iteri (fun k t -> r.stage_s.(k) <- t *. f) r.stage_s;
  r.values <-
    List.map
      (fun (key, v) -> if String.ends_with ~suffix:".s" key then (key, v *. f) else (key, v))
      r.values

let stage r k f =
  Array.iteri
    (fun i p -> if p.stage = k then r.counts.(i) <- r.counts.(i) - Obs.value p.counter)
    probes;
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let v = Obs.with_span span_names.(k) f in
  let t1 = Clock.now () in
  r.stage_s.(k) <- r.stage_s.(k) +. (t1 -. t0);
  r.stage_words.(k) <- r.stage_words.(k) +. (Gc.minor_words () -. w0);
  Array.iteri
    (fun i p -> if p.stage = k then r.counts.(i) <- r.counts.(i) + Obs.value p.counter)
    probes;
  v

exception Rejected of string

(* The CLI's sweep resolution: the deck's [.psd] directive, else the
   builtin defaults. *)
let sweep_freqs (e : Elab.t) =
  let fmin, fmax, points, log =
    match
      List.find_map
        (function
          | Elab.Psd { fmin; fmax; points; log; _ }, _ ->
              Some (fmin, fmax, points, log)
          | _ -> None)
        e.Elab.analyses
    with
    | Some (fmin, fmax, points, log) ->
        ( Option.value fmin ~default:0.0,
          Option.value fmax ~default:16e3,
          Option.value points ~default:33,
          log )
    | None -> (0.0, 16e3, 33, false)
  in
  if log then Grid.logspace (max fmin 1e-3) fmax points
  else Grid.linspace fmin fmax points

type front = {
  loaded : Deck.loaded;
  sys : Pwl.t;
  output : Scnoise_linalg.Vec.t;
  freqs : float array;
}

(* Deck text to compiled system: parse, elaborate, errors-only ERC gate,
   compile + observable row — the CLI's [pick_deck]. *)
let front_end r ~name text =
  let source, ast =
    stage r parse (fun () ->
        match Deck.parse_string ~name text with
        | Ok x -> x
        | Error msg -> raise (Rejected msg))
  in
  let elab, freqs =
    stage r elaborate (fun () ->
        let e = Elab.elaborate ast in
        (e, sweep_freqs e))
  in
  let findings = stage r erc (fun () -> Check.check_elab elab) in
  if Finding.errors findings > 0 then
    raise
      (Rejected
         (String.concat "\n"
            (List.map (Finding.render ~source)
               (List.filter
                  (fun f -> f.Finding.severity = Finding.Error)
                  findings))));
  let sys, output =
    stage r compile (fun () ->
        let sys =
          Compile.compile ?temperature:elab.Elab.temperature elab.Elab.netlist
            elab.Elab.clock
        in
        (sys, Pwl.observable sys elab.Elab.output_node))
  in
  { loaded = { Deck.source; ast; elab }; sys; output; freqs }

let floats xs = Json.List (Array.to_list (Array.map (fun x -> Json.Num x) xs))

type reply = { freqs : float array; psd : float array; engine : Psd.engine }

(* The whole request: front end, covariance, BVP preparation, sweep and
   the encoded reply. *)
let psd ~spp r ~name text =
  let t0 = Clock.now () in
  let reply =
    Obs.with_span "e2e.request" (fun () ->
        let fe = front_end r ~name text in
        let cov =
          stage r covariance (fun () ->
              Covariance.sample ~samples_per_phase:spp fe.sys)
        in
        let engine =
          stage r bvp_prepare (fun () -> Psd.of_sampled cov ~output:fe.output)
        in
        let psd =
          stage r sweep (fun () -> Psd.sweep engine fe.freqs)
        in
        stage r encode (fun () ->
            ignore
              (Json.to_string
                 (Json.Obj
                    [ ("freqs", floats fe.freqs); ("psd_V2_per_Hz", floats psd) ])));
        { freqs = fe.freqs; psd; engine })
  in
  r.wall_s <- Clock.now () -. t0;
  let cov = Psd.covariance reply.engine in
  let npoints = Array.length reply.freqs in
  r.values <-
    [
      ("core.covariance.peak_rank", float_of_int cov.Covariance.peak_rank);
      ("core.covariance.ks_kb", float_of_int (Covariance.ks_bytes cov) /. 1e3);
      ( "core.sweep.batch_width",
        float_of_int (Psd.batch_width reply.engine ~npoints) );
      ("core.sweep.points", float_of_int npoints);
    ];
  reply
