(* The single-deck workloads: every request is a full `scnoise psd
   DECK` from deck text to encoded reply (Pipeline.psd), on one of
   three seeded layout twins of the workload's deck. *)

module Psd = Scnoise_core.Psd
module Deck = Scnoise_lang.Deck
module Const = Scnoise_util.Const
module LP = Scnoise_circuits.Sc_lowpass

type spec = {
  deck : string;
  spp : int;
  twin : bool;  (* deck twin of [Sc_lowpass.default]: compare bit for bit *)
  equipartition : float option;  (* exact output variance, V^2 *)
  golden : float array option;
}

(* The paper's SC low-pass through the deck path; the deck's sweep is
   384 linear points 100 Hz - 16 kHz, across the 4 kHz edge of the
   batched demodulated band ([points] shrinks it). *)
let lowpass ?points ~dir ~golden () =
  let deck = Decks.read ~dir "sc_lowpass.scn" in
  let deck =
    match points with
    | None -> deck
    | Some n -> Decks.with_psd deck (Printf.sprintf ".psd fmin=100 fmax=16k points=%d" n)
  in
  { deck; spp = 128; twin = true; equipartition = None; golden }

let ladder ~stages ~points ~golden =
  {
    deck = Decks.ladder ~stages ~points;
    spp = 48;
    twin = false;
    equipartition = Some (Const.kt () /. Decks.ladder_c);
    golden;
  }

(* [Psd.prepare] on the programmatic [Sc_lowpass.build], over the deck's
   sweep. *)
let twin_psd ~spp deck =
  let freqs =
    match Deck.load_string ~name:"<twin>" deck with
    | Ok loaded -> Pipeline.sweep_freqs loaded.Deck.elab
    | Error msg -> failwith msg
  in
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:spp b.LP.sys ~output:b.LP.output in
  Psd.sweep eng freqs

let open_ ~seed ~warmup spec =
  let texts = Decks.twins ~seed ~salt:1 ~n:3 spec.deck in
  let twin = if spec.twin then Some (twin_psd ~spp:spec.spp spec.deck) else None in
  let run i =
    let r = Pipeline.record () in
    let reply = Pipeline.psd ~spp:spec.spp r ~name:"<e2e>" texts.(i mod 3) in
    let wrong = ref [] and err_db = ref 0.0 in
    (match twin with
    | Some t when not (Session.bits_equal t reply.Pipeline.psd) ->
        wrong := "PSD is not bit-identical to the programmatic twin" :: !wrong
    | _ -> ());
    (match spec.golden with
    | Some g ->
        let e = Session.golden_error ~golden:g reply.Pipeline.psd in
        err_db := Float.max !err_db e;
        if e > Session.tolerance_db then
          wrong := Printf.sprintf "PSD is %.3g dB off its golden" e :: !wrong
    | None -> ());
    (match spec.equipartition with
    | Some expected ->
        let v = Psd.average_variance reply.Pipeline.engine in
        let rel = Float.abs ((v /. expected) -. 1.0) in
        err_db := Float.max !err_db (Metrics.db_error v expected);
        if not (rel <= 1e-9) then
          wrong :=
            Printf.sprintf "output variance is %.3g off kT/C (relative)" rel :: !wrong
    | None -> ());
    (r, !err_db, match !wrong with [] -> None | l -> Some (String.concat "; " l))
  in
  { Session.run; warmup; layer = (fun _ -> []); close = (fun () -> []) }

(* The reference values `e2e.exe golden` records. *)
let reference spec =
  let r = Pipeline.record () in
  [ ("psd", (Pipeline.psd ~spp:spec.spp r ~name:"<golden>" spec.deck).Pipeline.psd) ]
