(* The front door shared by `scnoise` and the daemon.

   The deck gate takes a loaded deck through the errors-only ERC,
   compilation and the output's observability; the resolvers turn the
   optional parameters of an analysis (a CLI flag or a request field)
   into the values it runs with: the given value beats the deck's
   analysis directive beats the builtin default.  Both front ends call
   only these, so a served reply and a CLI run of the same deck and
   parameters reach the same library calls with the same arguments. *)

module Vec = Scnoise_linalg.Vec
module Pwl = Scnoise_circuit.Pwl
module Compile = Scnoise_circuit.Compile
module Deck = Scnoise_lang.Deck
module Elab = Scnoise_lang.Elab
module Diag = Scnoise_lang.Diag
module Check = Scnoise_check.Check
module Finding = Scnoise_check.Finding
module Covariance = Scnoise_core.Covariance
module Grid = Scnoise_util.Grid

(* ---- deck gate ---- *)

type circuit = { sys : Pwl.t; output : Vec.t }

type error =
  | Deck of string
  | Erc of string
  | Compile of { deck : string; message : string }
  | Output of Deck.loaded

let code = function
  | Deck _ -> "deck"
  | Erc _ -> "erc"
  | Compile _ -> "compile"
  | Output _ -> "output"

let message = function
  | Deck m | Erc m -> m
  | Compile { deck; message } -> deck ^ ": " ^ message
  | Output l ->
      let e = l.Deck.elab in
      Diag.render l.Deck.source e.Elab.output_loc
        (Printf.sprintf
           "output node %S is not an observable state (it is resistive or \
            source-driven)"
           e.Elab.output_node)

let fatal findings =
  List.filter (fun f -> f.Finding.severity = Finding.Error) findings

let load ~name text =
  Result.map_error (fun m -> Deck m) (Deck.load_string ~name text)

let load_file path = Result.map_error (fun m -> Deck m) (Deck.load_file path)

(* Warnings stay quiet on the analysis path (`scnoise check` shows
   them); errors stop it before any matrix is assembled. *)
let erc (l : Deck.loaded) =
  match fatal (Check.check_elab l.Deck.elab) with
  | [] -> Ok ()
  | errs ->
      Error
        (Erc
           (String.concat "\n"
              (List.map (Finding.render ~source:l.Deck.source) errs)))

let compile ~name (l : Deck.loaded) =
  let e = l.Deck.elab in
  match
    Compile.compile ?temperature:e.Elab.temperature e.Elab.netlist
      e.Elab.clock
  with
  | exception Compile.Error message -> Error (Compile { deck = name; message })
  | sys -> (
      match Pwl.observable sys e.Elab.output_node with
      | exception Not_found -> Error (Output l)
      | output ->
          Ok { sys; output })

let gate ~name l = Result.bind (erc l) (fun () -> compile ~name l)

let directives (l : Deck.loaded) = List.map fst l.Deck.elab.Elab.analyses

(* ---- stability ---- *)

let stable sys = Pwl.is_stable sys

let unstable = "circuit is not stable; no steady-state noise"

(* ---- request resolution ---- *)

type psd = {
  fmin : float;
  fmax : float;
  points : int;
  log : bool;
  spp : int;
}

type transfer = { fmin : float; fmax : float; points : int; k : int; spp : int }

type contrib = { f : float; spp : int }

let default_spp = Covariance.default_samples_per_phase

let psd_defaults : psd =
  {
    fmin = 0.0;
    fmax = 16e3;
    points = 33;
    log = false;
    spp = default_spp;
  }

let transfer_defaults : transfer =
  { fmin = 1.0; fmax = 2e3; points = 21; k = 0; spp = default_spp }

let contrib_defaults : contrib = { f = 1e3; spp = default_spp }

let pick given directive default =
  match given with Some v -> v | None -> Option.value directive ~default

let spp given = Option.value given ~default:default_spp

let psd ?fmin ?fmax ?points ?log ?spp:s directives : psd =
  let d = psd_defaults in
  let dfmin, dfmax, dpoints, dlog =
    match
      List.find_map
        (function
          | Elab.Psd { fmin; fmax; points; log } ->
              Some (fmin, fmax, points, log)
          | _ -> None)
        directives
    with
    | Some found -> found
    | None -> (None, None, None, false)
  in
  {
    fmin = pick fmin dfmin d.fmin;
    fmax = pick fmax dfmax d.fmax;
    points = pick points dpoints d.points;
    (* a log directive cannot be switched off, only on *)
    log = Option.value log ~default:d.log || dlog;
    spp = spp s;
  }

let psd_freqs (r : psd) =
  if r.log then Grid.logspace (max r.fmin 1e-3) r.fmax r.points
  else Grid.linspace r.fmin r.fmax r.points

let transfer ?fmin ?fmax ?points ?k ?spp:s directives : transfer =
  let d = transfer_defaults in
  let dfmin, dfmax, dpoints, dk =
    match
      List.find_map
        (function
          | Elab.Transfer { fmin; fmax; points; k } ->
              Some (fmin, fmax, points, k)
          | _ -> None)
        directives
    with
    | Some found -> found
    | None -> (None, None, None, None)
  in
  {
    fmin = pick fmin dfmin d.fmin;
    fmax = pick fmax dfmax d.fmax;
    points = pick points dpoints d.points;
    k = pick k dk d.k;
    spp = spp s;
  }

let transfer_freqs (r : transfer) = Grid.linspace r.fmin r.fmax r.points

let contrib ?f ?spp:s directives : contrib =
  let df =
    List.find_map (function Elab.Contrib { f } -> f | _ -> None) directives
  in
  { f = pick f df contrib_defaults.f; spp = spp s }
