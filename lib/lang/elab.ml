open Ast
module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock

type analysis =
  | Psd of {
      fmin : float option;
      fmax : float option;
      points : int option;
      log : bool;
    }
  | Variance
  | Contrib of { f : float option }
  | Transfer of {
      fmin : float option;
      fmax : float option;
      points : int option;
      k : int option;
    }

type slot = { slot_what : string; slot_dim : string; slot_expr : Ast.expr }

type t = {
  netlist : Netlist.t;
  clock : Clock.t;
  output_node : string;
  output_loc : Loc.t;
  temperature : float option;
  analyses : (analysis * Loc.t) list;
  params : (string * float) list;
  unused_params : (string * Loc.t) list;
  element_locs : (string * Loc.t) list;
  node_locs : (string * Loc.t) list;
  value_slots : slot list;
  param_exprs : (string * Ast.expr) list;
}

(* ---- expression evaluation ---- *)

let constants = [ ("pi", Float.pi) ]

(* [env] maps a parameter to its value and a "was referenced" cell; the
   latter feeds the ERC unused-parameter rule. *)
let rec eval env x =
  match x.e with
  | Num (v, _) -> v
  | Ref name -> (
      match Hashtbl.find_opt env name with
      | Some (v, used) ->
          used := true;
          v
      | None -> (
          match List.assoc_opt (String.lowercase_ascii name) constants with
          | Some v -> v
          | None -> Diag.error x.eloc "unknown parameter %S" name))
  | Neg a -> -.eval env a
  | Bin (op, a, b) -> (
      let va = eval env a and vb = eval env b in
      match op with
      | Add -> va +. vb
      | Sub -> va -. vb
      | Mul -> va *. vb
      | Div ->
          if vb = 0.0 then Diag.error x.eloc "division by zero";
          va /. vb
      | Pow -> Float.pow va vb)
  | Call (f, args) -> (
      let vs = List.map (eval env) args in
      let arity n k =
        if List.length vs <> n then
          Diag.error x.eloc "%s expects %d argument(s), got %d" f n
            (List.length vs)
        else k
      in
      match (f, vs) with
      | "sqrt", [ v ] -> sqrt v
      | "exp", [ v ] -> exp v
      | "log", [ v ] -> log v
      | "log10", [ v ] -> log10 v
      | "abs", [ v ] -> abs_float v
      | "min", [ a; b ] -> Float.min a b
      | "max", [ a; b ] -> Float.max a b
      | "pow", [ a; b ] -> Float.pow a b
      | ("sqrt" | "exp" | "log" | "log10" | "abs"), _ -> arity 1 nan
      | ("min" | "max" | "pow"), _ -> arity 2 nan
      | _ -> Diag.error x.eloc "unknown function %S" f)

(* Re-evaluate an expression of an already-elaborated deck against its
   final parameter environment (no used-tracking, no duplicates — the
   elaborator rejects redefinition).  Powers the canonical printer. *)
let eval_const ~params x =
  let env = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace env k (v, ref true)) params;
  eval env x

let eval_int env x what =
  let v = eval env x in
  let i = int_of_float v in
  if float_of_int i <> v then
    Diag.error x.eloc "%s must be an integer, got %s" what
      (Printf.sprintf "%g" v);
  i

(* ---- waveforms ---- *)

let eval_wave env loc = function
  | Dc v ->
      let x = eval env v in
      fun _ -> x
  | Sin { offset; amp; freq; phase_deg } ->
      let o = eval env offset and a = eval env amp and f = eval env freq in
      let ph =
        match phase_deg with
        | Some p -> eval env p *. Float.pi /. 180.0
        | None -> 0.0
      in
      fun t -> o +. (a *. sin ((2.0 *. Float.pi *. f *. t) +. ph))
  | Pwl pts ->
      let pts = List.map (fun (t, v) -> (eval env t, eval env v)) pts in
      let rec check = function
        | (t1, _) :: ((t2, _) :: _ as rest) ->
            if t2 <= t1 then
              Diag.error loc "pwl breakpoint times must be strictly increasing";
            check rest
        | _ -> ()
      in
      check pts;
      let arr = Array.of_list pts in
      let n = Array.length arr in
      fun t ->
        if t <= fst arr.(0) then snd arr.(0)
        else if t >= fst arr.(n - 1) then snd arr.(n - 1)
        else begin
          (* n >= 2 here; find the bracketing segment *)
          let i = ref 0 in
          while fst arr.(!i + 1) < t do incr i done;
          let t1, v1 = arr.(!i) and t2, v2 = arr.(!i + 1) in
          v1 +. ((v2 -. v1) *. (t -. t1) /. (t2 -. t1))
        end

(* ---- dimension-annotated value slots ----

   Every element-card value, clock/temp directive, and analysis
   parameter has an expected physical dimension fixed by its syntactic
   position.  We expose the raw expression trees tagged with those
   dimensions so the checker's units-inference pass (ERC014) can verify
   annotated literals without re-parsing the deck.  The [slot_dim]
   grammar is the one {!Scnoise_check} parses: unit atoms possibly
   squared ("A2"), an optional "/" divisor, "1" for dimensionless. *)

let slot what dim e = { slot_what = what; slot_dim = dim; slot_expr = e }

let opt_slot what dim = function Some e -> [ slot what dim e ] | None -> []

let wave_slots what dim = function
  | Dc v -> [ slot (what ^ " dc") dim v ]
  | Sin { offset; amp; freq; phase_deg } ->
      slot (what ^ " offset") dim offset
      :: slot (what ^ " amp") dim amp
      :: slot (what ^ " freq") "Hz" freq
      :: opt_slot (what ^ " phase") "1" phase_deg
  | Pwl pts ->
      List.concat_map
        (fun (t, v) ->
          [ slot (what ^ " pwl time") "s" t; slot (what ^ " pwl value") dim v ])
        pts

let card_slots = function
  | Resistor { name; r; _ } -> [ slot (name ^ " r") "ohm" r ]
  | Capacitor { name; c; _ } -> [ slot (name ^ " c") "F" c ]
  | Switch { name; r_on; _ } -> [ slot (name ^ " r_on") "ohm" r_on ]
  | Vsource { name; wave; _ } -> wave_slots name "V" wave
  | Isource { name; wave; _ } -> wave_slots name "A" wave
  | Noise { name; kind = White { psd }; _ } ->
      [ slot (name ^ " psd") "A2/Hz" psd ]
  | Noise { name; kind = Flicker f; _ } ->
      slot (name ^ " psd1hz") "A2/Hz" f.psd_1hz
      :: slot (name ^ " fmin") "Hz" f.fmin
      :: slot (name ^ " fmax") "Hz" f.fmax
      :: opt_slot (name ^ " spd") "1" f.sections_per_decade
  | Opamp_integrator { name; ugf; noise; _ } ->
      slot (name ^ " ugf") "Hz" ugf :: opt_slot (name ^ " noise") "V2/Hz" noise
  | Opamp_single_stage { name; gm; rout; cout; noise; _ } ->
      slot (name ^ " gm") "A/V" gm
      :: slot (name ^ " rout") "ohm" rout
      :: slot (name ^ " cout") "F" cout
      :: opt_slot (name ^ " noise") "V2/Hz" noise

let clock_slots = function
  | Clock_duty { period; duty } ->
      [ slot ".clock period" "s" period; slot ".clock duty" "1" duty ]
  | Clock_two_phase { period; gap } ->
      slot ".clock period" "s" period :: opt_slot ".clock gap" "1" gap
  | Clock_phases ds -> List.map (fun d -> slot ".clock phase" "s" d) ds

let analysis_slots = function
  | Ast.Psd { fmin; fmax; points; _ } ->
      opt_slot ".psd fmin" "Hz" fmin
      @ opt_slot ".psd fmax" "Hz" fmax
      @ opt_slot ".psd points" "1" points
  | Ast.Variance -> []
  | Ast.Contrib { f } -> opt_slot ".contrib f" "Hz" f
  | Ast.Transfer { fmin; fmax; points; k } ->
      opt_slot ".transfer fmin" "Hz" fmin
      @ opt_slot ".transfer fmax" "Hz" fmax
      @ opt_slot ".transfer points" "1" points
      @ opt_slot ".transfer k" "1" k

let stmt_slots = function
  | Card c -> card_slots c
  | Clock c -> clock_slots c
  | Temp e -> [ slot ".temp" "K" e ]
  | Analysis a -> analysis_slots a
  | Param _ | Output _ | End -> []

(* ---- elaboration ---- *)

(* Re-raise the [Netlist] builder's [Invalid_argument] at the card's
   location; the message already names the element (e.g.
   [Netlist.resistor "R3": r <= 0]). *)
let located_invalid loc f = try f () with Invalid_argument m -> Diag.error loc "%s" m

let elaborate (deck : Ast.deck) =
  let nl = Netlist.create () in
  let env : (string, float * bool ref) Hashtbl.t = Hashtbl.create 16 in
  let params = ref [] in
  let param_order = ref [] in
  (* (pname, loc, used) in reverse deck order *)
  let clock = ref None in
  let output = ref None in
  let temperature = ref None in
  let analyses = ref [] in
  let element_locs = ref [] in
  let node_locs : (string, Loc.t) Hashtbl.t = Hashtbl.create 16 in
  let node_order = ref [] in
  let n_cards = ref 0 in
  let node n =
    if not (Hashtbl.mem node_locs n.nname) then begin
      Hashtbl.add node_locs n.nname n.nloc;
      node_order := n.nname :: !node_order
    end;
    if n.nname = "0" then Netlist.ground else Netlist.node nl n.nname
  in
  let do_card loc = function
    | Resistor { name; n1; n2; r; noisy } ->
        let r = eval env r in
        located_invalid loc (fun () ->
            Netlist.resistor ~name ~noisy nl (node n1) (node n2) r)
    | Capacitor { name; n1; n2; c } ->
        let c = eval env c in
        located_invalid loc (fun () ->
            Netlist.capacitor ~name nl (node n1) (node n2) c)
    | Switch { name; n1; n2; r_on; closed_in; noisy } ->
        let r_on = eval env r_on in
        located_invalid loc (fun () ->
            Netlist.switch ~name ~noisy ~closed_in nl (node n1) (node n2) r_on)
    | Vsource { name; n; wave } ->
        let w = eval_wave env loc wave in
        located_invalid loc (fun () -> Netlist.vsource ~name nl (node n) w)
    | Isource { name; n1; n2; wave } ->
        let w = eval_wave env loc wave in
        located_invalid loc (fun () ->
            Netlist.isource ~name nl (node n1) (node n2) w)
    | Noise { name; n1; n2; kind = White { psd } } ->
        let psd = eval env psd in
        located_invalid loc (fun () ->
            Netlist.noise_isource ~name nl (node n1) (node n2) ~psd)
    | Noise { name; n1; n2; kind = Flicker f } ->
        let psd_1hz = eval env f.psd_1hz in
        let fmin = eval env f.fmin in
        let fmax = eval env f.fmax in
        let spd =
          Option.map
            (fun e -> eval_int env e "sections per decade")
            f.sections_per_decade
        in
        located_invalid loc (fun () ->
            Netlist.flicker_isource ~name ?sections_per_decade:spd nl (node n1)
              (node n2) ~psd_1hz ~fmin ~fmax)
    | Opamp_integrator { name; plus; minus; out; ugf; noise } ->
        let ugf = eval env ugf in
        let psd = Option.map (eval env) noise in
        located_invalid loc (fun () ->
            Netlist.opamp_integrator ~name ?input_noise_psd:psd nl
              ~plus:(node plus) ~minus:(node minus) ~out:(node out) ~ugf)
    | Opamp_single_stage { name; plus; minus; out; gm; rout; cout; noise } ->
        let gm = eval env gm in
        let rout = eval env rout in
        let cout = eval env cout in
        let psd = Option.map (eval env) noise in
        located_invalid loc (fun () ->
            Netlist.opamp_single_stage ~name ?input_noise_psd:psd nl
              ~plus:(node plus) ~minus:(node minus) ~out:(node out) ~gm ~rout
              ~cout)
  in
  let do_clock loc = function
    | Clock_duty { period; duty } ->
        let period = eval env period and duty = eval env duty in
        located_invalid loc (fun () -> Clock.duty ~period ~duty)
    | Clock_two_phase { period; gap } ->
        let period = eval env period in
        let gap = Option.map (eval env) gap in
        located_invalid loc (fun () ->
            Clock.two_phase ?gap_fraction:gap ~period ())
    | Clock_phases ds ->
        let ds = List.map (eval env) ds in
        located_invalid loc (fun () -> Clock.make ds)
  in
  let card_name = function
    | Resistor { name; _ }
    | Capacitor { name; _ }
    | Switch { name; _ }
    | Vsource { name; _ }
    | Isource { name; _ }
    | Noise { name; _ }
    | Opamp_integrator { name; _ }
    | Opamp_single_stage { name; _ } ->
        name
  in
  let opt f = Option.map f in
  let do_analysis = function
    | Ast.Psd { fmin; fmax; points; log } ->
        Psd
          {
            fmin = opt (eval env) fmin;
            fmax = opt (eval env) fmax;
            points = opt (fun e -> eval_int env e "points") points;
            log;
          }
    | Ast.Variance -> Variance
    | Ast.Contrib { f } -> Contrib { f = opt (eval env) f }
    | Ast.Transfer { fmin; fmax; points; k } ->
        Transfer
          {
            fmin = opt (eval env) fmin;
            fmax = opt (eval env) fmax;
            points = opt (fun e -> eval_int env e "points") points;
            k = opt (fun e -> eval_int env e "k") k;
          }
  in
  List.iter
    (fun { s; sloc } ->
      match s with
      | Param { pname; value } ->
          if Hashtbl.mem env pname then
            Diag.error sloc "parameter %S already defined" pname;
          let v = eval env value in
          let used = ref false in
          Hashtbl.add env pname (v, used);
          param_order := (pname, sloc, used) :: !param_order;
          params := (pname, v) :: !params
      | Card c ->
          incr n_cards;
          element_locs := (card_name c, sloc) :: !element_locs;
          do_card sloc c
      | Clock spec ->
          if !clock <> None then Diag.error sloc "duplicate .clock directive";
          clock := Some (do_clock sloc spec)
      | Output n ->
          if !output <> None then Diag.error sloc "duplicate .output directive";
          if n.nname = "0" then
            Diag.error n.nloc
              "output node cannot be ground (node \"0\"): its noise is zero \
               by definition";
          (match Netlist.find_node nl n.nname with
          | Some _ -> ()
          | None -> Diag.error n.nloc "unknown node %S" n.nname);
          output := Some (n.nname, n.nloc)
      | Temp e ->
          if !temperature <> None then
            Diag.error sloc "duplicate .temp directive";
          let v = eval env e in
          if v <= 0.0 then Diag.error e.eloc "temperature must be positive";
          temperature := Some v
      | Analysis a -> analyses := (do_analysis a, sloc) :: !analyses
      | End -> ())
    deck.stmts;
  if !n_cards = 0 then Diag.error deck.eof "deck has no element cards";
  let clock =
    match !clock with
    | Some c -> c
    | None -> Diag.error deck.eof "missing .clock directive"
  in
  let output_node, output_loc =
    match !output with
    | Some o -> o
    | None -> Diag.error deck.eof "missing .output directive"
  in
  let unused_params =
    List.rev !param_order
    |> List.filter_map (fun (pname, loc, used) ->
           if !used then None else Some (pname, loc))
  in
  let node_locs =
    List.rev !node_order
    |> List.map (fun name -> (name, Hashtbl.find node_locs name))
  in
  {
    netlist = nl;
    clock;
    output_node;
    output_loc;
    temperature = !temperature;
    analyses = List.rev !analyses;
    params = List.rev !params;
    unused_params;
    element_locs = List.rev !element_locs;
    node_locs;
    value_slots = List.concat_map (fun { s; sloc = _ } -> stmt_slots s) deck.stmts;
    param_exprs =
      List.filter_map
        (function
          | { s = Param { pname; value }; sloc = _ } -> Some (pname, value)
          | _ -> None)
        deck.stmts;
  }
