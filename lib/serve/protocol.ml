(* Wire protocol of the analysis daemon: length-prefixed JSON frames.

   A frame is a 4-byte big-endian payload length followed by that many
   bytes of UTF-8 JSON.  Requests are single objects or a batch
   envelope; every frame gets exactly one reply frame (a batch gets one
   reply carrying the per-request replies in order).  The JSON layer is
   the hardened dependency-free printer/parser of [Scnoise_obs.Json] —
   the same wire format as the metrics artifacts, so clients need no
   new decoder.

   Analysis parameters are all optional: a missing parameter falls back
   to the deck's analysis directive and then to the CLI's builtin
   default, the same resolution chain as `scnoise psd DECK --fmin ...`,
   which is what makes served results bit-identical to direct CLI
   runs. *)

module Json = Scnoise_obs.Json

(* ---- framing ---- *)

let header_len = 4

let default_max_frame = 8 * 1024 * 1024

let encode_len n =
  let b = Bytes.create header_len in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.unsafe_to_string b

let decode_len s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode_frame payload = encode_len (String.length payload) ^ payload

(* ---- requests ---- *)

type psd_params = {
  p_fmin : float option;
  p_fmax : float option;
  p_points : int option;
  p_log : bool option;
  p_spp : int option;
  p_engine : no_engine option;
      (* always [None]: [no_engine] has no values.  The field stays so
         that existing client record literals still compile; the one PSD
         path is MFT, and the decoder refuses an "engine" field. *)
}

and no_engine = |

type transfer_params = {
  t_fmin : float option;
  t_fmax : float option;
  t_points : int option;
  t_k : int option;
  t_spp : int option;
}

type op =
  | Ping
  | Stats
  | Shutdown
  | Psd of psd_params
  | Variance of { v_spp : int option }
  | Contrib of { c_f : float option; c_spp : int option }
  | Transfer of transfer_params
  | Check

type request = {
  rq_id : string option;
  rq_deck : string option;  (* inline deck text *)
  rq_deck_name : string;  (* for diagnostics; defaults to "<request>" *)
  rq_op : op;
}

type envelope = Single of request | Batch of string option * request list

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Psd _ -> "psd"
  | Variance _ -> "variance"
  | Contrib _ -> "contrib"
  | Transfer _ -> "transfer"
  | Check -> "check"

(* ---- decoding ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let str_field j name =
  match Json.member name j with
  | None -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> bad "field %S must be a string" name

let num_field j name =
  match Json.member name j with
  | None -> None
  | Some (Json.Num x) -> Some x
  | Some _ -> bad "field %S must be a number" name

let int_field j name =
  match num_field j name with
  | None -> None
  | Some x ->
      let i = int_of_float x in
      if float_of_int i <> x then bad "field %S must be an integer" name;
      Some i

let bool_field j name =
  match Json.member name j with
  | None -> None
  | Some (Json.Bool b) -> Some b
  | Some _ -> bad "field %S must be a boolean" name

let request_of_json j =
  (match j with Json.Obj _ -> () | _ -> bad "request must be a JSON object");
  let op =
    match str_field j "op" with
    | None -> bad "request is missing \"op\""
    | Some "ping" -> Ping
    | Some "stats" -> Stats
    | Some "shutdown" -> Shutdown
    | Some "psd" ->
        if Json.member "engine" j <> None then
          bad "field \"engine\" is not accepted: the one PSD engine is mft";
        Psd
          {
            p_fmin = num_field j "fmin";
            p_fmax = num_field j "fmax";
            p_points = int_field j "points";
            p_log = bool_field j "log";
            p_spp = int_field j "spp";
            p_engine = None;
          }
    | Some "variance" -> Variance { v_spp = int_field j "spp" }
    | Some "contrib" ->
        Contrib { c_f = num_field j "f"; c_spp = int_field j "spp" }
    | Some "transfer" ->
        Transfer
          {
            t_fmin = num_field j "fmin";
            t_fmax = num_field j "fmax";
            t_points = int_field j "points";
            t_k = int_field j "k";
            t_spp = int_field j "spp";
          }
    | Some "check" -> Check
    | Some other -> bad "unknown op %S" other
  in
  {
    rq_id = str_field j "id";
    rq_deck = str_field j "deck";
    rq_deck_name = Option.value (str_field j "deck_name") ~default:"<request>";
    rq_op = op;
  }

let envelope_of_json j =
  match str_field j "op" with
  | Some "batch" -> (
      match Json.member "requests" j with
      | Some (Json.List items) ->
          Batch (str_field j "id", List.map request_of_json items)
      | Some _ -> bad "field \"requests\" must be an array"
      | None -> bad "batch request is missing \"requests\"")
  | _ -> Single (request_of_json j)

let envelope_of_string s =
  match Json.of_string s with
  | exception Json.Parse_error msg -> Error ("invalid JSON: " ^ msg)
  | j -> ( match envelope_of_json j with
    | env -> Ok env
    | exception Bad msg -> Error msg)

(* ---- encoding (client side) ---- *)

let opt_fields fields =
  List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) fields

let num x = Json.Num x

let inum i = Json.Num (float_of_int i)

let request_to_json rq =
  Json.Obj
    (opt_fields
       [
         ("op", Some (Json.Str (op_name rq.rq_op)));
         ("id", Option.map (fun s -> Json.Str s) rq.rq_id);
         ("deck", Option.map (fun s -> Json.Str s) rq.rq_deck);
         ( "deck_name",
           if rq.rq_deck_name = "<request>" then None
           else Some (Json.Str rq.rq_deck_name) );
       ]
    @
    match rq.rq_op with
    | Ping | Stats | Shutdown | Check -> []
    | Psd p ->
        opt_fields
          [
            ("fmin", Option.map num p.p_fmin);
            ("fmax", Option.map num p.p_fmax);
            ("points", Option.map inum p.p_points);
            ("log", Option.map (fun b -> Json.Bool b) p.p_log);
            ("spp", Option.map inum p.p_spp);
          ]
    | Variance { v_spp } -> opt_fields [ ("spp", Option.map inum v_spp) ]
    | Contrib { c_f; c_spp } ->
        opt_fields
          [ ("f", Option.map num c_f); ("spp", Option.map inum c_spp) ]
    | Transfer t ->
        opt_fields
          [
            ("fmin", Option.map num t.t_fmin);
            ("fmax", Option.map num t.t_fmax);
            ("points", Option.map inum t.t_points);
            ("k", Option.map inum t.t_k);
            ("spp", Option.map inum t.t_spp);
          ])

let batch_to_json ?id requests =
  Json.Obj
    (opt_fields [ ("id", Option.map (fun s -> Json.Str s) id) ]
    @ [
        ("op", Json.Str "batch");
        ("requests", Json.List (List.map request_to_json requests));
      ])

(* ---- replies ---- *)

(* Stable error codes clients can dispatch on:
     protocol   malformed frame / JSON / fields
     oversized  frame beyond the daemon's --max-frame
     deck       parse or elaboration diagnostic (rendered, multi-line)
     erc        electrical-rule errors (rendered caret findings)
     compile    matrix assembly failure
     output     output node not observable
     unstable   circuit has no steady state
     numeric    the sweep could not be prepared (a real Schur
                reduction did not converge)
     inputs     transfer on a circuit without signal inputs
     overload   admission queue full
     timeout    spent longer than --timeout queued
     shutdown   daemon is draining and refuses new work
     internal   unexpected exception (daemon survives) *)

let id_fields = function
  | None -> []
  | Some id -> [ ("id", Json.Str id) ]

let ok_reply ?id ~op ?cache ?elapsed_s result =
  Json.Obj
    (id_fields id
    @ [ ("ok", Json.Bool true); ("op", Json.Str op) ]
    @ (match cache with Some c -> [ ("cache", Json.Str c) ] | None -> [])
    @ (match elapsed_s with
      | Some t -> [ ("elapsed_s", Json.Num t) ]
      | None -> [])
    @ [ ("result", result) ])

let error_reply ?id ~code message =
  Json.Obj
    (id_fields id
    @ [
        ("ok", Json.Bool false);
        ( "error",
          Json.Obj [ ("code", Json.Str code); ("message", Json.Str message) ]
        );
      ])

let batch_reply ?id replies =
  Json.Obj
    (id_fields id
    @ [
        ("ok", Json.Bool true);
        ("op", Json.Str "batch");
        ("results", Json.List replies);
      ])

let reply_ok j = match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let reply_error_code j =
  match Json.member "error" j with
  | Some e -> ( match Json.member "code" e with
    | Some (Json.Str c) -> Some c
    | _ -> None)
  | None -> None

let reply_result j = Json.member "result" j

let reply_cache j =
  match Json.member "cache" j with Some (Json.Str c) -> Some c | _ -> None

(* Pull a float array out of a reply result, e.g. result.psd_V2_per_Hz.
   Used by clients (bench, tests) for bit-parity checks; %.17g printing
   round-trips doubles exactly, so equality here is equality of the
   computed bits. *)
let float_array_field j name =
  match Json.member name j with
  | Some (Json.List items) ->
      Some
        (Array.of_list
           (List.map
              (function Json.Num x -> x | _ -> raise (Bad "not a number"))
              items))
  | _ -> None
