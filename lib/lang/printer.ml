open Ast

let float_str x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* precedence levels: Add/Sub = 1, Mul/Div = 2, Pow = 3, atoms = 4 *)
let prec = function Add | Sub -> 1 | Mul | Div -> 2 | Pow -> 3

let op_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Pow -> "^"

(* Unit annotations survive the parse → print → parse round-trip by
   printing a spelling the lexer maps back to the same canonical unit.
   "F" and "s" need whole-word forms: a bare "f"/"s" tail would re-lex
   as femto / second and "1s" is fine but "1F" would become 1e-15. *)
let unit_tail = function
  | "" -> ""
  | "ohm" -> "ohm"
  | "F" -> "farad"
  | "Hz" -> "hz"
  | "V" -> "volt"
  | "A" -> "amp"
  | "s" -> "sec"
  | "K" -> "kelvin"
  | u -> u

let num_str v u = float_str v ^ unit_tail u

let rec expr_prec level x =
  match x.e with
  | Num (v, u) -> num_str v u
  | Ref n -> n
  | Neg a ->
      let s = "-" ^ expr_prec 4 a in
      if level > 1 then "(" ^ s ^ ")" else s
  | Bin (op, a, b) ->
      let p = prec op in
      (* left-assoc for Add..Div, right-assoc for Pow *)
      let ls, rs =
        if op = Pow then (expr_prec (p + 1) a, expr_prec p b)
        else (expr_prec p a, expr_prec (p + 1) b)
      in
      let s = ls ^ op_str op ^ rs in
      if p < level then "(" ^ s ^ ")" else s
  | Call (f, args) -> f ^ "(" ^ String.concat ", " (List.map (expr_prec 0) args) ^ ")"

let expr x = expr_prec 0 x

let value x =
  match x.e with Num (v, u) -> num_str v u | _ -> "{" ^ expr x ^ "}"

let node n = n.nname

let wave = function
  | Dc v -> "dc " ^ value v
  | Sin { offset; amp; freq; phase_deg } ->
      let base = Printf.sprintf "sin %s %s %s" (value offset) (value amp) (value freq) in
      (match phase_deg with Some p -> base ^ " " ^ value p | None -> base)
  | Pwl pts ->
      "pwl "
      ^ String.concat " " (List.map (fun (t, v) -> value t ^ " " ^ value v) pts)

let noiseless_str noisy = if noisy then "" else " noiseless"

let card = function
  | Resistor { name; n1; n2; r; noisy } ->
      Printf.sprintf "%s %s %s %s%s" name (node n1) (node n2) (value r)
        (noiseless_str noisy)
  | Capacitor { name; n1; n2; c } ->
      Printf.sprintf "%s %s %s %s" name (node n1) (node n2) (value c)
  | Switch { name; n1; n2; r_on; closed_in; noisy } ->
      Printf.sprintf "%s %s %s %s closed=%s%s" name (node n1) (node n2)
        (value r_on)
        (String.concat "," (List.map string_of_int closed_in))
        (noiseless_str noisy)
  | Vsource { name; n; wave = w } ->
      Printf.sprintf "%s %s %s" name (node n) (wave w)
  | Isource { name; n1; n2; wave = w } ->
      Printf.sprintf "%s %s %s %s" name (node n1) (node n2) (wave w)
  | Noise { name; n1; n2; kind } -> (
      match kind with
      | White { psd } ->
          Printf.sprintf "%s %s %s psd=%s" name (node n1) (node n2) (value psd)
      | Flicker { psd_1hz; fmin; fmax; sections_per_decade } ->
          let base =
            Printf.sprintf "%s %s %s flicker psd1hz=%s fmin=%s fmax=%s" name
              (node n1) (node n2) (value psd_1hz) (value fmin) (value fmax)
          in
          (match sections_per_decade with
          | Some s -> base ^ " spd=" ^ value s
          | None -> base))
  | Opamp_integrator { name; plus; minus; out; ugf; noise } ->
      let base =
        Printf.sprintf "%s %s %s %s ugf=%s" name (node plus) (node minus)
          (node out) (value ugf)
      in
      (match noise with Some n -> base ^ " noise=" ^ value n | None -> base)
  | Opamp_single_stage { name; plus; minus; out; gm; rout; cout; noise } ->
      let base =
        Printf.sprintf "%s %s %s %s gm=%s rout=%s cout=%s" name (node plus)
          (node minus) (node out) (value gm) (value rout) (value cout)
      in
      (match noise with Some n -> base ^ " noise=" ^ value n | None -> base)

let opt_key k = function Some v -> Printf.sprintf " %s=%s" k (value v) | None -> ""

let analysis = function
  | Psd { fmin; fmax; points; log } ->
      ".psd" ^ opt_key "fmin" fmin ^ opt_key "fmax" fmax ^ opt_key "points" points
      ^ if log then " log" else ""
  | Variance -> ".variance"
  | Contrib { f } -> ".contrib" ^ opt_key "f" f
  | Transfer { fmin; fmax; points; k } ->
      ".transfer" ^ opt_key "fmin" fmin ^ opt_key "fmax" fmax
      ^ opt_key "points" points ^ opt_key "k" k

let stmt = function
  | Card c -> card c
  | Param { pname; value = v } -> Printf.sprintf ".param %s = %s" pname (expr v)
  | Clock (Clock_duty { period; duty }) ->
      Printf.sprintf ".clock duty period=%s duty=%s" (value period) (value duty)
  | Clock (Clock_two_phase { period; gap }) ->
      Printf.sprintf ".clock two_phase period=%s%s" (value period)
        (opt_key "gap" gap)
  | Clock (Clock_phases ds) ->
      ".clock phases " ^ String.concat " " (List.map value ds)
  | Output n -> ".output " ^ node n
  | Temp e -> ".temp " ^ value e
  | Analysis a -> analysis a
  | End -> ".end"

let deck d =
  String.concat "" (List.map (fun s -> stmt s.s ^ "\n") d.stmts)
