module Ast = Scnoise_lang.Ast
module Elab = Scnoise_lang.Elab
module Sparsity = Scnoise_circuit.Sparsity
module Clock = Scnoise_circuit.Clock

(* Dimensions as doubled-integer exponents over (V, A, s, K): storing
   2x the exponent keeps sqrt exact (sqrt(ohm) = V^1/2 A^-1/2 is
   (1, -1, 0, 0) doubled).  [None] is "unconstrained": bare literals
   impose nothing, so only decks that spell units ever get flagged. *)
type dim = { dv : int; da : int; ds : int; dk : int }

let dimless = { dv = 0; da = 0; ds = 0; dk = 0 }

let d2 dv da ds dk = { dv = 2 * dv; da = 2 * da; ds = 2 * ds; dk = 2 * dk }

(* the canonical unit annotations the lexer produces *)
let dim_of_unit = function
  | "ohm" -> d2 1 (-1) 0 0
  | "F" -> d2 (-1) 1 1 0
  | "Hz" -> d2 0 0 (-1) 0
  | "V" -> d2 1 0 0 0
  | "A" -> d2 0 1 0 0
  | "s" -> d2 0 0 1 0
  | "K" -> d2 0 0 0 1
  | u -> invalid_arg ("Units.dim_of_unit: " ^ u)

(* the slot-dimension grammar Elab uses *)
let dim_of_spec = function
  | "1" -> dimless
  | "A/V" -> d2 (-1) 1 0 0
  | "A2/Hz" -> d2 0 2 1 0
  | "V2/Hz" -> d2 2 0 1 0
  | spec -> dim_of_unit spec

let named =
  [
    ("ohm", dim_of_spec "ohm");
    ("F", dim_of_spec "F");
    ("Hz", dim_of_spec "Hz");
    ("V", dim_of_spec "V");
    ("A", dim_of_spec "A");
    ("s", dim_of_spec "s");
    ("K", dim_of_spec "K");
    ("A/V", dim_of_spec "A/V");
    ("A2/Hz", dim_of_spec "A2/Hz");
    ("V2/Hz", dim_of_spec "V2/Hz");
  ]

let to_string d =
  if d = dimless then "dimensionless"
  else
    match List.find_opt (fun (_, nd) -> nd = d) named with
    | Some (name, _) -> name
    | None ->
        let part label e =
          if e = 0 then []
          else if e mod 2 = 0 then
            [ (if e = 2 then label else Printf.sprintf "%s^%d" label (e / 2)) ]
          else [ Printf.sprintf "%s^%g" label (float_of_int e /. 2.0) ]
        in
        String.concat " "
          (part "V" d.dv @ part "A" d.da @ part "s" d.ds @ part "K" d.dk)

let dadd a b =
  { dv = a.dv + b.dv; da = a.da + b.da; ds = a.ds + b.ds; dk = a.dk + b.dk }

let dsub a b =
  { dv = a.dv - b.dv; da = a.da - b.da; ds = a.ds - b.ds; dk = a.dk - b.dk }

let dscale d e =
  let one x =
    let v = float_of_int x *. e in
    let r = Float.round v in
    if Float.abs (v -. r) < 1e-9 then Some (int_of_float r) else None
  in
  match (one d.dv, one d.da, one d.ds, one d.dk) with
  | Some dv, Some da, Some ds, Some dk -> Some { dv; da; ds; dk }
  | _ -> None

let rule = "ERC014-dimension-mismatch"

(* Dimension inference over one expression.  [penv] maps parameter
   names to their (possibly unconstrained) inferred dimension; [params]
   carries the evaluated values so constant exponents of [^]/[pow] can
   be resolved.  Internal conflicts (a sum or min/max of incompatible
   dimensions, a dimensioned argument to exp/log) are appended to
   [errs] at the offending subexpression and inference continues. *)
let infer ~penv ~params ~anchor errs (x : Ast.expr) =
  let mismatch loc fmt =
    Printf.ksprintf
      (fun message ->
        errs :=
          Finding.make ~loc ~anchor ~rule ~severity:Finding.Error
            ~subject:"units" message
          :: !errs)
      fmt
  in
  let const_of e = try Some (Elab.eval_const ~params e) with _ -> None in
  let rec go (x : Ast.expr) =
    match x.Ast.e with
    | Ast.Num (_, "") -> None
    | Ast.Num (_, u) -> Some (dim_of_unit u)
    | Ast.Ref name -> (
        match List.assoc_opt name penv with
        | Some d -> d
        | None ->
            (* built-in constants (pi) are dimensionless *)
            Some dimless)
    | Ast.Neg a -> go a
    | Ast.Bin ((Ast.Add | Ast.Sub), a, b) -> same x.Ast.eloc "sum" a b
    | Ast.Bin (Ast.Mul, a, b) -> (
        match (go a, go b) with
        | Some da, Some db -> Some (dadd da db)
        | _ -> None)
    | Ast.Bin (Ast.Div, a, b) -> (
        match (go a, go b) with
        | Some da, Some db -> Some (dsub da db)
        | _ -> None)
    | Ast.Bin (Ast.Pow, a, b) -> pow x.Ast.eloc a b
    | Ast.Call ("sqrt", [ a ]) -> (
        match go a with None -> None | Some d -> dscale d 0.5)
    | Ast.Call (("exp" | "log" | "log10") as f, [ a ]) ->
        (match go a with
        | Some d when d <> dimless ->
            mismatch a.Ast.eloc
              "argument of %s() has dimension %s; it must be dimensionless" f
              (to_string d)
        | _ -> ());
        None
    | Ast.Call (("min" | "max"), [ a; b ]) -> same x.Ast.eloc "comparison" a b
    | Ast.Call ("abs", [ a ]) -> go a
    | Ast.Call ("pow", [ a; b ]) -> pow x.Ast.eloc a b
    | Ast.Call _ -> None
  and same loc what a b =
    match (go a, go b) with
    | Some da, Some db ->
        if da <> db then
          mismatch loc "%s of incompatible dimensions: %s vs %s" what
            (to_string da) (to_string db);
        Some da
    | Some d, None | None, Some d -> Some d
    | None, None -> None
  and pow loc a b =
    (match go b with
    | Some db when db <> dimless ->
        mismatch b.Ast.eloc "exponent has dimension %s; it must be \
                             dimensionless" (to_string db)
    | _ -> ());
    match go a with
    | None -> None
    | Some da when da = dimless -> Some dimless
    | Some da -> (
        match const_of b with
        | Some e -> (
            match dscale da e with
            | Some d -> Some d
            | None ->
                mismatch loc
                  "%s^%g is not representable as a physical dimension"
                  (to_string da) e;
                None)
        | None -> None)
  in
  go x

let check_dims (e : Elab.t) =
  let params = e.Elab.params in
  let errs = ref [] in
  (* parameter dimensions, inferred in deck order so later params can
     reference earlier ones *)
  let penv =
    List.fold_left
      (fun penv (pname, expr) ->
        let d =
          infer ~penv ~params ~anchor:("param:" ^ pname) errs expr
        in
        (pname, d) :: penv)
      [] e.Elab.param_exprs
  in
  List.iteri
    (fun i (s : Elab.slot) ->
      let anchor = "slot:" ^ string_of_int i in
      let expected = dim_of_spec s.Elab.slot_dim in
      match infer ~penv ~params ~anchor errs s.Elab.slot_expr with
      | Some d when d <> expected ->
          errs :=
            Finding.make ~loc:s.Elab.slot_expr.Ast.eloc ~anchor ~rule
              ~severity:Finding.Error ~subject:s.Elab.slot_what
              (Printf.sprintf
                 "%s has dimension %s, expected %s"
                 s.Elab.slot_what (to_string d)
                 (to_string expected))
            :: !errs
      | _ -> ())
    e.Elab.value_slots;
  List.rev !errs

(* ---- ERC015: sweep-bandwidth capture ---- *)

let min_capture = 0.1

let check_bandwidth (sp : Sparsity.t) (e : Elab.t) =
  let has_ktc =
    sp.Sparsity.cap_edges <> [] && sp.Sparsity.injections <> []
  in
  if not has_ktc then []
  else begin
    let fs = 1.0 /. Clock.period e.Elab.clock in
    List.concat
      (List.mapi
         (fun i (a, loc) ->
           match a with
           | Elab.Psd { fmax = Some f; _ } ->
               let captured = Float.min 1.0 (2.0 *. f /. fs) in
               if captured < min_capture then
                 [
                   Finding.make ~loc
                     ~anchor:("analysis:" ^ string_of_int i)
                     ~rule:"ERC015-band-capture" ~severity:Finding.Warning
                     ~subject:".psd"
                     (Printf.sprintf
                        "the .psd sweep to fmax %g Hz captures only ~%.1f%% \
                         of the sampled kT/C noise power, which is spread \
                         over 0..%g Hz (half the %g Hz clock); raise fmax"
                        f (100.0 *. captured) (0.5 *. fs) fs);
                 ]
               else []
           | _ -> [])
         e.Elab.analyses)
  end
