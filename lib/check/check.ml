module Netlist = Scnoise_circuit.Netlist
module Clock = Scnoise_circuit.Clock
module Sparsity = Scnoise_circuit.Sparsity
module Elab = Scnoise_lang.Elab
module Loc = Scnoise_lang.Loc
module Obs = Scnoise_obs.Obs

(* Node ids are dense: 0 is ground, 1 .. n_nodes the named nodes. *)

(* per-pass wall-time health histograms: check.pass_s.classic /
   .structural / .reach / .units *)
let time_pass name f =
  let h = Obs.histogram ("check.pass_s." ^ name) in
  let t0 = Scnoise_obs.Clock.now () in
  let r = f () in
  Obs.hist_record h (Scnoise_obs.Clock.now () -. t0);
  r

let phase_list = function
  | [ p ] -> Printf.sprintf "phase %d" p
  | ps ->
      Printf.sprintf "phases %s"
        (String.concat ", " (List.map string_of_int ps))

let plural n = if n = 1 then "" else "s"

let check ?output ?(locate_element = fun _ -> None)
    ?(locate_node = fun _ -> None) nl clock =
  let t_classic = Scnoise_obs.Clock.now () in
  let n = Netlist.n_nodes nl + 1 in
  let els = Netlist.elements nl in
  let nph = Clock.n_phases clock in
  let node_name id =
    if id = 0 then "0" else Netlist.node_name nl (Netlist.node_of_id nl id)
  in
  let valid_phases ps =
    List.sort_uniq compare (List.filter (fun p -> p >= 0 && p < nph) ps)
  in
  let driven = Array.make n false in
  List.iter
    (function
      | Netlist.Vsource { n = nd; _ } -> driven.(nd) <- true
      | Netlist.Opamp_integrator { out; _ } -> driven.(out) <- true
      | _ -> ())
    els;
  let held id = id = 0 || driven.(id) in
  let node_finding ~rule ~severity id message =
    let subject = node_name id in
    Finding.make ?loc:(locate_node subject) ~anchor:("node:" ^ subject) ~rule
      ~severity ~subject message
  in
  let element_finding ~rule ~severity name message =
    Finding.make ?loc:(locate_element name) ~anchor:("element:" ^ name) ~rule
      ~severity ~subject:name message
  in

  (* ERC001: per-phase connectivity to the reference (ground + driven
     nodes), counting both conductive and capacitive edges.  A node cut
     off in phase p has a singular MNA row in that phase. *)
  let floating_phases : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  for p = 0 to nph - 1 do
    let g = Graph.create n in
    List.iter
      (function
        | Netlist.Resistor { n1; n2; _ } | Netlist.Capacitor { n1; n2; _ } ->
            Graph.union g n1 n2
        | Netlist.Switch { n1; n2; closed_in; _ }
          when List.mem p closed_in ->
            Graph.union g n1 n2
        | Netlist.Opamp_single_stage { out; _ } -> Graph.union g out 0
        | _ -> ())
      els;
    for i = 1 to n - 1 do
      if driven.(i) then Graph.union g 0 i
    done;
    for i = 1 to n - 1 do
      if not (Graph.same g 0 i) then
        match Hashtbl.find_opt floating_phases i with
        | Some l -> l := p :: !l
        | None -> Hashtbl.add floating_phases i (ref [ p ])
    done
  done;
  let erc001 =
    List.init (n - 1) (fun k -> k + 1)
    |> List.filter_map (fun id ->
           match Hashtbl.find_opt floating_phases id with
           | None -> None
           | Some ps ->
               let ps = List.rev !ps in
               let when_ =
                 if List.length ps = nph then "in every phase"
                 else "in " ^ phase_list ps
               in
               Some
                 (node_finding ~rule:"ERC001-floating-node"
                    ~severity:Finding.Error id
                    (Printf.sprintf
                       "node %S is floating %s: no conductive or capacitive \
                        path to ground or a driven node"
                       (node_name id) when_)))
  in

  (* ERC002: components of the capacitor graph with no ground/driven
     member.  Their total charge is undefined at phase boundaries, so
     the compiler's C_dd is singular — even if the island is
     conductively tied to ground through resistors.  Islands whose
     every node is already floating (ERC001) are not re-reported. *)
  let erc002 =
    let g = Graph.create n in
    let capnode = Array.make n false in
    List.iter
      (function
        | Netlist.Capacitor { n1; n2; _ } ->
            capnode.(n1) <- true;
            capnode.(n2) <- true;
            Graph.union g n1 n2
        | Netlist.Opamp_single_stage { out; _ } ->
            capnode.(out) <- true;
            Graph.union g out 0
        | _ -> ())
      els;
    let comps : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    for i = n - 1 downto 1 do
      if capnode.(i) then
        let r = Graph.find g i in
        match Hashtbl.find_opt comps r with
        | Some l -> l := i :: !l
        | None -> Hashtbl.add comps r (ref [ i ])
    done;
    let ground_root = Graph.find g 0 in
    Hashtbl.fold
      (fun root members acc ->
        let members = !members in
        if
          root <> ground_root
          && (not (List.exists (fun i -> driven.(i)) members))
          && not
               (List.for_all
                  (fun i -> Hashtbl.mem floating_phases i)
                  members)
        then
          node_finding ~rule:"ERC002-cap-island" ~severity:Finding.Error
            (List.hd members)
            (Printf.sprintf
               "capacitor-only island {%s} has no capacitive path to ground \
                or a driven node: its charge is undefined at phase \
                boundaries (singular capacitance matrix); add a (parasitic) \
                capacitor to ground"
               (String.concat ", " (List.map node_name members)))
          :: acc
        else acc)
      comps []
  in

  (* ERC003 / ERC004 / ERC005: per-switch rules. *)
  let switch_rules =
    List.concat_map
      (function
        | Netlist.Switch { name; n1; n2; closed_in; _ } ->
            let vp = valid_phases closed_in in
            let bad = List.filter (fun p -> p < 0 || p >= nph) closed_in in
            let short =
              if vp <> [] && held n1 && held n2 && (driven.(n1) || driven.(n2))
              then
                [
                  element_finding ~rule:"ERC003-source-short"
                    ~severity:Finding.Error name
                    (Printf.sprintf
                       "switch %S connects %S and %S, which are both held \
                        (ground or voltage-driven); closing it in %s shorts \
                        a source"
                       name (node_name n1) (node_name n2) (phase_list vp));
                ]
              else []
            in
            let degenerate =
              if closed_in = [] then
                [
                  element_finding ~rule:"ERC004-degenerate-switch"
                    ~severity:Finding.Warning name
                    (Printf.sprintf "switch %S is never closed" name);
                ]
              else if bad = [] && List.length vp = nph then
                [
                  element_finding ~rule:"ERC004-degenerate-switch"
                    ~severity:Finding.Warning name
                    (Printf.sprintf
                       "switch %S is closed in every clock phase; it never \
                        opens and behaves as a plain resistor"
                       name);
                ]
              else []
            in
            let range =
              match bad with
              | [] -> []
              | p :: _ ->
                  [
                    element_finding ~rule:"ERC005-phase-out-of-range"
                      ~severity:Finding.Error name
                      (Printf.sprintf
                         "switch %S: phase index %d out of range (clock has \
                          %d phase%s)"
                         name p nph (plural nph));
                  ]
            in
            short @ degenerate @ range
        | _ -> [])
      els
  in

  (* ERC006: is any noise-producing element connected (through any
     element, including op-amp input→output coupling and current
     sources) to the output node's component?  Ground belongs to almost
     every component, so an element counts only through a non-ground
     terminal. *)
  let erc006 =
    match output with
    | None -> []
    | Some out_name -> (
        match Netlist.find_node nl out_name with
        | None -> []
        | Some onode ->
            let oid = Netlist.node_id onode in
            let g = Graph.create n in
            List.iter
              (function
                | Netlist.Resistor { n1; n2; _ }
                | Netlist.Capacitor { n1; n2; _ }
                | Netlist.Isource { n1; n2; _ }
                | Netlist.Noise_isource { n1; n2; _ }
                | Netlist.Flicker_isource { n1; n2; _ } ->
                    Graph.union g n1 n2
                | Netlist.Switch { n1; n2; closed_in; _ }
                  when valid_phases closed_in <> [] ->
                    Graph.union g n1 n2
                | Netlist.Opamp_integrator { plus; minus; out; _ } ->
                    Graph.union g plus out;
                    Graph.union g minus out
                | Netlist.Opamp_single_stage { plus; minus; out; _ } ->
                    Graph.union g plus out;
                    Graph.union g minus out;
                    Graph.union g out 0
                | Netlist.Switch _ | Netlist.Vsource _ -> ())
              els;
            let reaches id = id <> 0 && Graph.same g id oid in
            let noisy_connected =
              List.exists
                (function
                  | Netlist.Resistor { noisy = true; n1; n2; _ } ->
                      reaches n1 || reaches n2
                  | Netlist.Switch { noisy = true; n1; n2; closed_in; _ } ->
                      valid_phases closed_in <> [] && (reaches n1 || reaches n2)
                  | Netlist.Noise_isource { n1; n2; psd; _ } ->
                      psd > 0.0 && (reaches n1 || reaches n2)
                  | Netlist.Flicker_isource { n1; n2; psd_1hz; _ } ->
                      psd_1hz > 0.0 && (reaches n1 || reaches n2)
                  | Netlist.Opamp_integrator
                      { input_noise_psd; plus; minus; out; _ }
                  | Netlist.Opamp_single_stage
                      { input_noise_psd; plus; minus; out; _ } ->
                      input_noise_psd > 0.0
                      && (reaches plus || reaches minus || reaches out)
                  | _ -> false)
                els
            in
            if noisy_connected then []
            else
              [
                node_finding ~rule:"ERC006-noiseless"
                  ~severity:Finding.Warning oid
                  (Printf.sprintf
                     "no noise-producing element is connected to output \
                      node %S; every computed spectrum will be identically \
                      zero"
                     out_name);
              ])
  in

  (* ERC008: a non-ground node referenced by exactly one element
     terminal — usually a typo.  The output node is exempt (the
     [.output] directive is its second use). *)
  let erc008 =
    let refs : string list array = Array.make n [] in
    let touch id name = if id <> 0 then refs.(id) <- name :: refs.(id) in
    List.iter
      (function
        | Netlist.Resistor { name; n1; n2; _ }
        | Netlist.Capacitor { name; n1; n2; _ }
        | Netlist.Switch { name; n1; n2; _ }
        | Netlist.Isource { name; n1; n2; _ }
        | Netlist.Noise_isource { name; n1; n2; _ }
        | Netlist.Flicker_isource { name; n1; n2; _ } ->
            touch n1 name;
            touch n2 name
        | Netlist.Vsource { name; n = nd; _ } -> touch nd name
        | Netlist.Opamp_integrator { name; plus; minus; out; _ }
        | Netlist.Opamp_single_stage { name; plus; minus; out; _ } ->
            touch plus name;
            touch minus name;
            touch out name)
      els;
    List.init (n - 1) (fun k -> k + 1)
    |> List.filter_map (fun id ->
           match refs.(id) with
           | [ only ] when output <> Some (node_name id) ->
               Some
                 (node_finding ~rule:"ERC008-dangling-node"
                    ~severity:Finding.Warning id
                    (Printf.sprintf
                       "node %S is referenced by a single element terminal \
                        (%s); possibly a typo"
                       (node_name id) only))
           | _ -> None)
  in

  Obs.hist_record
    (Obs.histogram "check.pass_s.classic")
    (Scnoise_obs.Clock.now () -. t_classic);

  (* ERC011–ERC013: structural-rank prediction and phase-sequenced
     noise-path reachability over the sparsity digest (no matrices) *)
  let sp = Sparsity.of_netlist nl clock in
  let floating = Array.init nph (fun _ -> Array.make n false) in
  Hashtbl.iter
    (fun i ps -> List.iter (fun p -> floating.(p).(i) <- true) !ps)
    floating_phases;
  let erc011 =
    time_pass "structural" (fun () ->
        Structural.check ~node_name ~locate_node ~floating sp)
  in
  let reach =
    time_pass "reach" (fun () ->
        let out_id =
          match output with
          | None -> None
          | Some o -> Option.map Netlist.node_id (Netlist.find_node nl o)
        in
        Reach.check ~node_name ~locate_element ~locate_node ~floating
          ~output:out_id sp)
  in
  (* ERC006 already reports a fully noiseless output; the phase-aware
     rules would only restate it per source *)
  let reach = if erc006 <> [] then [] else reach in

  let findings =
    Finding.sort
      (erc001 @ erc002 @ switch_rules @ erc006 @ erc008 @ erc011 @ reach)
  in
  Finding.record findings;
  findings

let check_elab (e : Elab.t) =
  let locate_element name = List.assoc_opt name e.Elab.element_locs in
  let locate_node name = List.assoc_opt name e.Elab.node_locs in
  let structural =
    check ~output:e.Elab.output_node ~locate_element ~locate_node
      e.Elab.netlist e.Elab.clock
  in
  let erc007 =
    List.map
      (fun (pname, loc) ->
        Finding.make ~loc ~anchor:("param:" ^ pname)
          ~rule:"ERC007-unused-param" ~severity:Finding.Warning ~subject:pname
          (Printf.sprintf "parameter %S is never used" pname))
      e.Elab.unused_params
  in
  let erc009 =
    let nyquist = 0.5 /. Clock.period e.Elab.clock in
    let over ~anchor what f loc =
      if f > nyquist then
        Some
          (Finding.make ~loc ~anchor ~rule:"ERC009-nyquist"
             ~severity:Finding.Warning ~subject:what
             (Printf.sprintf
                "%s fmax %g Hz is beyond the clock Nyquist frequency %g Hz; \
                 the spectrum there aliases the baseband"
                what f nyquist))
      else None
    in
    List.mapi
      (fun i (a, loc) ->
        let anchor = "analysis:" ^ string_of_int i in
        match a with
        | Elab.Psd { fmax = Some f; _ } -> over ~anchor ".psd" f loc
        | Elab.Transfer { fmax = Some f; _ } -> over ~anchor ".transfer" f loc
        | _ -> None)
      e.Elab.analyses
    |> List.filter_map Fun.id
  in
  let units =
    time_pass "units" (fun () ->
        let erc014 = Units.check_dims e in
        let erc015 =
          Units.check_bandwidth
            (Sparsity.of_netlist e.Elab.netlist e.Elab.clock)
            e
        in
        erc014 @ erc015)
  in
  let deck_only = erc007 @ erc009 @ units in
  Finding.record deck_only;
  Finding.sort (structural @ deck_only)

(* Re-derive a finding's location from its position-free anchor against
   any elaboration with the same canonical hash: the serve tier caches
   verdicts without positions and calls this per request, so a warm hit
   from a differently-laid-out deck still gets correct carets. *)
let resolve_anchor (e : Elab.t) anchor =
  match String.index_opt anchor ':' with
  | None -> None
  | Some i -> (
      let kind = String.sub anchor 0 i in
      let arg = String.sub anchor (i + 1) (String.length anchor - i - 1) in
      let nth_opt l n = if n < 0 then None else List.nth_opt l n in
      match kind with
      | "element" -> List.assoc_opt arg e.Elab.element_locs
      | "node" -> List.assoc_opt arg e.Elab.node_locs
      | "param" -> (
          match List.assoc_opt arg e.Elab.param_exprs with
          | Some x -> Some x.Scnoise_lang.Ast.eloc
          | None -> List.assoc_opt arg e.Elab.unused_params)
      | "slot" ->
          Option.bind (int_of_string_opt arg) (nth_opt e.Elab.value_slots)
          |> Option.map (fun (s : Elab.slot) ->
                 s.Elab.slot_expr.Scnoise_lang.Ast.eloc)
      | "analysis" ->
          Option.bind (int_of_string_opt arg) (nth_opt e.Elab.analyses)
          |> Option.map snd
      | _ -> None)

let ill_conditioned_count () = Obs.counter_value "lu_ill_conditioned"

let ill_conditioned ~since =
  let now = ill_conditioned_count () in
  if now > since then
    [
      Finding.make ~rule:"ERC010-ill-conditioned" ~severity:Finding.Warning
        ~subject:"lu"
        (Printf.sprintf
           "%d LU factorisation%s had an estimated condition number worse \
            than 1e12; results may have lost most of their precision"
           (now - since)
           (plural (now - since)));
    ]
  else []
