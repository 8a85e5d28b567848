module Sparsity = Scnoise_circuit.Sparsity

let rtol = 1e-12

let rule = "ERC011-structural-singular"

(* ---- maximum bipartite matching (Kuhn's algorithm) ----

   [adj.(r)] lists the column indices row [r] may be matched to.
   Returns the matching as [match_of_col] (col → row or -1) plus the
   list of unmatched rows. *)
let kuhn n_rows n_cols adj =
  let match_of_col = Array.make n_cols (-1) in
  let visited = Array.make n_cols false in
  let rec try_row r =
    List.exists
      (fun c ->
        if visited.(c) then false
        else begin
          visited.(c) <- true;
          if match_of_col.(c) = -1 || try_row match_of_col.(c) then begin
            match_of_col.(c) <- r;
            true
          end
          else false
        end)
      adj.(r)
  in
  let unmatched = ref [] in
  for r = n_rows - 1 downto 0 do
    Array.fill visited 0 n_cols false;
    if not (try_row r) then unmatched := r :: !unmatched
  done;
  (match_of_col, !unmatched)

(* Hall violator: rows reachable from the unmatched rows by alternating
   paths (row → adjacent col → that col's matched row).  Its
   neighbourhood is strictly smaller than itself — the minimal
   structurally deficient row set of the DM decomposition. *)
let hall_violator n_rows adj match_of_col unmatched =
  let in_z = Array.make n_rows false in
  let rec grow r =
    if not in_z.(r) then begin
      in_z.(r) <- true;
      List.iter
        (fun c -> if match_of_col.(c) >= 0 then grow match_of_col.(c))
        adj.(r)
    end
  in
  List.iter grow unmatched;
  List.filter (fun r -> in_z.(r)) (List.init n_rows Fun.id)

(* [floating.(p).(i)] is ERC001's per-phase floating set: those defects
   are already reported exactly, so every analysis below skips them. *)
let check ~node_name ~locate_node ~floating (sp : Sparsity.t) =
  let tol = rtol in
  let n = sp.Sparsity.n_nodes + 1 in
  let nph = sp.Sparsity.n_phases in
  let classes = sp.Sparsity.classes in
  let held i =
    match classes.(i) with
    | Sparsity.Ground | Sparsity.Driven_vsource | Sparsity.Driven_opamp -> true
    | Sparsity.Dynamic | Sparsity.Resistive -> false
  in
  let findings = ref [] in
  let reported : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let set_names nodes = List.map node_name (List.sort compare nodes) in
  let emit ~phase nodes message =
    let names = set_names nodes in
    let key =
      String.concat "," names
      ^ "@"
      ^ match phase with Some p -> string_of_int p | None -> "*"
    in
    if not (Hashtbl.mem reported key) then begin
      Hashtbl.add reported key ();
      let subject = List.hd names in
      findings :=
        Finding.make
          ?loc:(locate_node subject)
          ~anchor:("node:" ^ subject) ~rule ~severity:Finding.Error ~subject
          message
        :: !findings
    end
  in
  let braces names = "{" ^ String.concat ", " names ^ "}" in

  (* ---- Laplacian-block grounding strength ----

     A block of the form [L + g_gnd] with internal couplings ~S and
     total reference coupling g is a Laplacian pinned by g: its
     condition number is ~S/g however full its pattern is.  Flag blocks
     with 0 < g < tol*S; g = 0 exactly is ERC002 (capacitors) or ERC001
     (resistive nodes cut off entirely). *)
  let lap_block ~phase ~members ~internal_edges ~ground_strength ~what ~unit =
    let g = Graph.create n in
    List.iter (fun (a, b, _) -> Graph.union g a b) internal_edges;
    let comps : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun i ->
        let r = Graph.find g i in
        match Hashtbl.find_opt comps r with
        | Some l -> l := i :: !l
        | None -> Hashtbl.add comps r (ref [ i ]))
      members;
    let scale : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let bump root v =
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt scale root) in
      if v > cur then Hashtbl.replace scale root v
    in
    List.iter
      (fun (a, _, v) -> bump (Graph.find g a) v)
      internal_edges;
    let ground : (int, float) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (i, v) ->
        let r = Graph.find g i in
        bump r v;
        Hashtbl.replace ground r
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt ground r)))
      ground_strength;
    Hashtbl.iter
      (fun root members ->
        let members = !members in
        let gnd = Option.value ~default:0.0 (Hashtbl.find_opt ground root) in
        let s = Option.value ~default:0.0 (Hashtbl.find_opt scale root) in
        if gnd > 0.0 && s > 0.0 && gnd < tol *. s then
          let phase_s =
            match phase with
            | Some p -> Printf.sprintf "in phase %d" p
            | None -> "in every phase"
          in
          emit ~phase members
            (Printf.sprintf
               "%s %s is tied to its reference only through %g %s against an \
                internal scale of %g %s (ratio %.1e, below the %g structural \
                tolerance): its MNA block is structurally singular %s; \
                strengthen the parasitic path or merge the nodes"
               what
               (braces (set_names members))
               gnd unit s unit (gnd /. s) tol phase_s))
      comps
  in

  (* capacitor blocks: C_dd is phase independent *)
  let dyn_members =
    List.filter (fun i -> classes.(i) = Sparsity.Dynamic)
      (List.init (n - 1) (fun k -> k + 1))
  in
  let cap_internal =
    List.filter_map
      (fun (e : Sparsity.cap_edge) ->
        let a = e.Sparsity.c_n1 and b = e.Sparsity.c_n2 in
        if a > 0 && b > 0 && (not (held a)) && not (held b) then
          Some (a, b, e.Sparsity.c)
        else None)
      sp.Sparsity.cap_edges
  in
  let cap_ground =
    List.concat_map
      (fun (e : Sparsity.cap_edge) ->
        let a = e.Sparsity.c_n1 and b = e.Sparsity.c_n2 in
        let ha = a = 0 || held a and hb = b = 0 || held b in
        if ha && not hb then [ (b, e.Sparsity.c) ]
        else if hb && not ha then [ (a, e.Sparsity.c) ]
        else [])
      sp.Sparsity.cap_edges
  in
  lap_block ~phase:None ~members:dyn_members ~internal_edges:cap_internal
    ~ground_strength:cap_ground ~what:"capacitor block" ~unit:"F";

  (* resistive blocks: one G_rr per phase *)
  let res_members =
    List.filter (fun i -> classes.(i) = Sparsity.Resistive)
      (List.init (n - 1) (fun k -> k + 1))
  in
  for p = 0 to nph - 1 do
    let members = List.filter (fun i -> not floating.(p).(i)) res_members in
    let internal =
      List.filter_map
        (fun (e : Sparsity.cond_edge) ->
          let a = e.Sparsity.g_n1 and b = e.Sparsity.g_n2 in
          if
            a > 0 && b > 0
            && classes.(a) = Sparsity.Resistive
            && classes.(b) = Sparsity.Resistive
          then Some (a, b, e.Sparsity.g)
          else None)
        sp.Sparsity.cond_edges.(p)
    in
    let ground_strength =
      List.concat_map
        (fun (e : Sparsity.cond_edge) ->
          let a = e.Sparsity.g_n1 and b = e.Sparsity.g_n2 in
          let res i = i > 0 && classes.(i) = Sparsity.Resistive in
          if res a && not (res b) then [ (a, e.Sparsity.g) ]
          else if res b && not (res a) then [ (b, e.Sparsity.g) ]
          else [])
        sp.Sparsity.cond_edges.(p)
    in
    lap_block ~phase:(Some p) ~members ~internal_edges:internal
      ~ground_strength ~what:"resistive node set" ~unit:"S"
  done;

  (* ---- matching-based structural rank ----

     Entries below tol * (block scale) are structural zeros; a row whose
     every coefficient is negligible relative to the block it is
     factored with makes the block numerically rank-deficient even
     though connectivity is fine.  The bipartite matching names the
     minimal deficient node set (Hall violator). *)
  let matching_pass ~phase rows entries what =
    match rows with
    | [] -> ()
    | _ ->
        let idx : (int, int) Hashtbl.t = Hashtbl.create 16 in
        List.iteri (fun k i -> Hashtbl.add idx i k) rows;
        let nr = List.length rows in
        let mags : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
        let addm i j v =
          match (Hashtbl.find_opt idx i, Hashtbl.find_opt idx j) with
          | Some r, Some c ->
              let k = (r, c) in
              Hashtbl.replace mags k
                (v +. Option.value ~default:0.0 (Hashtbl.find_opt mags k))
          | _ -> ()
        in
        List.iter (fun (i, j, v) -> addm i j v) entries;
        let scale = Hashtbl.fold (fun _ v acc -> Float.max v acc) mags 0.0 in
        if scale > 0.0 then begin
          let adj = Array.make nr [] in
          Hashtbl.iter
            (fun (r, c) v -> if v >= tol *. scale then adj.(r) <- c :: adj.(r))
            mags;
          let match_of_col, unmatched = kuhn nr nr adj in
          if unmatched <> [] then begin
            let viol = hall_violator nr adj match_of_col unmatched in
            let row_arr = Array.of_list rows in
            let nodes = List.map (fun r -> row_arr.(r)) viol in
            let phase_s =
              match phase with
              | Some p -> Printf.sprintf "in phase %d" p
              | None -> "in every phase"
            in
            emit ~phase nodes
              (Printf.sprintf
                 "%s %s fails structural rank %s: after dropping coefficients \
                  below %g of the block scale (%g), %d of its %d equations \
                  cannot be matched to independent unknowns"
                 what
                 (braces (set_names nodes))
                 phase_s tol scale (List.length unmatched) nr)
          end
        end
  in

  (* C_dd pattern: diagonal gets every incident stamp, off-diagonals the
     couplings between two dynamic nodes; skip ERC002 islands (no held
     coupling at all — reported exactly there) *)
  let grounded_dyn =
    let g = Graph.create n in
    List.iter (fun (a, b, _) -> Graph.union g a b) cap_internal;
    let gnd_roots = Hashtbl.create 8 in
    List.iter (fun (i, _) -> Hashtbl.replace gnd_roots (Graph.find g i) ()) cap_ground;
    List.filter (fun i -> Hashtbl.mem gnd_roots (Graph.find g i)) dyn_members
  in
  let cap_entries =
    List.concat_map
      (fun (e : Sparsity.cap_edge) ->
        let a = e.Sparsity.c_n1 and b = e.Sparsity.c_n2 in
        let c = e.Sparsity.c in
        let diag i = if i > 0 then [ (i, i, c) ] else [] in
        diag a @ diag b
        @ if a > 0 && b > 0 then [ (a, b, c); (b, a, c) ] else [])
      sp.Sparsity.cap_edges
  in
  matching_pass ~phase:None grounded_dyn cap_entries "capacitor block";

  (* G_rr pattern per phase, including one-sided gm stamps landing in
     resistive rows *)
  for p = 0 to nph - 1 do
    let rows = List.filter (fun i -> not floating.(p).(i)) res_members in
    let cond_entries =
      List.concat_map
        (fun (e : Sparsity.cond_edge) ->
          let a = e.Sparsity.g_n1 and b = e.Sparsity.g_n2 in
          let g = e.Sparsity.g in
          let diag i = if i > 0 then [ (i, i, g) ] else [] in
          diag a @ diag b
          @ if a > 0 && b > 0 then [ (a, b, g); (b, a, g) ] else [])
        sp.Sparsity.cond_edges.(p)
    in
    let gm_entries =
      List.concat_map
        (fun (s : Sparsity.sense) ->
          if s.Sparsity.s_integrator then []
          else
            let out = s.Sparsity.s_out and gm = s.Sparsity.s_gain in
            List.filter_map
              (fun i -> if i > 0 then Some (out, i, gm) else None)
              [ s.Sparsity.s_plus; s.Sparsity.s_minus ])
        sp.Sparsity.senses
    in
    matching_pass ~phase:(Some p) rows (cond_entries @ gm_entries)
      "resistive node set"
  done;

  List.rev !findings
