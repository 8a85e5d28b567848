type t = {
  headers : string list;
  mutable rows : string list list; (* reversed *)
}

let create headers = { headers; rows = [] }

let add_row t cells =
  let nh = List.length t.headers and nc = List.length cells in
  if nc > nh then invalid_arg "Table.add_row: more cells than headers";
  let padded =
    if nc = nh then cells else cells @ List.init (nh - nc) (fun _ -> "")
  in
  t.rows <- padded :: t.rows

let float_cell precision x = Printf.sprintf "%.*g" precision x

let add_float_row t ?(precision = 6) label xs =
  add_row t (label :: List.map (float_cell precision) xs)

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let width j =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row j with
        | None -> acc
        | Some cell -> max acc (String.length cell))
      0 all
  in
  let widths = List.init ncols width in
  let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line row = String.concat "  " (List.map2 pad widths row) in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line t.headers :: sep :: List.map line rows)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line row = String.concat "," (List.map csv_cell row) in
  String.concat "\n" (List.map line (t.headers :: List.rev t.rows)) ^ "\n"

let save_csv t path =
  let oc = open_out path in
  (try output_string oc (to_csv t)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let print t =
  print_string (render t);
  print_newline ()

let series ?(x_label = "x") ?y_labels xs yss =
  let n = Array.length xs in
  List.iter
    (fun ys ->
      if Array.length ys <> n then
        invalid_arg "Table.series: length mismatch")
    yss;
  let labels =
    match y_labels with
    | Some ls ->
        if List.length ls <> List.length yss then
          invalid_arg "Table.series: y_labels length mismatch";
        ls
    | None -> List.mapi (fun i _ -> Printf.sprintf "y%d" (i + 1)) yss
  in
  let t = create (x_label :: labels) in
  for i = 0 to n - 1 do
    add_row t
      (float_cell 6 xs.(i) :: List.map (fun ys -> float_cell 6 ys.(i)) yss)
  done;
  render t
