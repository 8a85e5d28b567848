(* Per-workload reference values recorded by `e2e.exe golden`, one file
   per workload under [golden/]: a JSON object mapping a key ("psd" for
   the single-deck workloads, "<deck>/<op>[/<range>]" for serve-mix) to
   an array of positive values compared in dB. *)

module Json = Scnoise_obs.Json

let path ~dir workload =
  Filename.concat (Filename.concat dir "golden") (workload ^ ".json")

let load ~dir workload =
  let j = Json.of_string (In_channel.with_open_bin (path ~dir workload) In_channel.input_all) in
  List.map
    (fun (key, v) ->
      (key, Array.of_list (List.map Json.to_float_exn (Json.to_list_exn v))))
    (Json.to_obj_exn j)

let save ~dir workload entries =
  let j =
    Json.Obj
      (List.map
         (fun (key, values) ->
           (key, Json.List (Array.to_list (Array.map (fun x -> Json.Num x) values))))
         entries)
  in
  Out_channel.with_open_bin (path ~dir workload) (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

let find entries key =
  match List.assoc_opt key entries with
  | Some v -> v
  | None -> failwith ("golden: no entry " ^ key)
