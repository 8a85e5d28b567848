module Mat = Scnoise_linalg.Mat
module Pwl = Scnoise_circuit.Pwl
module Vec = Scnoise_linalg.Vec

let source_labels (sys : Pwl.t) =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun (ph : Pwl.phase) ->
      Array.iter
        (fun l ->
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.add seen l ();
            order := l :: !order
          end)
        ph.Pwl.noise_labels)
    sys.Pwl.phases;
  List.rev !order

let restrict (sys : Pwl.t) ~keep =
  let phases =
    Array.map
      (fun (ph : Pwl.phase) ->
        let cols =
          List.filteri
            (fun j _ -> keep ph.Pwl.noise_labels.(j))
            (Array.to_list (Array.init (Mat.cols ph.Pwl.b) (fun j -> j)))
        in
        let b =
          if cols = [] then Mat.create (Mat.rows ph.Pwl.b) 0
          else
            Mat.submatrix ph.Pwl.b
              ~rows:(List.init (Mat.rows ph.Pwl.b) (fun i -> i))
              ~cols
        in
        let labels =
          Array.of_list
            (List.filter keep (Array.to_list ph.Pwl.noise_labels))
        in
        {
          ph with
          Pwl.b;
          q = Mat.mul b (Mat.transpose b);
          noise_labels = labels;
        })
      sys.Pwl.phases
  in
  { sys with Pwl.phases }

let per_source_psd ?samples_per_phase sys ~output ~f =
  List.map
    (fun label ->
      let restricted = restrict sys ~keep:(fun l -> l = label) in
      let engine = Psd.prepare ?samples_per_phase restricted ~output in
      (label, Psd.psd engine ~f))
    (source_labels sys)

let check_additivity ?samples_per_phase sys ~output ~f =
  let total = Psd.psd (Psd.prepare ?samples_per_phase sys ~output) ~f in
  let parts = per_source_psd ?samples_per_phase sys ~output ~f in
  let sum = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 parts in
  if total = 0.0 then abs_float sum else abs_float (sum -. total) /. total
