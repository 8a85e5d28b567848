module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Cx = Scnoise_linalg.Cx
module Cvec = Scnoise_linalg.Cvec
module Pwl = Scnoise_circuit.Pwl
module Transfer = Scnoise_core.Transfer
module Contrib = Scnoise_core.Contrib

type engine = {
  sys : Pwl.t;
  transfer : Transfer.engine;
  labels : string list;
  (* per source label, the per-phase intensity column (zero when the
     source is inactive in a phase) *)
  columns : (string * Vec.t array) list;
}

let prepare ?samples_per_phase sys ~output =
  let transfer = Transfer.prepare ?samples_per_phase sys ~output in
  let labels = Contrib.source_labels sys in
  let n = sys.Pwl.nstates in
  let column_of_phase label (ph : Pwl.phase) =
    let rec find j =
      if j >= Array.length ph.Pwl.noise_labels then Vec.create n
      else if ph.Pwl.noise_labels.(j) = label then Mat.col ph.Pwl.b j
      else find (j + 1)
    in
    find 0
  in
  let columns =
    List.map
      (fun label ->
        (label, Array.map (column_of_phase label) sys.Pwl.phases))
      labels
  in
  { sys; transfer; labels; columns }

let source_labels e = e.labels

(* |H_{j,k}(f - k f_clk)|^2 for all k: each k needs its own solve because
   the input frequency shifts with k. *)
let per_source_sum e cols ~f ~k_max =
  let fc = 1.0 /. e.sys.Pwl.period in
  let acc = ref 0.0 in
  for k = -k_max to k_max do
    let f_in = f -. (float_of_int k *. fc) in
    (* only the k-th harmonic of this solve lands back at [f] *)
    let h =
      Transfer.response e.transfer
        ~forcing:(fun p -> Cvec.of_real cols.(p))
        ~f:f_in ~k_range:(abs k)
    in
    let hk = h.(k + abs k) in
    acc := !acc +. (Cx.modulus hk ** 2.0)
  done;
  !acc

let psd_per_source e ~f ~k_max =
  if k_max < 0 then invalid_arg "Freq_domain.psd_per_source: k_max < 0";
  List.map
    (fun (label, cols) -> (label, per_source_sum e cols ~f ~k_max))
    e.columns

let psd e ~f ~k_max =
  List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (psd_per_source e ~f ~k_max)
