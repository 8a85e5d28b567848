module Mat = Scnoise_linalg.Mat
module Vec = Scnoise_linalg.Vec
module Expm = Scnoise_linalg.Expm
module Eig = Scnoise_linalg.Eig

type phase = {
  tau : float;
  a : Mat.t;
  b : Mat.t;
  q : Mat.t;
  e : Mat.t;
  e_dot : Mat.t;
  noise_labels : string array;
}

type input = { label : string; waveform : float -> float }

type t = {
  period : float;
  phases : phase array;
  nstates : int;
  state_names : string array;
  inputs : input array;
  observables : (string * Vec.t) list;
}

let n_phases t = Array.length t.phases

let phase_at t time =
  let tm = Float.rem time t.period in
  let tm = if tm < 0.0 then tm +. t.period else tm in
  let n = n_phases t in
  let rec find i start =
    let tau = t.phases.(i).tau in
    if i = n - 1 || tm < start +. tau then (i, tm -. start)
    else find (i + 1) (start +. tau)
  in
  find 0 0.0

let observable t name = List.assoc name t.observables

let state_index t name =
  let rec find i =
    if i >= t.nstates then raise Not_found
    else if t.state_names.(i) = name then i
    else find (i + 1)
  in
  find 0

let input_vector t time =
  Array.map (fun inp -> inp.waveform time) t.inputs

let input_derivative t time =
  let h = t.period *. 1e-7 in
  Array.map
    (fun inp -> (inp.waveform (time +. h) -. inp.waveform (time -. h)) /. (2.0 *. h))
    t.inputs

let forcing t p time =
  if p < 0 || p >= n_phases t then invalid_arg "Pwl.forcing: bad phase";
  let ph = t.phases.(p) in
  if Array.length t.inputs = 0 then Vec.create t.nstates
  else begin
    let u = input_vector t time in
    let du = input_derivative t time in
    Vec.add (Mat.mul_vec ph.e u) (Mat.mul_vec ph.e_dot du)
  end

let monodromy t =
  Array.fold_left
    (fun acc ph -> Mat.mul (Expm.expm_scaled ph.a ph.tau) acc)
    (Mat.identity t.nstates) t.phases

let floquet_multipliers t = Eig.eigenvalues (monodromy t)

(* A QR iteration that does not converge shows nothing about the
   spectrum: the radius is taken as infinite, so the circuit counts as
   not stable. *)
let floquet_radius t =
  try Eig.spectral_radius (monodromy t)
  with Eig.No_convergence _ -> Float.infinity

let is_stable ?(margin = 0.0) t = floquet_radius t < 1.0 -. margin

let validate t =
  let n = t.nstates in
  if Array.length t.state_names <> n then
    invalid_arg "Pwl.validate: state_names length";
  if n_phases t = 0 then invalid_arg "Pwl.validate: no phases";
  let total = Array.fold_left (fun acc p -> acc +. p.tau) 0.0 t.phases in
  if abs_float (total -. t.period) > 1e-9 *. t.period then
    invalid_arg "Pwl.validate: phase durations do not sum to the period";
  Array.iter
    (fun p ->
      if p.tau <= 0.0 then invalid_arg "Pwl.validate: non-positive tau";
      if Mat.rows p.a <> n || Mat.cols p.a <> n then
        invalid_arg "Pwl.validate: A dimensions";
      if Mat.rows p.b <> n then invalid_arg "Pwl.validate: B rows";
      if Array.length p.noise_labels <> Mat.cols p.b then
        invalid_arg "Pwl.validate: noise labels";
      if Mat.rows p.q <> n || Mat.cols p.q <> n then
        invalid_arg "Pwl.validate: Q dimensions";
      if Mat.rows p.e <> n || Mat.cols p.e <> Array.length t.inputs then
        invalid_arg "Pwl.validate: E dimensions";
      if Mat.rows p.e_dot <> n || Mat.cols p.e_dot <> Array.length t.inputs
      then invalid_arg "Pwl.validate: Edot dimensions")
    t.phases;
  List.iter
    (fun (_, row) ->
      if Array.length row <> n then invalid_arg "Pwl.validate: observable row")
    t.observables
