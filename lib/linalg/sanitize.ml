(* The gate is a plain [bool ref] read once per checked operation; the
   scans themselves only run when the gate is open, so the default cost
   is one load + branch per call — negligible next to the O(n^3) work
   the checks guard. *)

exception Nonfinite of string

let gate =
  ref
    (match Sys.getenv_opt "SCNOISE_SANITIZE" with
    | None | Some ("" | "0" | "false" | "no") -> false
    | Some _ -> true)

let enabled () = !gate

let set_enabled b = gate := b

let c_trips = Scnoise_obs.Obs.counter "sanitize.nonfinite"

let fail op detail =
  Scnoise_obs.Obs.incr c_trips;
  raise (Nonfinite (Printf.sprintf "%s: %s" op detail))

let check_vec op (v : Vec.t) =
  if !gate then
    Array.iteri
      (fun i x ->
        if not (Float.is_finite x) then
          fail op (Printf.sprintf "non-finite entry %h at index %d" x i))
      v

let check_mat op m =
  if !gate then
    for i = 0 to Mat.rows m - 1 do
      for j = 0 to Mat.cols m - 1 do
        let x = Mat.get m i j in
        if not (Float.is_finite x) then
          fail op (Printf.sprintf "non-finite entry %h at (%d,%d)" x i j)
      done
    done

(* Panels are raw buffers with no dimension of their own; report the
   (state, column) coordinates for the given width. *)
let check_panel op ~width (p : Cvec.panel) =
  if !gate then
    for k = 0 to Array.length p - 1 do
      if not (Float.is_finite p.(k)) then
        let e = k / 2 in
        fail op
          (Printf.sprintf "non-finite value %h at (state %d, column %d)" p.(k)
             (e / width) (e mod width))
    done
