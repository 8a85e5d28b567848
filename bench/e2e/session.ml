(* A workload once it is set up: the requests it can issue and the
   numbers only it can report. *)

type t = {
  run : int -> Pipeline.record * float * string option;
      (** Issue request [i] of the seeded stream: its cost, its worst
          deviation in dB from the workload's references, and what was
          wrong with its output, if anything.  Raises when the request
          itself fails. *)
  warmup : int;  (** requests [0 .. warmup-1] belong to set-up *)
  layer : Pipeline.record list -> (string * float) list;
      (** Workload-specific per-layer metrics over the measured records;
          they take precedence over the generic ones. *)
  close : unit -> Scnoise_obs.Obs.span list;
      (** Stop what the workload started; returns spans recorded on
          domains the workload owns, for the trace. *)
}

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let tolerance_db = 1e-9

(* Worst dB deviation of [values] from [golden]; infinite on a length
   mismatch. *)
let golden_error ~golden values =
  if Array.length golden <> Array.length values then infinity
  else
    Array.fold_left Float.max 0.0 (Array.map2 Metrics.db_error values golden)
