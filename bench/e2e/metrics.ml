(* Metric catalogue, order statistics and the result line.

   The catalogue is the benchmark's vocabulary: BENCHMARK.json at the
   repository root names a subset of it (the smoke test checks that
   every name there is emitted with the unit given here). *)

module Json = Scnoise_obs.Json

(* What a user of `scnoise psd` or `scnoise serve` sees. *)
let end_to_end =
  [
    ("request_p50_ms", "ms");
    ("throughput_rps", "1/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

(* Correctness summaries: part of every full record, not of the
   bounded end-to-end set (they are 0 on a correct run). *)
let correctness = [ ("max_err_db", "dB"); ("fail_ratio", "ratio") ]

let stage_metrics =
  List.concat_map
    (fun s -> [ (s ^ ".ms", "ms"); (s ^ ".share", "ratio"); (s ^ ".alloc_kb", "kB") ])
    (Array.to_list Pipeline.stages)

(* The request tail is a user-visible number too, but the ten slowest
   requests of a run catch every stall of a shared machine: its
   run-to-run spread is too wide for a regression bound. *)
let per_layer =
  [ ("request_tail_ms", "ms") ]
  @ stage_metrics
  @ [ ("e2e.coverage", "ratio"); ("e2e.unattributed_ms", "ms") ]
  @ List.map (fun p -> (p.Pipeline.metric, "count")) (Array.to_list Pipeline.probes)
  @ [
      ("core.covariance.peak_rank", "count");
      ("core.covariance.ks_kb", "kB");
      ("core.sweep.ms_per_point", "ms");
      ("core.sweep.batch_width", "count");
      ("serve.result.ms", "ms");
      ("serve.prepared.ms", "ms");
      ("serve.cold.ms", "ms");
      ("serve.transport.ms", "ms");
      ("serve.result_share", "ratio");
      ("serve.prepared_share", "ratio");
      ("serve.cold_share", "ratio");
      ("serve.evictions", "count");
      ("serve.canon_hash.ms", "ms");
      ("trace_overhead_pct", "%");
    ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ correctness @ per_layer) with
  | Some u -> u
  | None -> if String.ends_with ~suffix:"_ms" name then "ms" else "count"

(* Linear interpolation between order statistics (Hyndman-Fan type 7);
   0 on an empty sample. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float (Float.floor pos) in
      let j = min (Array.length a - 1) (i + 1) in
      a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile 0.5 xs

(* The highest quantile with at least ten samples above it, and never
   below the median. *)
let tail_q n = Float.max 0.5 (1.0 -. (10.0 /. float_of_int (max 1 n)))

let sum xs = List.fold_left ( +. ) 0.0 xs

let db_error a g =
  if a = g then 0.0
  else if a > 0.0 && g > 0.0 then Float.abs (10.0 *. log10 (a /. g))
  else infinity

(* The result is the last line of standard output: one JSON object on
   one line. *)
let one_line j =
  String.concat "" (List.map String.trim (String.split_on_char '\n' (Json.to_string j)))

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
       metrics)

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", metrics_json metrics);
    ]
