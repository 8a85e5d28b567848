module Obs = Scnoise_obs.Obs
module Json = Scnoise_obs.Json
module Export = Scnoise_obs.Export
module Hist = Scnoise_obs.Hist
module Trace = Scnoise_obs.Trace
module Bench_diff = Scnoise_obs.Bench_diff
module Clock = Scnoise_obs.Clock
module Pool = Scnoise_par.Pool
module Psd = Scnoise_core.Psd
module SRC = Scnoise_circuits.Switched_rc
module Grid = Scnoise_util.Grid

(* Every test starts from a clean, disabled registry. *)
let fresh () =
  Obs.disable ();
  Obs.reset ()

(* Naive substring check, enough for asserting on error messages. *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- counters --- *)

let test_counter_basics () =
  fresh ();
  let c = Obs.counter "test.alpha" in
  Alcotest.(check int) "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  Alcotest.(check int) "incremented" 42 (Obs.value c);
  Alcotest.(check int) "lookup by name" 42 (Obs.counter_value "test.alpha");
  let c' = Obs.counter "test.alpha" in
  Obs.incr c';
  Alcotest.(check int) "same handle for same name" 43 (Obs.value c);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.value c);
  Alcotest.(check int) "unknown name reads zero" 0
    (Obs.counter_value "test.never-registered")

let test_counters_count_when_disabled () =
  fresh ();
  let c = Obs.counter "test.disabled" in
  Alcotest.(check bool) "disabled" false (Obs.is_enabled ());
  Obs.incr c;
  Alcotest.(check int) "counters are always on" 1 (Obs.value c)

(* --- timers --- *)

let test_timer_accumulates () =
  fresh ();
  let t = Obs.timer "test.timer" in
  let x = Obs.time t (fun () -> 40 + 2) in
  Alcotest.(check int) "returns body value" 42 x;
  ignore (Obs.time t (fun () -> ()));
  Alcotest.(check int) "two measurements" 2 (Obs.timer_count t);
  Alcotest.(check bool) "non-negative total" true (Obs.timer_total t >= 0.0)

(* --- spans --- *)

let test_span_disabled_is_noop () =
  fresh ();
  let r = Obs.with_span "test.off" (fun () -> 7) in
  Alcotest.(check int) "value passes through" 7 r;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "no spans recorded" 0
    (List.length snap.Obs.snap_spans)

let test_span_nesting () =
  fresh ();
  Obs.enable ();
  let r =
    Obs.with_span "outer" (fun () ->
        let a = Obs.with_span "inner1" (fun () -> 1) in
        let b = Obs.with_span "inner2" (fun () -> 2) in
        a + b)
  in
  Obs.disable ();
  Alcotest.(check int) "value" 3 r;
  let snap = Obs.snapshot () in
  match snap.Obs.snap_spans with
  | [ outer ] ->
      Alcotest.(check string) "root name" "outer" outer.Obs.sp_name;
      (match outer.Obs.sp_children with
      | [ i1; i2 ] ->
          Alcotest.(check string) "child order" "inner1" i1.Obs.sp_name;
          Alcotest.(check string) "child order" "inner2" i2.Obs.sp_name;
          Alcotest.(check bool) "children start after parent" true
            (i1.Obs.sp_start >= outer.Obs.sp_start);
          Alcotest.(check bool) "inner2 starts after inner1 ends" true
            (i2.Obs.sp_start >= i1.Obs.sp_start +. i1.Obs.sp_duration -. 1e-9);
          Alcotest.(check bool) "parent wall time covers children" true
            (outer.Obs.sp_duration
            >= i1.Obs.sp_duration +. i2.Obs.sp_duration -. 1e-9)
      | l -> Alcotest.failf "expected 2 children, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 root span, got %d" (List.length l)

let test_span_survives_exception () =
  fresh ();
  Obs.enable ();
  (try
     Obs.with_span "outer" (fun () ->
         Obs.with_span "boom" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Obs.disable ();
  let snap = Obs.snapshot () in
  let names =
    Obs.fold_spans (fun acc sp -> sp.Obs.sp_name :: acc) [] snap
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "both spans closed despite the raise" [ "boom"; "outer" ] names

(* --- JSON exporter --- *)

let rec check_span_eq (a : Obs.span) (b : Obs.span) =
  Alcotest.(check string) "span name" a.Obs.sp_name b.Obs.sp_name;
  Alcotest.(check (float 0.0)) "span start" a.Obs.sp_start b.Obs.sp_start;
  Alcotest.(check (float 0.0)) "span duration" a.Obs.sp_duration
    b.Obs.sp_duration;
  Alcotest.(check int) "span children" (List.length a.Obs.sp_children)
    (List.length b.Obs.sp_children);
  List.iter2 check_span_eq a.Obs.sp_children b.Obs.sp_children

let test_json_roundtrip () =
  fresh ();
  Obs.enable ();
  Obs.add (Obs.counter "test.json_counter") 17;
  ignore (Obs.time (Obs.timer "test.json_timer") (fun () -> ()));
  Obs.with_span "root" (fun () -> Obs.with_span "child" (fun () -> ()));
  Obs.disable ();
  let snap = Obs.snapshot () in
  let back = Export.of_json_string (Export.to_json_string snap) in
  Alcotest.(check int) "counter survives" 17
    (List.assoc "test.json_counter" back.Obs.snap_counters);
  Alcotest.(check int) "counter list equal"
    (List.length snap.Obs.snap_counters)
    (List.length back.Obs.snap_counters);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "counter name" n1 n2;
      Alcotest.(check int) "counter value" v1 v2)
    snap.Obs.snap_counters back.Obs.snap_counters;
  List.iter2
    (fun (n1, (t1 : Obs.timer_stat)) (n2, t2) ->
      Alcotest.(check string) "timer name" n1 n2;
      Alcotest.(check (float 0.0)) "timer total" t1.Obs.tm_total
        t2.Obs.tm_total;
      Alcotest.(check int) "timer count" t1.Obs.tm_count t2.Obs.tm_count;
      Alcotest.(check (float 0.0)) "timer minor words" t1.Obs.tm_minor_words
        t2.Obs.tm_minor_words;
      Alcotest.(check (float 0.0)) "timer promoted words"
        t1.Obs.tm_promoted_words t2.Obs.tm_promoted_words)
    snap.Obs.snap_timers back.Obs.snap_timers;
  Alcotest.(check int) "span forest size"
    (List.length snap.Obs.snap_spans)
    (List.length back.Obs.snap_spans);
  List.iter2 check_span_eq snap.Obs.snap_spans back.Obs.snap_spans

let test_json_escaping () =
  let j =
    Json.Obj
      [ ("weird \"key\"\n", Json.Str "tab\there \\ done"); ("n", Json.Num 1.5) ]
  in
  match Json.of_string (Json.to_string j) with
  | Json.Obj [ (k, Json.Str v); (_, Json.Num x) ] ->
      Alcotest.(check string) "key" "weird \"key\"\n" k;
      Alcotest.(check string) "value" "tab\there \\ done" v;
      Alcotest.(check (float 0.0)) "number" 1.5 x
  | _ -> Alcotest.fail "unexpected parse shape"

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{} trailing"; "{\"a\" 1}" ]

(* --- histograms --- *)

let test_hist_log_buckets () =
  fresh ();
  let h = Hist.create "t.log" in
  for _ = 1 to 100 do
    Hist.record h 1e-6
  done;
  let s = Hist.snapshot h in
  Alcotest.(check int) "total" 100 (Hist.total s);
  let p50 = Hist.quantile s 0.5 in
  (* bucket resolution: half a decade, so within 10^0.25 of the value *)
  Alcotest.(check bool) "p50 in bucket" true
    (p50 > 1e-6 /. 1.79 && p50 < 1e-6 *. 1.79);
  Hist.record h 1.0;
  let s = Hist.snapshot h in
  Alcotest.(check bool) "max tracks the largest sample" true
    (Hist.max_value s > 0.5 && Hist.max_value s < 2.0);
  (* out-of-range and pathological values land in the edge buckets *)
  Hist.clear h;
  Hist.record h 0.0;
  Hist.record h (-3.0);
  Hist.record h Float.nan;
  Hist.record h 1e12;
  let s = Hist.snapshot h in
  Alcotest.(check int) "all recorded" 4 (Hist.total s);
  Alcotest.(check (float 0.0)) "underflow representative" 1e-10
    (Hist.min_value s);
  Alcotest.(check (float 0.0)) "overflow representative" 1e4 (Hist.max_value s)

let test_hist_counts_exact () =
  fresh ();
  let h = Hist.create ~mode:Hist.Counts "t.counts" in
  List.iter (Hist.record_int h) [ 0; 1; 1; 2; 2; 2; 7; 100 ];
  let s = Hist.snapshot h in
  Alcotest.(check int) "total" 8 (Hist.total s);
  Alcotest.(check (float 0.0)) "p50 exact" 2.0 (Hist.quantile s 0.5);
  Alcotest.(check (float 0.0)) "min exact" 0.0 (Hist.min_value s);
  (* >= 64 goes to the overflow bucket, reported as counts_max *)
  Alcotest.(check (float 0.0)) "overflow clamps" 64.0 (Hist.max_value s)

let test_hist_merge_and_empty () =
  let a = Hist.create "t.merge" in
  Hist.record a 1e-3;
  Hist.record a 1e-3;
  let sa = Hist.snapshot a in
  let m = Hist.merge sa sa in
  Alcotest.(check int) "merge adds counts" 4 (Hist.total m);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Hist.quantile (Hist.empty Hist.Log) 0.5));
  Alcotest.(check bool) "empty mean is nan" true
    (Float.is_nan (Hist.mean (Hist.empty Hist.Counts)));
  (match Hist.merge sa (Hist.empty Hist.Counts) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mode mismatch must be rejected");
  match Hist.quantile sa 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q outside [0,1] must be rejected"

let test_hist_registry () =
  fresh ();
  let h = Obs.histogram "test.reg_hist" in
  Obs.hist_record h 0.5;
  let h' = Obs.histogram "test.reg_hist" in
  Obs.hist_record h' 0.5;
  Alcotest.(check int) "same handle" 2 (Hist.total (Hist.snapshot h));
  (match Obs.histogram ~mode:Hist.Counts "test.reg_hist" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mode mismatch on an existing name must be rejected");
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "snapshot carries the histogram" true
    (List.mem_assoc "test.reg_hist" snap.Obs.snap_hists);
  Obs.reset ();
  Alcotest.(check int) "reset clears" 0 (Hist.total (Hist.snapshot h))

let test_hist_concurrent () =
  fresh ();
  let h = Obs.histogram "test.conc_hist" in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.hist_record h 1e-5
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Hist.total (Hist.snapshot h))

let test_hist_json_roundtrip () =
  fresh ();
  let h = Obs.histogram "test.json_hist" in
  let hc = Obs.histogram ~mode:Hist.Counts "test.json_hist_counts" in
  Hist.record h 1e-7;
  Hist.record h 3.0;
  Hist.record h 1e9;
  Hist.record_int hc 5;
  let snap = Obs.snapshot () in
  let back = Export.of_json_string (Export.to_json_string snap) in
  List.iter2
    (fun (n1, (s1 : Hist.snapshot)) (n2, s2) ->
      Alcotest.(check string) "hist name" n1 n2;
      Alcotest.(check bool) "hist mode" true (s1.Hist.s_mode = s2.Hist.s_mode);
      Alcotest.(check (array int)) "hist counts" s1.Hist.s_counts
        s2.Hist.s_counts)
    snap.Obs.snap_hists back.Obs.snap_hists

(* --- GC accounting --- *)

let test_span_gc_accounting () =
  fresh ();
  Obs.enable ();
  Obs.with_span "alloc" (fun () ->
      ignore (Sys.opaque_identity (List.init 2000 (fun i -> (i, i)))));
  Obs.disable ();
  let snap = Obs.snapshot () in
  match snap.Obs.snap_spans with
  | [ sp ] ->
      Alcotest.(check bool) "minor words captured" true
        (sp.Obs.sp_minor_words > 2000.0)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_timer_gc_accounting () =
  fresh ();
  let t = Obs.timer "test.gc_timer" in
  ignore
    (Obs.time t (fun () ->
         Sys.opaque_identity (List.init 2000 (fun i -> (i, i)))));
  Alcotest.(check bool) "timer minor words captured" true
    (Obs.timer_minor_words t > 2000.0)

(* --- trace timelines --- *)

(* Busy-wait so pool workers reliably claim chunks (no Unix dependency
   in the test binary beyond what Clock already links). *)
let spin seconds =
  let t0 = Clock.now () in
  while Clock.elapsed t0 < seconds do
    ignore (Sys.opaque_identity ())
  done

let test_trace_multitrack () =
  fresh ();
  let pool = Pool.create ~jobs:4 () in
  Obs.enable ();
  Obs.with_span "region" (fun () ->
      ignore (Pool.map pool (fun _ () -> spin 2e-3) (Array.make 32 ())));
  Obs.disable ();
  let snap = Obs.snapshot () in
  Pool.shutdown pool;
  Alcotest.(check bool) "at least two domain tracks" true
    (Trace.n_tracks snap >= 2);
  (match Trace.validate_string (Trace.to_string snap) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "emitted trace fails validation: %s" msg);
  (* chunk spans carry the pool job (item) index as args *)
  let chunk_args =
    Obs.fold_spans
      (fun acc sp ->
        if sp.Obs.sp_name = "pool.chunk" then sp.Obs.sp_args :: acc else acc)
      [] snap
  in
  Alcotest.(check bool) "pool.chunk spans present" true (chunk_args <> []);
  List.iter
    (fun args ->
      Alcotest.(check bool) "chunk carries first_item" true
        (List.mem_assoc "first_item" args);
      Alcotest.(check bool) "chunk carries items" true
        (List.mem_assoc "items" args))
    chunk_args

let test_trace_validator_rejects () =
  let bad =
    [
      ("{}", "missing");
      ("{\"traceEvents\": []}", "empty");
      ("{\"traceEvents\": 3}", "not an array");
      ("{\"traceEvents\": [4]}", "not an object");
      ("{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\"}]}", "lacks");
      ( "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 0, \
         \"dur\": -1, \"pid\": 1, \"tid\": 0}]}",
        "negative" );
      ("{\"traceEvents\": [{\"name\": \"a\"}]}", "ph");
      ("not json at all", "not json");
    ]
  in
  List.iter
    (fun (doc, needle) ->
      match Trace.validate_string doc with
      | Ok () -> Alcotest.failf "accepted invalid trace %s" doc
      | Error msg ->
          if not (contains_sub (String.lowercase_ascii msg) needle) then
            Alcotest.failf "unhelpful error %S (wanted %S)" msg needle)
    bad

(* --- bench regression gate --- *)

let timer_stat total count =
  {
    Obs.tm_total = total;
    tm_count = count;
    tm_minor_words = 0.0;
    tm_promoted_words = 0.0;
  }

let snap_with ?(counters = []) ?(timers = []) ?(hists = []) () =
  {
    Obs.snap_counters = counters;
    snap_timers = timers;
    snap_hists = hists;
    snap_spans = [];
  }

let test_bench_diff_self_is_clean () =
  let snap =
    snap_with
      ~counters:[ ("c", 100) ]
      ~timers:[ ("t", timer_stat 1.0 10) ]
      ()
  in
  let r = Bench_diff.diff ~baseline:snap ~current:snap () in
  Alcotest.(check int) "no regressions against self" 0
    r.Bench_diff.regressions;
  Alcotest.(check bool) "rows compared" true (r.Bench_diff.rows <> [])

let test_bench_diff_flags_inflation () =
  let base = snap_with ~timers:[ ("t", timer_stat 1.0 10) ] () in
  let cur = snap_with ~timers:[ ("t", timer_stat 10.0 10) ] () in
  let r = Bench_diff.diff ~baseline:base ~current:cur () in
  Alcotest.(check int) "10x slower flags" 1 r.Bench_diff.regressions;
  let r' = Bench_diff.diff ~baseline:cur ~current:base () in
  Alcotest.(check int) "10x faster is not a regression" 0
    r'.Bench_diff.regressions;
  Alcotest.(check bool) "but is an improvement" true
    (List.exists
       (fun row -> row.Bench_diff.r_verdict = Bench_diff.Improvement)
       r'.Bench_diff.rows)

let test_bench_diff_noise_floor () =
  (* +100% relative but far below the absolute floor: scheduling noise *)
  let base = snap_with ~timers:[ ("t", timer_stat 1e-5 10) ] () in
  let cur = snap_with ~timers:[ ("t", timer_stat 2e-5 10) ] () in
  let r = Bench_diff.diff ~baseline:base ~current:cur () in
  Alcotest.(check int) "sub-floor delta does not gate" 0
    r.Bench_diff.regressions

let test_bench_diff_one_sided_never_gates () =
  let base = snap_with ~counters:[ ("old", 5) ] () in
  let cur = snap_with ~counters:[ ("new", 50000) ] () in
  let r = Bench_diff.diff ~baseline:base ~current:cur () in
  Alcotest.(check int) "one-sided metrics never gate" 0
    r.Bench_diff.regressions;
  Alcotest.(check (list string)) "disappeared reported" [ "counter:old" ]
    r.Bench_diff.only_base;
  Alcotest.(check (list string)) "new reported" [ "counter:new" ]
    r.Bench_diff.only_cur

let test_bench_diff_hist_quantiles () =
  let mk v n =
    let h = Hist.create "q" in
    for _ = 1 to n do
      Hist.record h v
    done;
    [ ("q", Hist.snapshot h) ]
  in
  let base = snap_with ~hists:(mk 1e-3 100) () in
  let cur = snap_with ~hists:(mk 1e-1 100) () in
  let r = Bench_diff.diff ~baseline:base ~current:cur () in
  Alcotest.(check bool) "quantile drift flags (p50 and p99)" true
    (r.Bench_diff.regressions >= 1)

(* --- atomic artifact writes --- *)

let test_atomic_write () =
  fresh ();
  Obs.enable ();
  Obs.with_span "w" (fun () -> ());
  Obs.disable ();
  let snap = Obs.snapshot () in
  let path = Filename.temp_file "scnoise_obs" ".json" in
  Export.write_file path snap;
  Alcotest.(check bool) "no .tmp left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  let back =
    Export.of_json_string (In_channel.with_open_text path In_channel.input_all)
  in
  Alcotest.(check int) "written document parses back" 1
    (List.length back.Obs.snap_spans);
  Sys.remove path;
  let tpath = Filename.temp_file "scnoise_trace" ".json" in
  Trace.write_file tpath snap;
  Alcotest.(check bool) "trace .tmp removed" false
    (Sys.file_exists (tpath ^ ".tmp"));
  (match Trace.validate_file tpath with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trace file invalid: %s" msg);
  Sys.remove tpath

let test_sorted_artifacts () =
  fresh ();
  Obs.enable ();
  Obs.with_span "zeta" (fun () -> ());
  Obs.with_span "alpha" (fun () -> ());
  Obs.disable ();
  let back = Export.of_json_string (Export.to_json_string (Obs.snapshot ())) in
  Alcotest.(check (list string)) "root spans sorted by name"
    [ "alpha"; "zeta" ]
    (List.map (fun sp -> sp.Obs.sp_name) back.Obs.snap_spans)

(* --- JSON edge cases --- *)

let test_json_unicode_escapes () =
  (match Json.of_string "\"\\u0041\\u00e9\"" with
  | Json.Str s -> Alcotest.(check string) "BMP escapes decode to UTF-8"
      "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.of_string "\"\\ud83d\\ude00\"" with
  | Json.Str s ->
      Alcotest.(check string) "surrogate pair decodes" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  List.iter
    (fun doc ->
      match Json.of_string doc with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" doc)
    [
      "\"\\ud800\"" (* unpaired high surrogate *);
      "\"\\udc00\"" (* unpaired low surrogate *);
      "\"\\u12\"" (* truncated *);
      "\"\\u1_23\"" (* OCaml-ism that int_of_string would accept *);
      "\"\\uzzzz\"";
    ]

let test_json_control_chars () =
  let s = "\x01\x02 bell\x07 del" in
  match Json.of_string (Json.to_string (Json.Str s)) with
  | Json.Str s' -> Alcotest.(check string) "control chars round-trip" s s'
  | _ -> Alcotest.fail "expected a string"

let test_json_deep_nesting () =
  let depth = 500 in
  let doc =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "1"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  let rec depth_of = function
    | Json.List [ x ] -> 1 + depth_of x
    | Json.Num 1.0 -> 0
    | _ -> Alcotest.fail "unexpected shape"
  in
  let parsed = Json.of_string doc in
  Alcotest.(check int) "deep nesting parses" depth (depth_of parsed);
  Alcotest.(check int) "deep nesting re-emits" depth
    (depth_of (Json.of_string (Json.to_string parsed)))

let test_json_nonfinite () =
  (* the printer degrades non-finite numbers to null... *)
  Alcotest.(check string) "nan prints as null" "null"
    (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf prints as null" "null"
    (Json.to_string (Json.Num infinity));
  (* ...and the parser refuses overflowing literals *)
  match Json.of_string "1e999" with
  | exception Json.Parse_error msg ->
      Alcotest.(check bool) "message names the literal" true
        (contains_sub msg "1e999")
  | _ -> Alcotest.fail "accepted an overflowing number"

(* Numbers print through the C formatter directly; the bytes must be
   [Printf.sprintf]'s: "%.0f" for integers below 1e15, "%.17g" for
   the rest.  Random bit patterns cover every exponent, subnormals
   included; the fixed cases pin the edges. *)
let prop_json_number_bytes =
  let want x =
    if Float.is_integer x && abs_float x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x
  in
  let edges =
    [ 0.0; -0.0; 1.0; -1.0; 0.5; 1e15 -. 1.0; 1e15; -1e15; 1e15 +. 1.0;
      9007199254740992.0; 1e22; 1e300; Float.max_float; -.Float.max_float;
      Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
      Float.pred Float.min_float; 0.1; 1.0 /. 3.0 ]
  in
  QCheck.Test.make ~count:2000 ~name:"number bytes == Printf.sprintf"
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         frequency
           [
             (4, map Int64.float_of_bits ui64);
             (1, oneofl edges);
             (1, map (fun k -> Float.of_int k) (int_range (-1_000_000) 1_000_000));
             (1, map (fun k -> 1e15 +. Float.of_int k) (int_range (-5) 5));
           ]))
    (fun x ->
      QCheck.assume (Float.is_finite x);
      Json.to_string (Json.Num x) = want x)

let test_json_error_messages () =
  List.iter
    (fun (doc, needle) ->
      match Json.of_string doc with
      | exception Json.Parse_error msg ->
          if not (contains_sub msg needle) then
            Alcotest.failf "error for %S is %S (wanted %S)" doc msg needle
      | _ -> Alcotest.failf "accepted %S" doc)
    [
      ("{", "end of input");
      ("[1,]", "unexpected character");
      ("\"abc", "unterminated string");
      ("{} x", "trailing garbage");
      ("{\"a\" 1}", "expected :");
      ("nul", "expected null");
    ];
  (* offsets are included so a corrupt artifact points at itself *)
  match Json.of_string "[1, oops]" with
  | exception Json.Parse_error msg ->
      Alcotest.(check bool) "offset included" true
        (contains_sub msg "at offset 4")
  | _ -> Alcotest.fail "accepted garbage"

(* --- end-to-end: a PSD run drives the instrumented hot paths --- *)

let test_psd_bumps_counters () =
  fresh ();
  let b = SRC.build SRC.default in
  let eng = Psd.prepare ~samples_per_phase:32 b.SRC.sys ~output:b.SRC.output in
  ignore (Psd.psd eng ~f:1e4);
  Alcotest.(check bool) "lu_factorizations > 0" true
    (Obs.counter_value "lu_factorizations" > 0);
  Alcotest.(check bool) "ode_steps > 0" true
    (Obs.counter_value "ode_steps" > 0);
  Alcotest.(check bool) "schur_reductions > 0" true
    (Obs.counter_value "schur_reductions" > 0);
  Alcotest.(check bool) "expm_calls > 0" true
    (Obs.counter_value "expm_calls" > 0);
  Alcotest.(check bool) "psd_points > 0" true
    (Obs.counter_value "psd_points" > 0);
  Alcotest.(check bool) "lu_solve_madds > 0" true
    (Obs.counter_value "lu_solve_madds" > 0)

(* [lu_solve_madds] counts the multiply-adds [Lu.solve_mat] ran: all
   [n (n − 1)] per column on a dense system, at most that on any. *)
let test_solve_madds_bound () =
  let module Mat = Scnoise_linalg.Mat in
  let module Lu = Scnoise_linalg.Lu in
  let rng = Random.State.make [| 0x3add |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let madds lu b =
    let before = Obs.counter_value "lu_solve_madds" in
    ignore (Lu.solve_mat lu b);
    Obs.counter_value "lu_solve_madds" - before
  in
  List.iter
    (fun (n, w) ->
      let dense =
        Mat.init n n (fun i j -> if i = j then float_of_int n +. 1.0 else rnd ())
      in
      let band =
        Mat.init n n (fun i j ->
            if i = j then 2.0 else if abs (i - j) = 1 then rnd () else 0.0)
      in
      let bound = n * (n - 1) * w in
      Alcotest.(check int)
        (Printf.sprintf "dense n=%d w=%d counts every term" n w)
        bound
        (madds (Lu.factor dense) (Mat.init n w (fun _ _ -> rnd ())));
      List.iter
        (fun (name, b) ->
          let m = madds (Lu.factor band) b in
          if m < 0 || m > bound then
            Alcotest.failf "band n=%d w=%d %s b: %d madds > n(n-1)w = %d" n
              w name m bound)
        [
          ("dense", Mat.init n w (fun _ _ -> rnd ()));
          ("identity", Mat.init n w (fun i j -> if i = j then 1.0 else 0.0));
          ("zero", Mat.create n w);
        ])
    [ (1, 1); (2, 3); (9, 5); (30, 30) ]

(* One serial ladder covariance sample: the Van Loan exponentials' Padé
   solves skip at least half of the dense multiply-adds at 40 states and
   at least 70 % at 100.  The count is deterministic. *)
let test_ladder_solve_madds () =
  let module Cov = Scnoise_core.Covariance in
  let module Ladder = Scnoise_circuits.Sc_ladder in
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (stages, max_share) ->
      let b =
        Ladder.build (Ladder.with_parasitics (Ladder.with_stages stages))
      in
      let e0 = Obs.counter_value "expm_calls"
      and m0 = Obs.counter_value "lu_solve_madds" in
      ignore (Cov.sample ~samples_per_phase:48 ~pool b.Ladder.sys);
      let calls = Obs.counter_value "expm_calls" - e0
      and madds = Obs.counter_value "lu_solve_madds" - m0 in
      (* each exponential solves its 2n x 2n Padé system, 2n columns *)
      let n2 = 2 * b.Ladder.sys.Scnoise_circuit.Pwl.nstates in
      let dense = calls * n2 * (n2 - 1) * n2 in
      Alcotest.(check bool) "exponentials ran" true (calls > 0);
      if float_of_int madds > max_share *. float_of_int dense then
        Alcotest.failf "%d-state sample: %d madds > %.0f%% of dense %d"
          (n2 / 2) madds (100.0 *. max_share) dense)
    [ (20, 0.5); (50, 0.3) ]

let test_instrumentation_does_not_perturb () =
  (* the acceptance bar: sweeps with spans on and off are bit-identical *)
  fresh ();
  let b = SRC.build SRC.default in
  let freqs = Grid.linspace 1e3 1e5 7 in
  let run () =
    let eng =
      Psd.prepare ~samples_per_phase:32 b.SRC.sys ~output:b.SRC.output
    in
    Psd.sweep eng freqs
  in
  let off = run () in
  Obs.reset ();
  Obs.enable ();
  let on = run () in
  Obs.disable ();
  Array.iteri
    (fun i x ->
      if x <> on.(i) then
        Alcotest.failf "sweep differs at %d: %.17g vs %.17g" i x on.(i))
    off;
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "spans were recorded on the enabled run" true
    (snap.Obs.snap_spans <> [])

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "always on" `Quick
            test_counters_count_when_disabled;
        ] );
      ("timers", [ Alcotest.test_case "accumulates" `Quick test_timer_accumulates ]);
      ( "spans",
        [
          Alcotest.test_case "disabled noop" `Quick test_span_disabled_is_noop;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_survives_exception;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "control chars" `Quick test_json_control_chars;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          Alcotest.test_case "non-finite numbers" `Quick test_json_nonfinite;
          QCheck_alcotest.to_alcotest prop_json_number_bytes;
          Alcotest.test_case "error messages" `Quick test_json_error_messages;
        ] );
      ( "hist",
        [
          Alcotest.test_case "log buckets" `Quick test_hist_log_buckets;
          Alcotest.test_case "counts exact" `Quick test_hist_counts_exact;
          Alcotest.test_case "merge and empty" `Quick test_hist_merge_and_empty;
          Alcotest.test_case "registry" `Quick test_hist_registry;
          Alcotest.test_case "concurrent" `Quick test_hist_concurrent;
          Alcotest.test_case "json roundtrip" `Quick test_hist_json_roundtrip;
        ] );
      ( "gc",
        [
          Alcotest.test_case "span accounting" `Quick test_span_gc_accounting;
          Alcotest.test_case "timer accounting" `Quick test_timer_gc_accounting;
        ] );
      ( "trace",
        [
          Alcotest.test_case "multitrack pooled run" `Quick
            test_trace_multitrack;
          Alcotest.test_case "validator rejects" `Quick
            test_trace_validator_rejects;
        ] );
      ( "bench_diff",
        [
          Alcotest.test_case "self is clean" `Quick test_bench_diff_self_is_clean;
          Alcotest.test_case "flags inflation" `Quick
            test_bench_diff_flags_inflation;
          Alcotest.test_case "noise floor" `Quick test_bench_diff_noise_floor;
          Alcotest.test_case "one-sided never gates" `Quick
            test_bench_diff_one_sided_never_gates;
          Alcotest.test_case "hist quantiles" `Quick
            test_bench_diff_hist_quantiles;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "atomic writes" `Quick test_atomic_write;
          Alcotest.test_case "sorted spans" `Quick test_sorted_artifacts;
        ] );
      ( "integration",
        [
          Alcotest.test_case "psd bumps counters" `Quick
            test_psd_bumps_counters;
          Alcotest.test_case "solve_mat madds bounded" `Quick
            test_solve_madds_bound;
          Alcotest.test_case "ladder solve madds" `Quick
            test_ladder_solve_madds;
          Alcotest.test_case "numerics unperturbed" `Quick
            test_instrumentation_does_not_perturb;
        ] );
    ]
