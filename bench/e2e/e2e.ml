(* End-to-end benchmark of scnoise, from deck text to reply, with every
   request's wall time split across the pipeline's stages.

     e2e.exe --workload W --seed S --seconds T --trace 0|1
         one workload for T seconds; the last line of standard output is
         {"correct", "attempted", "failed", "metrics"} with the
         end-to-end metrics (--trace 0) or the per-layer metrics
         (--trace 1: half the time untraced for the layer numbers, half
         traced for trace_overhead_pct and out/trace_W.json)
     e2e.exe all --seed S --out FILE [--trace DIR]
         every workload at its fixed request count, each in a child
         process; prints every metric, writes one JSON record, exits 1
         on any correctness failure
     e2e.exe smoke [--benchmark FILE]
         every workload scaled down, twice: checks outputs, that every
         metric BENCHMARK.json names is emitted, stage coverage, count
         repeatability and the trace (run by `dune runtest`)
     e2e.exe golden
         re-record golden/*.json from the current library

   --dir D names the benchmark directory (decks/, golden/, out/);
   the default, bench/e2e, suits a run from the repository root. *)

module Json = Scnoise_obs.Json
module Pool = Scnoise_par.Pool

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

(* [--key value] pairs after an optional subcommand. *)
let parse_args () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, rest =
    match args with
    | c :: rest when not (String.starts_with ~prefix:"--" c) -> (c, rest)
    | rest -> ("run", rest)
  in
  let rec pairs acc = function
    | [] -> List.rev acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> pairs ((k, v) :: acc) rest
    | k :: _ -> die "expected --option value, found %S" k
  in
  (cmd, pairs [] rest)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let run_cmd opts ~dir =
  let get k = match List.assoc_opt k opts with Some v -> v | None -> die "missing %s" k in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> die "%s: not an integer" k in
  let w = try Runner.find (get "--workload") with Failure m -> die "%s" m in
  let trace =
    match List.assoc_opt "--trace" opts with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "--trace %s: expected 0 or 1" v
  in
  let stop =
    match (List.assoc_opt "--seconds" opts, List.assoc_opt "--requests" opts) with
    | Some _, None ->
        let s = float_of_int (int "--seconds") in
        Runner.Seconds (if trace then s /. 2.0 else s)
    | None, Some _ -> Runner.Requests (int "--requests")
    | _ -> die "give exactly one of --seconds and --requests"
  in
  let trace_file =
    if not trace then None
    else
      match List.assoc_opt "--trace-file" opts with
      | Some f -> Some f
      | None ->
          let out = Filename.concat dir "out" in
          ensure_dir out;
          Some (Filename.concat out ("trace_" ^ w.Runner.name ^ ".json"))
  in
  let r = Runner.run w ~dir ~seed:(int "--seed") ~scale:Runner.Full ~stop ~trace_file in
  let metrics =
    match List.assoc_opt "--report" opts with
    | Some "full" -> r.Runner.e2e @ r.Runner.layer @ r.Runner.extra
    | _ -> if trace then r.Runner.layer else r.Runner.e2e
  in
  print_endline
    (Metrics.one_line
       (Metrics.result_json ~correct:r.Runner.correct ~attempted:r.Runner.attempted
          ~failed:r.Runner.failed metrics));
  exit (if r.Runner.correct then 0 else 1)

(* Run this executable as a child and return the last line it prints. *)
let child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)) with
  | last :: _ -> ( try Some (Json.of_string last) with Json.Parse_error _ -> None)
  | [] -> None

let all_cmd opts ~dir =
  let get k = match List.assoc_opt k opts with Some v -> v | None -> die "missing %s" k in
  let seed = get "--seed" and out = get "--out" in
  let trace_dir = List.assoc_opt "--trace" opts in
  Option.iter ensure_dir trace_dir;
  let runs =
    List.map
      (fun (w : Runner.workload) ->
        let args =
          [ "run"; "--workload"; w.name; "--seed"; seed; "--requests";
            string_of_int (w.requests Runner.Full); "--dir"; dir; "--report"; "full";
            "--trace"; (if trace_dir = None then "0" else "1") ]
          @ match trace_dir with
            | Some d -> [ "--trace-file"; Filename.concat d ("trace_" ^ w.name ^ ".json") ]
            | None -> []
        in
        Printf.eprintf "e2e: %s ...\n%!" w.name;
        (w.name, child args))
      Runner.workloads
  in
  let correct =
    List.for_all
      (fun (_, j) ->
        match Option.bind j (Json.member "correct") with Some (Json.Bool b) -> b | _ -> false)
      runs
  in
  List.iter
    (fun (name, j) ->
      match Option.bind j (Json.member "metrics") with
      | Some (Json.Obj ms) ->
          List.iter
            (fun (m, v) ->
              match (Json.member "value" v, Json.member "unit" v) with
              | Some (Json.Num x), Some (Json.Str u) ->
                  Printf.printf "%-14s %-38s %16.6g %s\n" name m x u
              | _ -> ())
            ms
      | _ -> Printf.printf "%-14s FAILED (no result)\n" name)
    runs;
  let record =
    Json.Obj
      [
        ("schema", Json.Str "scnoise.e2e/1");
        ("seed", Json.Num (float_of_string seed));
        ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("traced", Json.Bool (trace_dir <> None));
        ( "workloads",
          Json.Obj (List.map (fun (name, j) -> (name, Option.value j ~default:Json.Null)) runs) );
      ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_string record);
      output_char oc '\n');
  exit (if correct then 0 else 1)

(* Names and units BENCHMARK.json asks for. *)
let benchmark_metrics path =
  let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  List.concat_map
    (fun key ->
      List.map
        (fun m ->
          (Json.to_string_exn (Option.get (Json.member "name" m)),
           Json.to_string_exn (Option.get (Json.member "unit" m))))
        (Json.to_list_exn (Option.get (Json.member key j))))
    [ "end_to_end"; "per_layer" ]

let smoke_cmd opts ~dir =
  let wanted =
    benchmark_metrics (Option.value (List.assoc_opt "--benchmark" opts) ~default:"BENCHMARK.json")
  in
  let out = Filename.concat dir "out" in
  ensure_dir out;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (w : Runner.workload) ->
      let once () =
        Runner.run w ~dir ~seed:1 ~scale:Runner.Smoke
          ~stop:(Runner.Requests (w.requests Runner.Smoke))
          ~trace_file:(Some (Filename.concat out ("smoke_trace_" ^ w.name ^ ".json")))
      in
      let a = once () in
      let b = once () in
      if not (a.Runner.correct && b.Runner.correct) then fail "%s: incorrect output" w.name;
      let emitted = a.Runner.e2e @ a.Runner.layer in
      List.iter
        (fun (name, unit) ->
          if not (List.mem_assoc name emitted) then fail "%s: %s not emitted" w.name name
          else if Metrics.unit_of name <> unit then
            fail "%s: unit of %s is %s, BENCHMARK.json says %s" w.name name
              (Metrics.unit_of name) unit)
        wanted;
      let coverage = List.assoc "e2e.coverage" a.Runner.layer in
      if coverage < 0.95 then fail "%s: stage coverage %.3f < 0.95" w.name coverage;
      List.iter2
        (fun (name, x) (_, y) ->
          if Metrics.unit_of name = "count" && x <> y then
            fail "%s: %s differs between runs (%g vs %g)" w.name name x y)
        a.Runner.layer b.Runner.layer;
      Printf.printf "%s: coverage %.3f, %d requests, ok\n%!" w.name coverage a.Runner.attempted)
    Runner.workloads;
  match List.rev !failures with
  | [] ->
      Printf.printf "E2E-SMOKE: %d workloads, %d metrics ok\n" (List.length Runner.workloads)
        (List.length wanted)
  | fs ->
      List.iter (fun m -> Printf.printf "E2E-SMOKE FAIL: %s\n" m) fs;
      exit 1

let golden_cmd ~dir =
  List.iter
    (fun name ->
      let spec = Runner.compute_spec name ~dir ~scale:Runner.Full ~golden:None in
      Golden.save ~dir name (Compute.reference spec);
      print_endline (Golden.path ~dir name))
    [ "lowpass-sweep"; "ladder-40"; "ladder-100" ];
  Golden.save ~dir "serve-mix" (Serve_mix.reference ~dir);
  print_endline (Golden.path ~dir "serve-mix")

let () =
  (* One domain computes.  With a second pool domain every minor
     collection synchronises both, and on a shared two-core machine the
     run-to-run spread of request times about doubled. *)
  Pool.set_default_jobs 1;
  (* The in-process daemon runs without its own signal handling, so
     ignore SIGPIPE as it would: a socket peer that closes first must
     not kill the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cmd, opts = parse_args () in
  let dir = Option.value (List.assoc_opt "--dir" opts) ~default:"bench/e2e" in
  if not (Sys.file_exists (Filename.concat dir "decks")) then
    die "no benchmark directory at %s (run from the repository root or pass --dir)" dir;
  match cmd with
  | "run" -> run_cmd opts ~dir
  | "all" -> all_cmd opts ~dir
  | "smoke" -> smoke_cmd opts ~dir
  | "golden" -> golden_cmd ~dir
  | c -> die "unknown command %S (run, all, smoke, golden)" c
