(* One workload in this process: set-up (several times), an untraced
   measured pass, optionally a traced pass, and the metrics. *)

module Obs = Scnoise_obs.Obs
module Clock = Scnoise_obs.Clock
module Trace = Scnoise_obs.Trace

type scale = Full | Smoke

type workload = {
  name : string;
  requests : scale -> int;  (* N of the fixed-count protocol *)
  open_ : dir:string -> seed:int -> scale:scale -> Session.t;
}

let compute_spec name ~dir ~scale ~golden =
  let full = scale = Full in
  match name with
  | "lowpass-sweep" ->
      Compute.lowpass ?points:(if full then None else Some 16) ~dir ~golden ()
  | "ladder-40" ->
      Compute.ladder ~stages:(if full then 20 else 4) ~points:(if full then 33 else 16) ~golden
  | "ladder-100" ->
      Compute.ladder ~stages:(if full then 50 else 4) ~points:(if full then 33 else 16) ~golden
  | _ -> invalid_arg name

let compute name ~requests ~warmup =
  {
    name;
    requests = (function Full -> requests | Smoke -> 3);
    open_ =
      (fun ~dir ~seed ~scale ->
        (* goldens are recorded at full size; smoke runs keep the
           scale-free checks (twin parity, equipartition) *)
        let golden =
          match scale with
          | Full -> Some (Golden.find (Golden.load ~dir name) "psd")
          | Smoke -> None
        in
        Compute.open_ ~seed
          ~warmup:(match scale with Full -> warmup | Smoke -> 1)
          (compute_spec name ~dir ~scale ~golden));
  }

let workloads =
  [
    compute "lowpass-sweep" ~requests:300 ~warmup:3;
    compute "ladder-40" ~requests:60 ~warmup:2;
    compute "ladder-100" ~requests:24 ~warmup:1;
    {
      name = "serve-mix";
      requests = (function Full -> 16000 | Smoke -> 200);
      open_ =
        (fun ~dir ~seed ~scale:_ ->
          Serve_mix.open_ ~dir ~seed ~golden:(Some (Golden.load ~dir "serve-mix")));
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

(* ---- measurement ---- *)

type stop = Requests of int | Seconds of float

type pass = {
  records : Pipeline.record list;  (* times in reference seconds *)
  attempted : int;
  failed : int;
  max_err_db : float;
  heap_mb : float;
  next : int;  (* index of the next request of the stream *)
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The heap peak is read after a fixed number of measured requests, so
   it does not grow with the number of requests a timed run gets
   through: the library keeps per-solver stepper state for the life of
   a domain, and every request prepares a new solver. *)
let heap_requests = 10

(* Calibrations bracket chunks of at least this much request time, so
   the kernel takes a few per cent of a run; a chunk's times are scaled
   by the calibrations around it and those the sampler took during it. *)
let chunk_s = 0.05

let measure (s : Session.t) ~first ~stop =
  let t0 = Clock.now () in
  let more n =
    match stop with
    | Requests k -> n < k
    | Seconds sec -> n = 0 || Clock.now () -. t0 < sec
  in
  let records = ref [] and failed = ref 0 and err = ref 0.0 and heap = ref None in
  let i = ref first in
  let before = ref (Calib.measure ()) in
  while more (!i - first) do
    let chunk = ref [] and busy = ref 0.0 and sampled = ref [] in
    while !busy < chunk_s && more (!i - first) do
      if !i - first = heap_requests && !heap = None then heap := Some (peak_heap_mb ());
      (match Calib.during (fun () -> s.Session.run !i) with
      | (r, e, why), taken ->
          Option.iter
            (fun why ->
              Printf.eprintf "e2e: request %d: %s\n%!" !i why;
              incr failed)
            why;
          err := Float.max !err e;
          chunk := r :: !chunk;
          busy := !busy +. r.Pipeline.wall_s;
          sampled := taken @ !sampled
      | exception exn ->
          Printf.eprintf "e2e: request %d failed: %s\n%!" !i (Printexc.to_string exn);
          incr failed);
      incr i
    done;
    let after = Calib.measure () in
    let f = Calib.factor (!before :: after :: !sampled) in
    List.iter (fun r -> Pipeline.scale r f) !chunk;
    records := !chunk @ !records;
    before := after
  done;
  {
    records = List.rev !records;
    attempted = !i - first;
    failed = !failed;
    max_err_db = !err;
    heap_mb = (match !heap with Some h -> h | None -> peak_heap_mb ());
    next = !i;
  }

let walls_ms p = List.map (fun (r : Pipeline.record) -> 1e3 *. r.wall_s) p.records

let e2e_metrics ~setup_s p =
  [
    ("request_p50_ms", Metrics.median (walls_ms p));
    ( "throughput_rps",
      float_of_int (List.length p.records) /. Metrics.sum (List.map (fun r -> r.Pipeline.wall_s) p.records) );
    ("setup_s", setup_s);
    ("peak_heap_mb", p.heap_mb);
  ]

let layer_metrics (s : Session.t) p =
  let rs = p.records in
  let total f = Metrics.sum (List.map f rs) in
  let wall = total (fun (r : Pipeline.record) -> r.wall_s) in
  let share x = if wall > 0.0 then x /. wall else 0.0 in
  let attributed (r : Pipeline.record) = Array.fold_left ( +. ) 0.0 r.stage_s in
  let stages =
    List.concat
      (List.init Pipeline.n_stages (fun k ->
           let s = Pipeline.stages.(k) in
           [
             (s ^ ".ms", 1e3 *. Metrics.median (List.map (fun (r : Pipeline.record) -> r.stage_s.(k)) rs));
             (s ^ ".share", share (total (fun r -> r.stage_s.(k))));
             ( s ^ ".alloc_kb",
               8e-3 *. Metrics.median (List.map (fun (r : Pipeline.record) -> r.stage_words.(k)) rs) );
           ]))
  in
  let values key = List.filter_map (fun (r : Pipeline.record) -> List.assoc_opt key r.values) rs in
  let walls = walls_ms p in
  let generic =
    (("request_tail_ms", Metrics.quantile (Metrics.tail_q (List.length walls)) walls) :: stages)
    @ [
        ("e2e.coverage", share (total attributed));
        ("e2e.unattributed_ms", 1e3 *. Metrics.median (List.map (fun r -> r.Pipeline.wall_s -. attributed r) rs));
      ]
    @ Array.to_list
        (Array.mapi
           (fun i (pr : Pipeline.probe) ->
             (pr.metric, Metrics.median (List.map (fun (r : Pipeline.record) -> float_of_int r.counts.(i)) rs)))
           Pipeline.probes)
    @ List.map
        (fun key -> (key, Metrics.median (values key)))
        [ "core.covariance.peak_rank"; "core.covariance.ks_kb"; "core.sweep.batch_width" ]
    @ [
        ( "core.sweep.ms_per_point",
          Metrics.median
            (List.filter_map
               (fun (r : Pipeline.record) ->
                 Option.map
                   (fun points -> 1e3 *. r.stage_s.(Pipeline.sweep) /. Float.max 1.0 points)
                   (List.assoc_opt "core.sweep.points" r.values))
               rs) );
      ]
  in
  let specific = s.Session.layer rs in
  List.filter_map
    (fun (name, _) ->
      if name = "trace_overhead_pct" then None
      else
        Some
          ( name,
            match List.assoc_opt name specific with
            | Some v -> v
            | None -> Option.value (List.assoc_opt name generic) ~default:0.0 ))
    Metrics.per_layer

(* A span's self time: its duration minus its children's. *)
let self_time (sp : Obs.span) =
  List.fold_left (fun acc (c : Obs.span) -> acc -. c.Obs.sp_duration) sp.Obs.sp_duration sp.Obs.sp_children

let self_times snap ~requests =
  Array.to_list
    (Array.map
       (fun s ->
         let name = "e2e." ^ s in
         let total =
           Obs.fold_spans
             (fun acc sp -> if sp.Obs.sp_name = name then acc +. self_time sp else acc)
             0.0 snap
         in
         ("trace." ^ s ^ ".self_ms", 1e3 *. total /. float_of_int (max 1 requests)))
       Pipeline.stages)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layer : (string * float) list;  (* with trace_overhead_pct when traced *)
  extra : (string * float) list;  (* correctness summaries, trace self times *)
}

let setup_reps = 3

let run w ~dir ~seed ~scale ~stop ~trace_file =
  Calib.with_sampler @@ fun () ->
  let problems = ref [] in
  let open_once () =
    let before = Calib.measure () in
    let (dt, s), sampled =
      Calib.during (fun () ->
          let t0 = Clock.now () in
          let s = w.open_ ~dir ~seed ~scale in
          for i = 0 to s.Session.warmup - 1 do
            match s.Session.run i with
            | _, _, Some why -> problems := ("set-up: " ^ why) :: !problems
            | _, _, None -> ()
          done;
          (Clock.now () -. t0, s))
    in
    (dt *. Calib.factor (before :: Calib.measure () :: sampled), s)
  in
  (* set up several times and keep the last; set-up time is the median,
     in reference seconds *)
  let rec setup k times =
    let dt, s = open_once () in
    if k > 1 then begin
      ignore (s.Session.close ());
      setup (k - 1) (dt :: times)
    end
    else (Metrics.median (dt :: times), s)
  in
  let setup_s, s = setup setup_reps [] in
  let untraced = measure s ~first:s.Session.warmup ~stop in
  let e2e = e2e_metrics ~setup_s untraced in
  let layer = layer_metrics s untraced in
  let traced =
    match trace_file with
    | None ->
        ignore (s.Session.close ());
        None
    | Some file ->
        Obs.reset ();
        Obs.enable ();
        let p = measure s ~first:untraced.next ~stop in
        Obs.disable ();
        Obs.absorb_spans (s.Session.close ());
        let snap = Obs.snapshot () in
        Trace.write_file file snap;
        (match Trace.validate_file file with
        | Ok () -> ()
        | Error msg -> problems := (file ^ ": " ^ msg) :: !problems);
        Some (p, snap)
  in
  let passes = untraced :: Option.to_list (Option.map fst traced) in
  let attempted = List.fold_left (fun a (p : pass) -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a (p : pass) -> a + p.failed) 0 passes in
  let max_err_db = List.fold_left (fun a (p : pass) -> Float.max a p.max_err_db) 0.0 passes in
  List.iter (fun m -> Printf.eprintf "e2e: %s: %s\n%!" w.name m) (List.rev !problems);
  let p50 p = Metrics.median (walls_ms p) in
  let layer, trace_extra =
    match traced with
    | None -> (layer, [])
    | Some (p, snap) ->
        ( layer @ [ ("trace_overhead_pct", 100.0 *. ((p50 p /. p50 untraced) -. 1.0)) ],
          self_times snap ~requests:(List.length p.records) )
  in
  {
    correct = !problems = [] && failed = 0 && max_err_db <= Session.tolerance_db;
    attempted;
    failed;
    e2e;
    layer;
    extra =
      [
        ("max_err_db", max_err_db);
        ("fail_ratio", float_of_int failed /. float_of_int (max 1 attempted));
      ]
      @ trace_extra;
  }
