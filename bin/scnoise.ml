(* scnoise: command-line front end for the switched-capacitor noise
   library.

     scnoise list
     scnoise info    -c bandpass
     scnoise psd     -c lowpass --fmin 100 --fmax 16e3 -n 40
     scnoise psd     -c switched-rc --plot
     scnoise psd     examples/decks/switched_rc.scn
     scnoise variance -c integrator
     scnoise contrib -c bandpass -f 8e3
     scnoise check   examples/decks/sc_integrator.scn

   Anywhere a bundled circuit name is accepted, a path to a `.scn`
   netlist deck is accepted too (either as the positional argument or
   via -c); deck analysis directives (.psd, .contrib, ...) provide the
   defaults that explicit command-line flags override. *)

module Pwl = Scnoise_circuit.Pwl
module Deck = Scnoise_lang.Deck
module Elab = Scnoise_lang.Elab
module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Contrib = Scnoise_core.Contrib
module Table = Scnoise_util.Table
module Db = Scnoise_util.Db
module Cx = Scnoise_linalg.Cx
module Lyapunov = Scnoise_linalg.Lyapunov
module SRC = Scnoise_circuits.Switched_rc
module LP = Scnoise_circuits.Sc_lowpass
module BP = Scnoise_circuits.Sc_bandpass
module INT = Scnoise_circuits.Sc_integrator
module LAD = Scnoise_circuits.Sc_ladder
module DS = Scnoise_circuits.Sc_delta_sigma
module A_src = Scnoise_analytic.Switched_rc
module Obs = Scnoise_obs.Obs
module Export = Scnoise_obs.Export
module Json = Scnoise_obs.Json
module Trace = Scnoise_obs.Trace
module Bench_diff = Scnoise_obs.Bench_diff
module Pool = Scnoise_par.Pool
module Check = Scnoise_check.Check
module Finding = Scnoise_check.Finding
module Canon = Scnoise_lang.Canon
module Front = Scnoise_serve.Front
module Sp = Scnoise_serve.Protocol
module Sx = Scnoise_serve.Exec
module Sv = Scnoise_serve.Server

open Cmdliner

type picked = {
  label : string;
  sys : Pwl.t;
  output : Scnoise_linalg.Vec.t;
  closed_form : (float -> float) option;
  directives : Elab.analysis list;
      (* deck analysis directives; [] for registry circuits *)
}

let circuits_doc =
  "switched-rc | lowpass | lowpass-single-stage | bandpass | integrator | \
   ladder | delta-sigma | a path to a .scn netlist deck"

(* A `.scn` deck passes the front door's gate (load, errors-only ERC,
   compile, observable output) into the same [picked] shape as the
   registry circuits; every failure arrives as the text the daemon
   would reply with. *)
let pick_deck path =
  match
    Result.bind (Front.load_file path) (fun l ->
        Result.map (fun c -> (l, c)) (Front.gate ~name:path l))
  with
  | Error e -> Error (Front.message e)
  | Ok (l, c) ->
      Ok
        {
          label = Printf.sprintf "deck %s" path;
          sys = c.Front.sys;
          output = c.Front.output;
          closed_form = None;
          directives = Front.directives l;
        }

(* Registry circuits run through the same errors-only ERC gate as
   decks; the builders keep them clean, so this only fires if a future
   circuit (or parameter set) regresses. *)
let guard ~netlist ~clock ~output_node picked =
  match Front.fatal (Check.check ~output:output_node netlist clock) with
  | [] -> Ok picked
  | errs -> Error (String.concat "\n" (List.map Finding.to_string errs))

let pick_circuit name ~duty ~t_over_rc ~f0 ~q ~stages =
  if Deck.looks_like_path name then pick_deck name
  else match name with
  | "switched-rc" ->
      let b = SRC.build (SRC.with_ratio ~duty ~t_over_rc ()) in
      let p = b.SRC.params in
      let a =
        A_src.make ~r:p.SRC.r ~c:p.SRC.c ~period:p.SRC.period ~duty:p.SRC.duty
          ()
      in
      guard ~netlist:b.SRC.netlist ~clock:b.SRC.clock
        ~output_node:b.SRC.output_node
        {
          label = Printf.sprintf "switched-rc (T/RC=%g, d=%g)" t_over_rc duty;
          sys = b.SRC.sys;
          output = b.SRC.output;
          closed_form = Some (A_src.psd a);
          directives = [];
        }
  | "lowpass" ->
      let b = LP.build LP.default in
      guard ~netlist:b.LP.netlist ~clock:b.LP.clock
        ~output_node:b.LP.output_node
        {
          label = "sc_lowpass (integrator op-amp)";
          sys = b.LP.sys;
          output = b.LP.output;
          closed_form = None;
          directives = [];
        }
  | "lowpass-single-stage" ->
      let b = LP.build LP.single_stage_variant in
      guard ~netlist:b.LP.netlist ~clock:b.LP.clock
        ~output_node:b.LP.output_node
        {
          label = "sc_lowpass (single-stage op-amp)";
          sys = b.LP.sys;
          output = b.LP.output;
          closed_form = None;
          directives = [];
        }
  | "bandpass" -> (
      match BP.design ~clock_hz:128e3 ~f0 ~q () with
      | params ->
          let b = BP.build params in
          guard ~netlist:b.BP.netlist ~clock:b.BP.clock
            ~output_node:b.BP.output_node
            {
              label = Printf.sprintf "sc_bandpass (f0=%g, Q=%g)" f0 q;
              sys = b.BP.sys;
              output = b.BP.output;
              closed_form = None;
              directives = [];
            }
      | exception Invalid_argument msg -> Error msg)
  | "integrator" ->
      let b = INT.build INT.default in
      guard ~netlist:b.INT.netlist ~clock:b.INT.clock
        ~output_node:b.INT.output_node
        {
          label = "sc_integrator (damped)";
          sys = b.INT.sys;
          output = b.INT.output;
          closed_form = None;
          directives = [];
        }
  | "delta-sigma" ->
      let b = DS.build DS.default in
      guard ~netlist:b.DS.netlist ~clock:b.DS.clock
        ~output_node:b.DS.output_node
        {
          label = "sc_delta_sigma (2nd-order, linearised quantiser)";
          sys = b.DS.sys;
          output = b.DS.output;
          closed_form = None;
          directives = [];
        }
  | "ladder" -> (
      match LAD.build (LAD.with_stages stages) with
      | b ->
          guard ~netlist:b.LAD.netlist ~clock:b.LAD.clock
            ~output_node:b.LAD.output_node
            {
              label = Printf.sprintf "sc_ladder (%d stages)" stages;
              sys = b.LAD.sys;
              output = b.LAD.output;
              closed_form = None;
              directives = [];
            }
      | exception Invalid_argument msg -> Error msg)
  | other ->
      Error (Printf.sprintf "unknown circuit %S (choose: %s)" other circuits_doc)

(* ---- observability options ---- *)

(* Verbosity: -v (info) / -vv (debug) / --quiet, with SCNOISE_LOG as the
   environment default (debug|info|warning|error|quiet).  -q stays the
   band-pass quality factor, so quiet is long-form only.  Evaluates to ()
   after configuring the Logs reporter, level and the parallel job
   count. *)
let setup_term =
  let verbose_arg =
    let doc = "Increase log verbosity (repeatable: -v info, -vv debug)." in
    Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)
  in
  let quiet_arg =
    let doc = "Silence all log output; takes over $(b,-v) and SCNOISE_LOG." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for the parallel analysis loops (frequency sweeps, \
       Monte-Carlo paths, covariance discretisation).  Results are \
       bit-identical at any job count.  Defaults to $(b,SCNOISE_JOBS) when \
       set, else to the number of cores; $(b,--jobs 1) runs fully serial."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc ~docv:"N")
  in
  let env_level () =
    match Option.map String.lowercase_ascii (Sys.getenv_opt "SCNOISE_LOG") with
    | Some "debug" -> Some Logs.Debug
    | Some "info" -> Some Logs.Info
    | Some "warning" -> Some Logs.Warning
    | Some "error" -> Some Logs.Error
    | Some "quiet" -> None
    | Some _ | None -> Some Logs.Warning
  in
  let setup quiet verbose jobs =
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    let level =
      if quiet then None
      else
        match List.length verbose with
        | 0 -> env_level ()
        | 1 -> Some Logs.Info
        | _ -> Some Logs.Debug
    in
    Logs.set_level level;
    Option.iter Pool.set_default_jobs jobs
  in
  Term.(const setup $ quiet_arg $ verbose_arg $ jobs_arg)

let metrics_arg =
  let doc =
    "Record run metrics (counters, histograms and nested wall-time spans) \
     and write them as JSON to $(docv) ($(b,-) streams to stdout).  Files \
     are written atomically ($(docv).tmp + rename)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Record a Chrome Trace Event timeline of the run and write it as JSON \
     to $(docv) ($(b,-) streams to stdout), loadable in ui.perfetto.dev or \
     about://tracing.  One track per worker domain of the parallel pool."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

(* Run [f] with span recording enabled when a metrics or trace file was
   requested, then dump the registry snapshot.  The summary table also
   goes to stderr at info verbosity and above, so `-v --metrics out.json`
   shows where the time went without opening the file. *)
let with_obs metrics trace f =
  if metrics = None && trace = None then f ()
  else begin
    Obs.reset ();
    Obs.enable ();
    let code = f () in
    Obs.disable ();
    let snap = Obs.snapshot () in
    Option.iter
      (fun path ->
        Export.write_file path snap;
        if path <> "-" then Printf.printf "# metrics: wrote %s\n" path)
      metrics;
    Option.iter
      (fun path ->
        Trace.write_file path snap;
        if path <> "-" then Printf.printf "# trace: wrote %s\n" path)
      trace;
    if Logs.level () >= Some Logs.Info then Export.print_summary ~oc:stderr snap;
    code
  end

(* ---- common options ---- *)

let circuit_arg =
  let doc = "Circuit to analyse: " ^ circuits_doc ^ "." in
  Arg.(value & opt string "switched-rc" & info [ "c"; "circuit" ] ~doc)

let target_arg =
  let doc =
    "Bundled circuit name or path to a $(b,.scn) netlist deck (takes over \
     $(b,-c))."
  in
  Arg.(value & pos 0 (some string) None & info [] ~doc ~docv:"CIRCUIT|DECK")

let duty_arg =
  let doc = "Switch duty cycle (switched-rc)." in
  Arg.(value & opt float 0.5 & info [ "duty" ] ~doc)

let ratio_arg =
  let doc = "Clock period over RC time constant (switched-rc)." in
  Arg.(value & opt float 5.0 & info [ "t-over-rc" ] ~doc)

let f0_arg =
  let doc = "Centre frequency in Hz (bandpass)." in
  Arg.(value & opt float 8e3 & info [ "f0" ] ~doc)

let q_arg =
  let doc = "Quality factor (bandpass; must give a stable circuit)." in
  Arg.(value & opt float 2.0 & info [ "q" ] ~doc)

let spp_arg =
  let doc =
    Printf.sprintf "Integration samples per clock phase (default %d)."
      (Front.spp None)
  in
  Arg.(value & opt (some int) None & info [ "spp"; "samples-per-phase" ] ~doc)

let stages_arg =
  let doc = "Number of stages (ladder)." in
  Arg.(value & opt int 4 & info [ "stages" ] ~doc)

let with_circuit f name target duty t_over_rc f0 q stages =
  let name = match target with Some t -> t | None -> name in
  match pick_circuit name ~duty ~t_over_rc ~f0 ~q ~stages with
  | Error msg ->
      Printf.eprintf "scnoise: %s\n" msg;
      1
  | Ok picked ->
      (* post-hoc ERC010: surface factorisations whose condition estimate
         tripped while the analysis ran *)
      let baseline = Check.ill_conditioned_count () in
      let code = f picked in
      List.iter
        (fun fi -> Printf.eprintf "scnoise: %s\n" (Finding.to_string fi))
        (Check.ill_conditioned ~since:baseline);
      code

(* Run [f] only on a circuit with a periodic steady state: the daemon's
   Floquet check, then the steady-state solve's refusal as a fallback.
   A Schur reduction the sweep cannot prepare is refused the same way. *)
let steady picked f =
  let refuse why = Printf.eprintf "scnoise: %s%s\n" Front.unstable why; 2 in
  if not (Front.stable picked.sys) then refuse ""
  else
    try f () with
    | Lyapunov.Not_stable why -> refuse (" (" ^ why ^ ")")
    | Scnoise_core.Periodic_bvp.Reduction_failed why ->
        Printf.eprintf "scnoise: %s\n" why;
        2

(* ---- list ---- *)

let list_cmd =
  let run metrics trace =
    with_obs metrics trace @@ fun () ->
    let t = Table.create [ "name"; "description" ] in
    Table.add_row t
      [ "switched-rc"; "periodically switched RC (closed form available)" ];
    Table.add_row t
      [ "lowpass"; "SC low-pass filter, Toth values, integrator op-amp" ];
    Table.add_row t
      [ "lowpass-single-stage"; "same filter with a single-stage op-amp" ];
    Table.add_row t [ "bandpass"; "two-integrator-loop SC band-pass biquad" ];
    Table.add_row t [ "integrator"; "parasitic-insensitive damped integrator" ];
    Table.add_row t
      [ "ladder"; "switched RC ladder (--stages N, scaling workload)" ];
    Table.add_row t
      [ "delta-sigma"; "2nd-order delta-sigma loop filter (linearised)" ];
    Table.print t;
    Printf.printf
      "\nEvery analysis also accepts a path to a .scn netlist deck instead \
       of a\nname (e.g. `scnoise psd examples/decks/switched_rc.scn`); see \
       `scnoise\ncheck DECK` to validate a deck.\n";
    0
  in
  let doc = "List the bundled evaluation circuits." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () metrics trace -> run metrics trace)
      $ setup_term $ metrics_arg $ trace_arg)

(* ---- check ---- *)

let check_cmd =
  let run metrics trace strict json path =
    with_obs metrics trace (fun () ->
        match Deck.load_file path with
        | Error msg ->
            if json then
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("schema", Json.Str "scnoise.check/1");
                        ("deck", Json.Str path);
                        ("error", Json.Str msg);
                      ]))
            else Printf.eprintf "scnoise: %s\n" msg;
            1
        | Ok loaded ->
            let e = loaded.Deck.elab in
            let findings = Check.check_elab e in
            let nerr = Finding.errors findings in
            let nwarn = Finding.warnings findings in
            if json then
              (* findings arrive sorted ({!Finding.compare}) and the
                 printer is deterministic, so the artifact is
                 byte-stable across runs — the scnoise.metrics/2
                 convention *)
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("schema", Json.Str "scnoise.check/1");
                        ("deck", Json.Str path);
                        ( "findings",
                          Json.List (List.map Finding.to_json findings) );
                        ("errors", Json.Num (float_of_int nerr));
                        ("warnings", Json.Num (float_of_int nwarn));
                      ]))
            else begin
              List.iter
                (fun f ->
                  print_endline
                    (Finding.render ~source:loaded.Deck.source f))
                findings;
              if findings = [] then Printf.printf "%s: ok (no findings)\n" path
              else
                Printf.printf "%s: %d error(s), %d warning(s)\n" path nerr
                  nwarn
            end;
            (* the ERC is structural; also compile when it passed, so the
               few numeric/observability failures surface here too *)
            let compile_code =
              if nerr > 0 then 1
              else
                match Front.compile ~name:path loaded with
                | Ok _ -> 0
                | Error err ->
                    (* a caret diagnostic carries its own location *)
                    if not json then
                      Printf.eprintf "%s%s\n"
                        (match err with Front.Output _ -> "" | _ -> "scnoise: ")
                        (Front.message err);
                    1
            in
            if compile_code <> 0 then 1
            else if strict && nwarn > 0 then 1
            else 0)
  in
  let path_arg =
    let doc = "Netlist deck to check." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"DECK")
  in
  let strict_arg =
    let doc = "Exit non-zero on warnings, not just errors." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the findings as JSON on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "Run the electrical-rule check (ERC) over a .scn deck: floating \
     nodes, capacitor islands, source shorts, degenerate switches, \
     out-of-range phases, noiseless circuits, unused parameters, \
     beyond-Nyquist sweeps, structurally singular per-phase MNA blocks, \
     dead noise sources, isolated outputs, dimension mismatches and \
     low-capture sweep bands, each as a located file:line:col finding."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const (fun () metrics trace strict json path ->
          run metrics trace strict json path)
      $ setup_term $ metrics_arg $ trace_arg $ strict_arg $ json_arg
      $ path_arg)

(* ---- info ---- *)

let info_cmd =
  let run picked =
    Printf.printf "%s\n" picked.label;
    Printf.printf "states: %d\n" picked.sys.Pwl.nstates;
    Array.iteri
      (fun i n -> Printf.printf "  x%d = %s\n" i n)
      picked.sys.Pwl.state_names;
    Printf.printf "clock period: %g s, %d phase(s)\n" picked.sys.Pwl.period
      (Pwl.n_phases picked.sys);
    Array.iteri
      (fun i (ph : Pwl.phase) ->
        Printf.printf "  phase %d: tau = %g s, %d noise source(s)\n" i
          ph.Pwl.tau
          (Array.length ph.Pwl.noise_labels))
      picked.sys.Pwl.phases;
    (match Pwl.floquet_multipliers picked.sys with
    | mus ->
        Printf.printf "stable: %b; Floquet multipliers:\n"
          (Pwl.is_stable picked.sys);
        Array.iter
          (fun (m : Cx.t) ->
            Printf.printf "  %+.6g %+.6gi  (|mu| = %.6g)\n" m.Cx.re m.Cx.im
              (Cx.modulus m))
          mus
    | exception Scnoise_linalg.Eig.No_convergence _ ->
        Printf.printf
          "stable: false (not shown: the eigenvalue iteration on the \
           monodromy did not converge)\n");
    0
  in
  let doc = "Show the compiled model: states, phases, stability." in
  Cmd.v
    (Cmd.info "info" ~doc)
    Term.(
      const (fun () metrics trace name target duty r f0 q stages ->
          with_obs metrics trace (fun () ->
              with_circuit run name target duty r f0 q stages))
      $ setup_term $ metrics_arg $ trace_arg $ circuit_arg $ target_arg
      $ duty_arg $ ratio_arg $ f0_arg $ q_arg $ stages_arg)

(* ---- psd ---- *)

let psd_cmd =
  let run fmin fmax points log spp csv plot picked =
    (* a .psd directive in the deck supplies the defaults *)
    let r = Front.psd ?fmin ?fmax ?points ~log ?spp picked.directives in
    steady picked @@ fun () ->
    let freqs = Front.psd_freqs r in
    Printf.printf "# %s, engine = mft\n" picked.label;
    let eng =
      Psd.prepare ~samples_per_phase:r.Front.spp picked.sys
        ~output:picked.output
    in
    let values = Psd.sweep eng freqs in
    let headers =
      [ "f_Hz"; "psd_V2_per_Hz"; "psd_dB" ]
      @ (if picked.closed_form <> None then [ "closed_form_dB" ] else [])
    in
    let t = Table.create headers in
    Array.iteri
      (fun i f ->
        let base = [ values.(i); Db.of_power values.(i) ] in
        let extra =
          match picked.closed_form with
          | Some cf -> [ Db.of_power (cf f) ]
          | None -> []
        in
        Table.add_float_row t ~precision:5 (Printf.sprintf "%.5g" f)
          (base @ extra))
      freqs;
    Table.print t;
    (match csv with
    | Some path ->
        Table.save_csv t path;
        Printf.printf "# wrote %s\n" path
    | None -> ());
    if plot then begin
      let dbs = Array.map Db.of_power values in
      Scnoise_util.Ascii_plot.print ~x_log:r.Front.log ~x_label:"f_Hz"
        ~y_label:"psd_dB" freqs dbs
    end;
    0
  in
  let d = Front.psd_defaults in
  let fmin_arg =
    let doc =
      Printf.sprintf "Lowest frequency, Hz (default %g)." d.Front.fmin
    in
    Arg.(value & opt (some float) None & info [ "fmin" ] ~doc)
  in
  let fmax_arg =
    let doc =
      Printf.sprintf "Highest frequency, Hz (default %g)." d.Front.fmax
    in
    Arg.(value & opt (some float) None & info [ "fmax" ] ~doc)
  in
  let points_arg =
    let doc =
      Printf.sprintf "Number of points (default %d)." d.Front.points
    in
    Arg.(value & opt (some int) None & info [ "n"; "points" ] ~doc)
  in
  let log_arg =
    Arg.(value & flag & info [ "log" ] ~doc:"Logarithmic frequency grid.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~doc:"Also write the sweep to a CSV file." ~docv:"FILE")
  in
  let plot_arg =
    Arg.(value & flag & info [ "plot" ] ~doc:"Draw an ASCII plot of the sweep.")
  in
  let doc =
    "Compute the output noise power spectral density with the MFT \
     steady-state solver.  Unset options fall back to the deck's .psd \
     directive, when one is present."
  in
  Cmd.v
    (Cmd.info "psd" ~doc)
    Term.(
      const
        (fun () metrics trace fmin fmax points log spp csv plot name target
             duty r f0 q stages ->
          with_obs metrics trace (fun () ->
              with_circuit
                (fun picked -> run fmin fmax points log spp csv plot picked)
                name target duty r f0 q stages))
      $ setup_term $ metrics_arg $ trace_arg $ fmin_arg $ fmax_arg
      $ points_arg $ log_arg $ spp_arg
      $ csv_arg $ plot_arg $ circuit_arg $ target_arg $ duty_arg $ ratio_arg
      $ f0_arg $ q_arg $ stages_arg)

(* ---- variance ---- *)

let variance_cmd =
  let run spp picked =
    steady picked @@ fun () ->
    let cov =
      Covariance.sample ~samples_per_phase:(Front.spp spp) picked.sys
    in
    let v = Covariance.variance cov picked.output in
    let vb = v.Covariance.boundary and va = v.Covariance.average in
    Printf.printf "%s\n" picked.label;
    Printf.printf "variance at period boundary: %.6g V^2 (%.4g uV rms)\n" vb
      (1e6 *. sqrt vb);
    Printf.printf "time-averaged variance:      %.6g V^2 (%.4g uV rms)\n" va
      (1e6 *. sqrt va);
    Printf.printf "periodicity closure error:   %.3g\n"
      v.Covariance.closure_error;
    0
  in
  let doc = "Steady-state output noise variance." in
  Cmd.v
    (Cmd.info "variance" ~doc)
    Term.(
      const (fun () metrics trace spp name target duty r f0 q stages ->
          with_obs metrics trace (fun () ->
              with_circuit (fun picked -> run spp picked) name target duty r
                f0 q stages))
      $ setup_term $ metrics_arg $ trace_arg $ spp_arg $ circuit_arg
      $ target_arg $ duty_arg $ ratio_arg $ f0_arg $ q_arg $ stages_arg)

(* ---- contrib ---- *)

let contrib_cmd =
  let run f spp picked =
    let r = Front.contrib ?f ?spp picked.directives in
    let f = r.Front.f in
    steady picked @@ fun () ->
    Printf.printf "%s, f = %g Hz\n" picked.label f;
    let parts =
      Contrib.per_source_psd ~samples_per_phase:r.Front.spp picked.sys
        ~output:picked.output ~f
    in
    let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 parts in
    let t = Table.create [ "source"; "psd_V2_per_Hz"; "share_%" ] in
    List.iter
      (fun (label, s) ->
        Table.add_float_row t ~precision:4 label
          [ s; (if total > 0.0 then 100.0 *. s /. total else 0.0) ])
      (List.sort (fun (_, a) (_, b) -> compare b a) parts);
    Table.print t;
    Printf.printf "total: %.5g V^2/Hz (%.2f dB)\n" total (Db.of_power total);
    0
  in
  let f_arg =
    let doc =
      Printf.sprintf
        "Analysis frequency, Hz (default %g, or the deck's .contrib \
         directive)."
        Front.contrib_defaults.Front.f
    in
    Arg.(value & opt (some float) None & info [ "f"; "freq" ] ~doc)
  in
  let doc = "Per-source decomposition of the output noise PSD." in
  Cmd.v
    (Cmd.info "contrib" ~doc)
    Term.(
      const (fun () metrics trace f spp name target duty r f0 q stages ->
          with_obs metrics trace (fun () ->
              with_circuit (fun picked -> run f spp picked) name target duty r
                f0 q stages))
      $ setup_term $ metrics_arg $ trace_arg $ f_arg $ spp_arg $ circuit_arg
      $ target_arg $ duty_arg $ ratio_arg $ f0_arg $ q_arg $ stages_arg)

(* ---- transfer ---- *)

let transfer_cmd =
  let run fmin fmax points spp k picked =
    let r = Front.transfer ?fmin ?fmax ?points ?k ?spp picked.directives in
    let k_range = r.Front.k in
    if Array.length picked.sys.Pwl.inputs = 0 then begin
      Printf.eprintf "scnoise: circuit has no signal inputs\n";
      2
    end
    else begin
      steady picked @@ fun () ->
      let module Transfer = Scnoise_core.Transfer in
      let tr =
        Transfer.prepare ~samples_per_phase:r.Front.spp picked.sys
          ~output:picked.output
      in
      Printf.printf "# %s, baseband LPTV transfer function H0(f)\n"
        picked.label;
      let freqs = Front.transfer_freqs r in
      let headers =
        [ "f_Hz"; "mag"; "mag_dB"; "phase_deg" ]
        @ List.concat_map
            (fun k -> [ Printf.sprintf "|H%+d|" k ])
            (List.init k_range (fun i -> i + 1))
      in
      let t = Table.create headers in
      Array.iter
        (fun f ->
          let h = Transfer.harmonics tr ~input:0 ~f ~k_range in
          let h0 = h.(k_range) in
          let side =
            List.init k_range (fun i -> Cx.modulus h.(k_range + i + 1))
          in
          Table.add_float_row t ~precision:4
            (Printf.sprintf "%.5g" f)
            ([
               Cx.modulus h0;
               Db.of_amplitude (Cx.modulus h0);
               Cx.arg h0 *. 180.0 /. Float.pi;
             ]
            @ side))
        freqs;
      Table.print t;
      0
    end
  in
  let d = Front.transfer_defaults in
  let fmin_arg =
    let doc =
      Printf.sprintf "Lowest frequency, Hz (default %g)." d.Front.fmin
    in
    Arg.(value & opt (some float) None & info [ "fmin" ] ~doc)
  in
  let fmax_arg =
    let doc =
      Printf.sprintf "Highest frequency, Hz (default %g)." d.Front.fmax
    in
    Arg.(value & opt (some float) None & info [ "fmax" ] ~doc)
  in
  let points_arg =
    let doc =
      Printf.sprintf "Number of points (default %d)." d.Front.points
    in
    Arg.(value & opt (some int) None & info [ "n"; "points" ] ~doc)
  in
  let krange_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~doc:"Also print magnitudes of the first $(docv) \
                           frequency-translation harmonics.")
  in
  let doc = "Baseband (and harmonic) LPTV signal transfer function." in
  Cmd.v
    (Cmd.info "transfer" ~doc)
    Term.(
      const
        (fun () metrics trace fmin fmax points spp k name target duty r f0 q
             stages ->
          with_obs metrics trace (fun () ->
              with_circuit
                (fun picked -> run fmin fmax points spp k picked)
                name target duty r f0 q stages))
      $ setup_term $ metrics_arg $ trace_arg $ fmin_arg $ fmax_arg
      $ points_arg $ spp_arg $ krange_arg $ circuit_arg $ target_arg
      $ duty_arg $ ratio_arg $ f0_arg $ q_arg $ stages_arg)

(* ---- report ---- *)

let report_cmd =
  let run spp fmin fmax picked =
    let module Report = Scnoise_core.Report in
    let band = if fmax > fmin && fmax > 0.0 then Some (fmin, fmax) else None in
    let r =
      Report.analyze ?samples_per_phase:spp ?band ~title:picked.label
        picked.sys ~output:picked.output
    in
    Report.print r;
    if r.Report.stable then 0 else 2
  in
  let fmin_arg =
    Arg.(value & opt float 0.0 & info [ "band-min" ] ~doc:"Band lower edge, Hz.")
  in
  let fmax_arg =
    Arg.(
      value & opt float 0.0
      & info [ "band-max" ] ~doc:"Band upper edge, Hz (0 disables band noise).")
  in
  let doc = "Full noise characterisation report (variance, spectrum, sources)." in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(
      const (fun () metrics trace spp fmin fmax name target duty r f0 q
                 stages ->
          with_obs metrics trace (fun () ->
              with_circuit
                (fun picked -> run spp fmin fmax picked)
                name target duty r f0 q stages))
      $ setup_term $ metrics_arg $ trace_arg $ spp_arg $ fmin_arg $ fmax_arg
      $ circuit_arg $ target_arg $ duty_arg $ ratio_arg $ f0_arg $ q_arg
      $ stages_arg)

(* ---- bench: regression gate over metrics artifacts ---- *)

(* Reads either a full scnoise.metrics snapshot or a pruned
   scnoise.bench-metrics document, as the flattened metric list the
   gate actually compares. *)
let read_metrics path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> (
      match Bench_diff.metrics_of_json_string s with
      | metrics -> Ok metrics
      | exception Json.Parse_error msg ->
          Error (Printf.sprintf "%s: %s" path msg))

let bench_diff_cmd =
  let run threshold all base_path cur_path =
    match (read_metrics base_path, read_metrics cur_path) with
    | Error msg, _ | _, Error msg ->
        Printf.eprintf "scnoise: %s\n" msg;
        2
    | Ok baseline, Ok current ->
        let report =
          Bench_diff.diff_metrics ~threshold_pct:threshold ~baseline ~current ()
        in
        Bench_diff.print ~all report;
        if report.Bench_diff.regressions > 0 then 1 else 0
  in
  let threshold_arg =
    let doc =
      "Relative regression threshold in percent; a metric only gates when \
       it also exceeds its absolute noise floor."
    in
    Arg.(value & opt float 25.0 & info [ "threshold" ] ~doc ~docv:"PCT")
  in
  let all_arg =
    let doc = "Print every shared metric, not just the changed ones." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let base_arg =
    let doc = "Baseline metrics JSON (scnoise.metrics/1 or /2)." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"BASELINE")
  in
  let cur_arg =
    let doc = "Current metrics JSON to compare against the baseline." in
    Arg.(required & pos 1 (some string) None & info [] ~doc ~docv:"CURRENT")
  in
  let doc =
    "Compare two metrics documents (--metrics / bench artifacts) and exit \
     non-zero when timers, histogram quantiles, span aggregates or \
     counters regressed beyond the threshold."
  in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(
      const (fun () threshold all base cur -> run threshold all base cur)
      $ setup_term $ threshold_arg $ all_arg $ base_arg $ cur_arg)

let bench_check_trace_cmd =
  let run paths =
    List.fold_left
      (fun code path ->
        match Trace.validate_file path with
        | Ok () ->
            Printf.printf "%s: ok\n" path;
            code
        | Error msg ->
            Printf.eprintf "scnoise: %s: %s\n" path msg;
            1)
      0 paths
  in
  let paths_arg =
    let doc = "Trace Event JSON files to validate." in
    Arg.(non_empty & pos_all string [] & info [] ~doc ~docv:"FILE")
  in
  let doc =
    "Validate Chrome Trace Event files emitted by --trace (used by CI to \
     schema-check uploaded artifacts)."
  in
  Cmd.v
    (Cmd.info "check-trace" ~doc)
    Term.(const (fun () paths -> run paths) $ setup_term $ paths_arg)

let bench_prune_cmd =
  let run in_path out_path =
    match read_metrics in_path with
    | Error msg ->
        Printf.eprintf "scnoise: %s\n" msg;
        2
    | Ok metrics ->
        Export.write_string_file out_path
          (Bench_diff.metrics_to_json_string metrics ^ "\n");
        if out_path <> "-" then
          Printf.printf "# pruned %s -> %s (%d metrics)\n" in_path out_path
            (List.length metrics);
        0
  in
  let in_arg =
    let doc = "Metrics JSON to prune (full snapshot or already pruned)." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"IN")
  in
  let out_arg =
    let doc = "Destination ($(b,-) streams to stdout; may equal IN)." in
    Arg.(required & pos 1 (some string) None & info [] ~doc ~docv:"OUT")
  in
  let doc =
    "Flatten a metrics snapshot down to the scalar metrics the $(b,bench \
     diff) gate reads (scnoise.bench-metrics/1) — what the committed \
     baselines store, two orders of magnitude smaller than raw snapshots."
  in
  Cmd.v
    (Cmd.info "prune" ~doc)
    Term.(const (fun () i o -> run i o) $ setup_term $ in_arg $ out_arg)

let bench_cmd =
  let doc =
    "Performance telemetry utilities (regression diff, trace checks, \
     baseline pruning)."
  in
  Cmd.group (Cmd.info "bench" ~doc)
    [ bench_diff_cmd; bench_check_trace_cmd; bench_prune_cmd ]

(* ---- deck utilities ---- *)

let deck_hash_cmd =
  let run canon path =
    match Deck.load_file path with
    | Error msg ->
        Printf.eprintf "scnoise: %s\n" msg;
        1
    | Ok loaded ->
        if canon then
          print_string (Canon.canonical loaded.Deck.elab loaded.Deck.ast)
        else print_endline (Canon.hash_loaded loaded);
        0
  in
  let path_arg =
    let doc = "Netlist deck ($(b,-) reads stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"DECK")
  in
  let canon_arg =
    let doc = "Print the canonical document being hashed instead of its hash." in
    Arg.(value & flag & info [ "canon" ] ~doc)
  in
  let doc =
    "Print the canonical content hash of a deck — the serve cache key.  \
     Comments, layout, parameter order and spelling of evaluated \
     expressions do not change the hash; any electrical change does.  \
     Analysis directives are excluded (they are request defaults, not \
     circuit content)."
  in
  Cmd.v
    (Cmd.info "hash" ~doc)
    Term.(const (fun () canon path -> run canon path)
          $ setup_term $ canon_arg $ path_arg)

let deck_cmd =
  let doc = "Netlist deck utilities (content hashing)." in
  Cmd.group (Cmd.info "deck" ~doc) [ deck_hash_cmd ]

(* ---- serve: the analysis daemon ---- *)

let serve_cmd =
  let run metrics trace socket port host cache_entries queue_limit timeout
      max_frame =
    with_obs metrics trace @@ fun () ->
    match (socket, port) with
    | None, None ->
        Printf.eprintf
          "scnoise: serve needs an address: --socket PATH or --port N\n";
        2
    | Some _, Some _ ->
        Printf.eprintf "scnoise: choose one of --socket / --port\n";
        2
    | _ -> (
        let addr =
          match socket with
          | Some path -> Sv.Unix_path path
          | None -> Sv.Tcp (host, Option.get port)
        in
        let cfg = Sv.config ~max_frame ~queue_limit ?timeout_s:timeout addr in
        match Sv.create ~exec:(Sx.create ~cache_entries ()) cfg with
        | exception Unix.Unix_error (e, _, _) ->
            Printf.eprintf "scnoise: cannot listen on %s: %s\n"
              (match addr with
              | Sv.Unix_path p -> p
              | Sv.Tcp (h, p) -> Printf.sprintf "%s:%d" h p)
              (Unix.error_message e);
            1
        | server ->
            Sv.run server;
            0)
  in
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~doc ~docv:"PATH")
  in
  let port_arg =
    let doc = "Listen on TCP port $(docv) instead of a Unix socket." in
    Arg.(value & opt (some int) None & info [ "port" ] ~doc ~docv:"PORT")
  in
  let host_arg =
    let doc = "Bind address for --port." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc ~docv:"HOST")
  in
  let cache_arg =
    let doc =
      "Result-cache capacity (the prepared-solver tier holds a quarter of \
       this)."
    in
    Arg.(value & opt int Sx.default_cache_entries
         & info [ "cache-entries" ] ~doc)
  in
  let queue_arg =
    let doc = "Admission queue bound; beyond it requests get an overload \
               error immediately." in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~doc)
  in
  let timeout_arg =
    let doc =
      "Maximum seconds a request may wait in the queue before being \
       answered with a timeout error."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~doc ~docv:"SECONDS")
  in
  let max_frame_arg =
    let doc = "Largest accepted request frame, bytes." in
    Arg.(value & opt int Sp.default_max_frame & info [ "max-frame" ] ~doc)
  in
  let doc =
    "Run the persistent noise-analysis daemon: length-prefixed JSON \
     requests (psd, variance, contrib, transfer, check, stats, batch \
     envelopes) over a Unix or TCP socket, with a content-addressed \
     result cache and a prepared-solver cache keyed by the canonical deck \
     hash (see $(b,scnoise deck hash)).  Served results are bit-identical \
     to direct CLI runs.  SIGINT/SIGTERM drain in-flight work, then exit."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const (fun () metrics trace socket port host cache queue timeout frame ->
          run metrics trace socket port host cache queue timeout frame)
      $ setup_term $ metrics_arg $ trace_arg $ socket_arg $ port_arg
      $ host_arg $ cache_arg $ queue_arg $ timeout_arg $ max_frame_arg)

(* ---- main ---- *)

let () =
  (* defaults for paths that bypass a subcommand (help, errors); each
     subcommand re-runs the setup with its parsed verbosity options *)
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let doc =
    "Noise spectral density of switched-capacitor circuits via the \
     mixed-frequency-time technique"
  in
  let info = Cmd.info "scnoise" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            list_cmd; check_cmd; info_cmd; psd_cmd; variance_cmd; contrib_cmd;
            transfer_cmd; report_cmd; bench_cmd; deck_cmd; serve_cmd;
          ]))
