(* Benchmark harness: regenerates every reconstructed table and figure of
   the evaluation (see DESIGN.md / EXPERIMENTS.md for the index).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- f2 t1   -- run a subset

   Figures are printed as aligned data series (frequency vs dB columns);
   tables as aligned rows.  Timing tables use Bechamel. *)

module Table = Scnoise_util.Table
module Grid = Scnoise_util.Grid
module Db = Scnoise_util.Db
module Mat = Scnoise_linalg.Mat
module Pwl = Scnoise_circuit.Pwl
module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Contrib = Scnoise_core.Contrib
module Esd = Scnoise_noise.Esd_transient
module Mc = Scnoise_noise.Monte_carlo
module A_src = Scnoise_analytic.Switched_rc
module SRC = Scnoise_circuits.Switched_rc
module LP = Scnoise_circuits.Sc_lowpass
module BP = Scnoise_circuits.Sc_bandpass
module INT = Scnoise_circuits.Sc_integrator
module Obs = Scnoise_obs.Obs
module Clock = Scnoise_obs.Clock
module Export = Scnoise_obs.Export
module Trace = Scnoise_obs.Trace
module Bench_diff = Scnoise_obs.Bench_diff
module Hist = Scnoise_obs.Hist
module Pool = Scnoise_par.Pool

let header title =
  Printf.printf "\n================ %s ================\n%!" title

(* Wall-clock milliseconds for one call of [f] (monotonic, unlike
   [Sys.time], which reports CPU time and skews under load). *)
let wall_ms f =
  let t0 = Clock.now () in
  f ();
  1000.0 *. Clock.elapsed t0

(* ------------------------------------------------------------------ *)
(* Bechamel helpers                                                     *)
(* ------------------------------------------------------------------ *)

let time_per_run_ns tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.6) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" tests) in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> (name, e) :: acc
      | Some [] | None -> acc)
    res []

let find_time results suffix =
  match
    List.find_opt (fun (name, _) -> String.ends_with ~suffix name) results
  with
  | Some (_, ns) -> ns
  | None -> nan

(* ------------------------------------------------------------------ *)
(* EXP-F1: PSD at a fixed frequency as a function of time              *)
(* ------------------------------------------------------------------ *)

let exp_f1 () =
  header "EXP-F1  PSD(7.5 kHz) vs time, SC low-pass (companion Fig. 1)";
  let b = LP.build LP.default in
  let f = 7.5e3 in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  let s_mft = Psd.psd eng ~f in
  let bf =
    Esd.psd ~samples_per_phase:128 ~tol_db:0.02 ~window_periods:3 b.LP.sys
      ~output:b.LP.output ~f
  in
  Printf.printf "MFT steady-state value: %.3f dB (one-period solve)\n"
    (Db.of_power s_mft);
  Printf.printf "Brute force converged after %d clock periods\n" bf.Esd.periods;
  let t = Table.create [ "time_s"; "bruteforce_dB"; "mft_dB" ] in
  Array.iter
    (fun (time, est) ->
      Table.add_float_row t ~precision:5
        (Printf.sprintf "%.6g" time)
        [ Db.of_power est; Db.of_power s_mft ])
    bf.Esd.history;
  Table.print t

(* ------------------------------------------------------------------ *)
(* EXP-F2: switched RC vs the closed form (companion Fig. 3)           *)
(* ------------------------------------------------------------------ *)

let exp_f2 () =
  header "EXP-F2  switched RC PSD vs Rice-equivalent closed form (Fig. 3)";
  let combos = [ (5.0, 0.5); (5.0, 0.25); (20.0, 0.5); (20.0, 0.25) ] in
  List.iter
    (fun (t_over_rc, duty) ->
      Printf.printf "\n-- T/RC = %g, duty = %g --\n" t_over_rc duty;
      let b = SRC.build (SRC.with_ratio ~t_over_rc ~duty ()) in
      let p = b.SRC.params in
      let a =
        A_src.make ~r:p.SRC.r ~c:p.SRC.c ~period:p.SRC.period ~duty:p.SRC.duty
          ()
      in
      let eng =
        Psd.prepare ~samples_per_phase:128 b.SRC.sys ~output:b.SRC.output
      in
      let fts = Grid.linspace 0.0 3.0 31 in
      let freqs = Array.map (fun ft -> ft /. p.SRC.period) fts in
      let mft = Psd.sweep_db eng freqs in
      let t = Table.create [ "f*T"; "mft_dB"; "analytic_dB"; "delta_dB" ] in
      let max_err = ref 0.0 in
      Array.iteri
        (fun i ft ->
          let s1 = mft.(i) in
          let s2 = Db.of_power (A_src.psd a freqs.(i)) in
          max_err := max !max_err (abs_float (s1 -. s2));
          Table.add_float_row t ~precision:5
            (Printf.sprintf "%.2f" ft)
            [ s1; s2; s1 -. s2 ])
        fts;
      Table.print t;
      Printf.printf "max |error| = %.4f dB\n" !max_err)
    combos

(* ------------------------------------------------------------------ *)
(* EXP-F3: SC low-pass, both op-amp macromodels (companion Fig. 7)     *)
(* ------------------------------------------------------------------ *)

let lowpass_freqs = Grid.linspace 100.0 16_000.0 60

let exp_f3 () =
  header "EXP-F3  SC low-pass PSD, two op-amp macromodels (Fig. 7)";
  let b1 = LP.build LP.default in
  let b2 = LP.build LP.single_stage_variant in
  let e1 = Psd.prepare ~samples_per_phase:128 b1.LP.sys ~output:b1.LP.output in
  let e2 = Psd.prepare ~samples_per_phase:128 b2.LP.sys ~output:b2.LP.output in
  let s1 = Psd.sweep_db e1 lowpass_freqs in
  let s2 = Psd.sweep_db e2 lowpass_freqs in
  let t =
    Table.create [ "f_Hz"; "integrator_opamp_dB"; "single_stage_dB" ]
  in
  Array.iteri
    (fun i f ->
      Table.add_float_row t ~precision:5
        (Printf.sprintf "%.0f" f)
        [ s1.(i); s2.(i) ])
    lowpass_freqs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* EXP-F4: switch-resistance study (companion Fig. 8)                  *)
(* ------------------------------------------------------------------ *)

let exp_f4 () =
  header "EXP-F4  SC low-pass vs switch resistances (Fig. 8)";
  let variants =
    [
      ("all 80", LP.default);
      ("R4=800", { LP.default with LP.r4 = 800.0 });
      ("R5=800", { LP.default with LP.r5 = 800.0 });
      ("R6=800", { LP.default with LP.r6 = 800.0 });
    ]
  in
  let engines =
    List.map
      (fun (label, p) ->
        let b = LP.build p in
        (label, Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output))
      variants
  in
  let t = Table.create ("f_Hz" :: List.map fst engines) in
  Array.iter
    (fun f ->
      Table.add_float_row t ~precision:5
        (Printf.sprintf "%.0f" f)
        (List.map (fun (_, e) -> Psd.psd_db e ~f) engines))
    lowpass_freqs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* EXP-F5: op-amp bandwidth study (companion Fig. 9)                   *)
(* ------------------------------------------------------------------ *)

let exp_f5 () =
  header "EXP-F5  SC low-pass vs op-amp unity-gain frequency (Fig. 9)";
  let variants =
    [
      ("9pi*1e6", 9.0 *. Float.pi *. 1e6);
      ("9pi*1e7", 9.0 *. Float.pi *. 1e7);
      ("~inf(9pi*1e9)", 9.0 *. Float.pi *. 1e9);
    ]
  in
  let engines =
    List.map
      (fun (label, ugf) ->
        let b = LP.build { LP.default with LP.opamp = LP.Integrator { ugf } } in
        (label, Psd.prepare ~samples_per_phase:192 b.LP.sys ~output:b.LP.output))
      variants
  in
  let t = Table.create ("f_Hz" :: List.map fst engines) in
  Array.iter
    (fun f ->
      Table.add_float_row t ~precision:5
        (Printf.sprintf "%.0f" f)
        (List.map (fun (_, e) -> Psd.psd_db e ~f) engines))
    lowpass_freqs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* EXP-F6: band-pass filter (companion Fig. 5)                         *)
(* ------------------------------------------------------------------ *)

let exp_f6 () =
  header "EXP-F6  SC band-pass output noise spectral density (Fig. 5)";
  let b = BP.build BP.default in
  let eng = Psd.prepare ~samples_per_phase:96 b.BP.sys ~output:b.BP.output in
  let freqs = Grid.logspace 200.0 64_000.0 60 in
  let t = Table.create [ "f_Hz"; "psd_dB" ] in
  let fpeak = ref 0.0 and speak = ref neg_infinity in
  Array.iter
    (fun f ->
      let s = Psd.psd_db eng ~f in
      if s > !speak then begin
        speak := s;
        fpeak := f
      end;
      Table.add_float_row t ~precision:5 (Printf.sprintf "%.0f" f) [ s ])
    freqs;
  Table.print t;
  Printf.printf "peak %.2f dB near %.0f Hz (designed f0 = 8000 Hz)\n" !speak
    !fpeak;
  (* noise-contribution decomposition at the peak *)
  let parts =
    Contrib.per_source_psd ~samples_per_phase:48 b.BP.sys ~output:b.BP.output
      ~f:!fpeak
  in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 parts in
  let top =
    List.sort (fun (_, a) (_, b) -> compare b a) parts |> fun l ->
    List.filteri (fun i _ -> i < 5) l
  in
  let t2 = Table.create [ "source"; "share_%" ] in
  List.iter
    (fun (label, s) ->
      Table.add_float_row t2 ~precision:3 label [ 100.0 *. s /. total ])
    top;
  Printf.printf "\nTop noise contributors at the peak:\n";
  Table.print t2

(* ------------------------------------------------------------------ *)
(* EXP-T1: runtime / speedup table (the DAC headline)                  *)
(* ------------------------------------------------------------------ *)

let exp_t1 () =
  header "EXP-T1  runtime per frequency point: MFT vs brute force";
  let cases =
    [
      ( "switched_rc",
        (let b = SRC.build SRC.default in
         (b.SRC.sys, b.SRC.output)),
        1e5 );
      ( "sc_lowpass",
        (let b = LP.build LP.default in
         (b.LP.sys, b.LP.output)),
        1e3 );
      ( "sc_bandpass",
        (let b = BP.build BP.default in
         (b.BP.sys, b.BP.output)),
        8e3 );
    ]
  in
  let t =
    Table.create
      [
        "circuit"; "states"; "mft_prepare_ms"; "mft_point_ms"; "bf_point_ms";
        "bf_periods"; "speedup";
      ]
  in
  List.iter
    (fun (name, (sys, output), f) ->
      let spp = 96 in
      let eng = Psd.prepare ~samples_per_phase:spp sys ~output in
      let bf0 =
        Esd.psd ~samples_per_phase:spp ~tol_db:0.1 sys ~output ~f
      in
      let open Bechamel in
      let results =
        time_per_run_ns
          [
            Test.make ~name:"prepare"
              (Staged.stage (fun () ->
                   ignore (Psd.prepare ~samples_per_phase:spp sys ~output)));
            Test.make ~name:"mft_point"
              (Staged.stage (fun () -> ignore (Psd.psd eng ~f)));
            Test.make ~name:"bf_point"
              (Staged.stage (fun () ->
                   ignore
                     (Esd.psd ~samples_per_phase:spp ~tol_db:0.1 sys ~output
                        ~f)));
          ]
      in
      let prep = find_time results "prepare" /. 1e6 in
      let mft = find_time results "mft_point" /. 1e6 in
      let bf = find_time results "bf_point" /. 1e6 in
      Table.add_row t
        [
          name;
          string_of_int sys.Pwl.nstates;
          Printf.sprintf "%.3f" prep;
          Printf.sprintf "%.3f" mft;
          Printf.sprintf "%.3f" bf;
          string_of_int bf0.Esd.periods;
          Printf.sprintf "%.1fx" (bf /. mft);
        ])
    cases;
  Table.print t;
  Printf.printf
    "(bf at the paper's 0.1 dB stopping rule; MFT point excludes the shared \
     one-time prepare)\n"

(* ------------------------------------------------------------------ *)
(* EXP-T2: cross-engine accuracy table                                 *)
(* ------------------------------------------------------------------ *)

let exp_t2 () =
  header "EXP-T2  accuracy: max |delta| dB across engines";
  let t = Table.create [ "circuit"; "comparison"; "freqs"; "max_delta_dB" ] in
  (* switched RC vs closed form *)
  let b = SRC.build (SRC.with_ratio ~t_over_rc:5.0 ~duty:0.5 ()) in
  let p = b.SRC.params in
  let a =
    A_src.make ~r:p.SRC.r ~c:p.SRC.c ~period:p.SRC.period ~duty:p.SRC.duty ()
  in
  let eng = Psd.prepare ~samples_per_phase:128 b.SRC.sys ~output:b.SRC.output in
  let freqs = Grid.linspace 1e3 1e6 25 in
  let dmax =
    Array.fold_left max 0.0
      (Array.map
         (fun f ->
           abs_float (Psd.psd_db eng ~f -. Db.of_power (A_src.psd a f)))
         freqs)
  in
  Table.add_row t
    [ "switched_rc"; "mft vs closed form"; "25 in [1k,1M]";
      Printf.sprintf "%.4f" dmax ];
  let bf_err =
    Array.fold_left max 0.0
      (Array.map
         (fun f ->
           let bf =
             Esd.psd ~samples_per_phase:96 ~tol_db:0.02 b.SRC.sys
               ~output:b.SRC.output ~f
           in
           abs_float (Db.of_power bf.Esd.psd -. Db.of_power (A_src.psd a f)))
         (Grid.linspace 1e3 1e6 7))
  in
  Table.add_row t
    [ "switched_rc"; "brute force vs closed form"; "7 in [1k,1M]";
      Printf.sprintf "%.4f" bf_err ];
  (* lowpass mft vs brute force *)
  let bl = LP.build LP.default in
  let el = Psd.prepare ~samples_per_phase:128 bl.LP.sys ~output:bl.LP.output in
  let lp_err =
    List.fold_left
      (fun acc f ->
        let bf =
          Esd.psd ~samples_per_phase:128 ~tol_db:0.02 bl.LP.sys
            ~output:bl.LP.output ~f
        in
        max acc (abs_float (Psd.psd_db el ~f -. Db.of_power bf.Esd.psd)))
      0.0
      [ 100.0; 1e3; 2e3; 6e3; 1e4 ]
  in
  Table.add_row t
    [ "sc_lowpass"; "mft vs brute force"; "5 in [100,10k]";
      Printf.sprintf "%.4f" lp_err ];
  (* bandpass mft vs brute force *)
  let bb = BP.build BP.default in
  let eb = Psd.prepare ~samples_per_phase:64 bb.BP.sys ~output:bb.BP.output in
  let bp_err =
    List.fold_left
      (fun acc f ->
        let bf =
          Esd.psd ~samples_per_phase:64 ~tol_db:0.005 ~window_periods:10
            bb.BP.sys ~output:bb.BP.output ~f
        in
        max acc (abs_float (Psd.psd_db eb ~f -. Db.of_power bf.Esd.psd)))
      0.0 [ 4e3; 8e3; 1.2e4 ]
  in
  Table.add_row t
    [ "sc_bandpass"; "mft vs brute force"; "3 around f0";
      Printf.sprintf "%.4f" bp_err ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* EXP-T3: variance sanity table                                       *)
(* ------------------------------------------------------------------ *)

let exp_t3 () =
  header "EXP-T3  steady-state output variance: MFT vs kT/C law vs Monte-Carlo";
  let t =
    Table.create
      [ "circuit"; "mft_variance_V2"; "reference"; "reference_V2"; "mc_V2" ]
  in
  (* switched RC: kT/C *)
  let b = SRC.build SRC.default in
  let cov = Covariance.sample b.SRC.sys in
  let v_mft = (Covariance.variance cov b.SRC.output).Covariance.average in
  let ktc = Scnoise_util.Const.kt () /. b.SRC.params.SRC.c in
  let mc =
    Mc.estimate ~seed:41L ~paths:8 ~segments_per_path:8 b.SRC.sys
      ~output:b.SRC.output ~freqs:[||]
  in
  Table.add_row t
    [
      "switched_rc";
      Printf.sprintf "%.4e" v_mft;
      "kT/C";
      Printf.sprintf "%.4e" ktc;
      Printf.sprintf "%.4e" mc.Mc.variance;
    ];
  (* integrator: 1/(1-pole^2)-amplified sampled noise; MC cross-check *)
  let bi = INT.build INT.default in
  let covi = Covariance.sample ~samples_per_phase:96 bi.INT.sys in
  let vi = (Covariance.variance covi bi.INT.output).Covariance.average in
  let p = INT.default in
  let var_cycle =
    2.0
    *. (Scnoise_util.Const.kt () /. p.INT.cs)
    *. ((p.INT.cs /. p.INT.ci) ** 2.0)
  in
  let v_dt =
    Scnoise_analytic.Ideal_sc.total_noise_first_order ~var:var_cycle
      ~pole:(INT.dt_pole p)
  in
  let mci =
    Mc.estimate ~seed:43L ~paths:8 ~segments_per_path:6 ~samples_per_phase:64
      bi.INT.sys ~output:bi.INT.output ~freqs:[||]
  in
  Table.add_row t
    [
      "sc_integrator";
      Printf.sprintf "%.4e" vi;
      "ideal DT model";
      Printf.sprintf "%.4e" v_dt;
      Printf.sprintf "%.4e" mci.Mc.variance;
    ];
  (* bandpass: MC cross-check only *)
  let bb = BP.build BP.default in
  let covb = Covariance.sample ~samples_per_phase:64 bb.BP.sys in
  let vb = (Covariance.variance covb bb.BP.output).Covariance.average in
  let mcb =
    Mc.estimate ~seed:47L ~paths:6 ~segments_per_path:6 ~samples_per_phase:48
      bb.BP.sys ~output:bb.BP.output ~freqs:[||]
  in
  Table.add_row t
    [
      "sc_bandpass";
      Printf.sprintf "%.4e" vb;
      "(none)";
      "-";
      Printf.sprintf "%.4e" mcb.Mc.variance;
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* EXP-T4: ablation benches                                            *)
(* ------------------------------------------------------------------ *)

let exp_t4 () =
  header "EXP-T4a  periodic-Lyapunov solver ablation (band-pass, 9 states)";
  let b = BP.build BP.default in
  let sys = b.BP.sys in
  let { Covariance.phi_period = phi; q_period = q; _ } =
    Covariance.sample ~samples_per_phase:64 sys
  in
  let k_ref = Kron.solve_discrete phi q in
  let open Bechamel in
  let results =
    time_per_run_ns
      [
        Test.make ~name:"kron"
          (Staged.stage (fun () ->
               ignore (Kron.solve_discrete phi q)));
        Test.make ~name:"doubling"
          (Staged.stage (fun () ->
               ignore (Scnoise_linalg.Lyapunov.solve_discrete_doubling phi q)));
      ]
  in
  let t = Table.create [ "solver"; "time_ms"; "max_err_vs_kron" ] in
  Table.add_row t
    [ "kron (exact)"; Printf.sprintf "%.4f" (find_time results "kron" /. 1e6);
      "0" ];
  let k_dbl = Scnoise_linalg.Lyapunov.solve_discrete_doubling phi q in
  Table.add_row t
    [
      "doubling"; Printf.sprintf "%.4f" (find_time results "doubling" /. 1e6);
      Printf.sprintf "%.2e" (Mat.max_abs_diff k_ref k_dbl);
    ];
  List.iter
    (fun n ->
      let k = ref (Mat.create sys.Pwl.nstates sys.Pwl.nstates) in
      let ms =
        wall_ms (fun () ->
            for _ = 1 to n do
              k :=
                Mat.symmetrize
                  (Mat.add (Mat.mul phi (Mat.mul !k (Mat.transpose phi))) q)
            done)
      in
      Table.add_row t
        [
          Printf.sprintf "iterate x%d (naive)" n;
          Printf.sprintf "%.4f" ms;
          Printf.sprintf "%.2e" (Mat.max_abs_diff k_ref !k);
        ])
    [ 64; 512 ];
  Table.print t;
  header "EXP-T4b  one-period quadrature grid ablation (SC low-pass)";
  let bl = LP.build LP.default in
  let reference =
    Psd.psd
      (Psd.prepare ~samples_per_phase:768 ~grid:`Stretched bl.LP.sys
         ~output:bl.LP.output)
      ~f:100.0
  in
  let t =
    Table.create [ "samples/phase"; "stretched_err_dB"; "uniform_err_dB" ]
  in
  List.iter
    (fun spp ->
      let v grid =
        Psd.psd
          (Psd.prepare ~samples_per_phase:spp ~grid bl.LP.sys
             ~output:bl.LP.output)
          ~f:100.0
      in
      let err grid = abs_float (Db.delta (v grid) reference) in
      Table.add_row t
        [
          string_of_int spp;
          Printf.sprintf "%.4f" (err `Stretched);
          Printf.sprintf "%.4f" (err `Uniform);
        ])
    [ 16; 32; 64; 128; 256 ];
  Table.print t;
  Printf.printf
    "(stretched grids resolve the post-switching boundary layer of the stiff \
     phases)\n"

(* ------------------------------------------------------------------ *)
(* EXP-T5: frequency-domain (harmonic) baseline truncation study       *)
(* ------------------------------------------------------------------ *)

let exp_t5 () =
  header
    "EXP-T5  frequency-domain LPTV baseline: aliasing-sum truncation vs the \
     time-domain result";
  let module Fd = Scnoise_noise.Freq_domain in
  (* switched RC: the closed form referees *)
  let b = SRC.build (SRC.with_ratio ~t_over_rc:5.0 ~duty:0.5 ()) in
  let p = b.SRC.params in
  let a =
    A_src.make ~r:p.SRC.r ~c:p.SRC.c ~period:p.SRC.period ~duty:p.SRC.duty ()
  in
  let fd = Fd.prepare ~samples_per_phase:96 b.SRC.sys ~output:b.SRC.output in
  let f = 1e4 in
  let s_ref = A_src.psd a f in
  let t =
    Table.create [ "K"; "solves"; "fd_dB"; "error_dB"; "time_ms" ]
  in
  List.iter
    (fun k ->
      let s = ref 0.0 in
      let dt = wall_ms (fun () -> s := Fd.psd fd ~f ~k_max:k) in
      let s = !s in
      Table.add_row t
        [
          string_of_int k;
          string_of_int ((2 * k) + 1);
          Printf.sprintf "%.3f" (Db.of_power s);
          Printf.sprintf "%+.3f" (Db.of_power s -. Db.of_power s_ref);
          Printf.sprintf "%.2f" dt;
        ])
    [ 0; 1; 2; 5; 10; 20; 40 ];
  Printf.printf "switched RC at f = %.0f Hz (closed form %.3f dB):\n" f
    (Db.of_power s_ref);
  Table.print t;
  (* the stiff low-pass filter: the aliasing sum must span the op-amp
     bandwidth, i.e. hundreds of clock harmonics *)
  let bl = LP.build LP.default in
  let el = Psd.prepare ~samples_per_phase:96 bl.LP.sys ~output:bl.LP.output in
  let s_mft = Psd.psd el ~f:100.0 in
  let fdl = Fd.prepare ~samples_per_phase:96 bl.LP.sys ~output:bl.LP.output in
  let t2 = Table.create [ "K"; "solves/source"; "error_dB"; "time_s" ] in
  List.iter
    (fun k ->
      let s = ref 0.0 in
      let dt = wall_ms (fun () -> s := Fd.psd fdl ~f:100.0 ~k_max:k) /. 1000.0 in
      let s = !s in
      Table.add_row t2
        [
          string_of_int k;
          string_of_int ((2 * k) + 1);
          Printf.sprintf "%+.2f" (Db.of_power s -. Db.of_power s_mft);
          Printf.sprintf "%.2f" dt;
        ])
    [ 0; 8; 32; 64 ];
  Printf.printf
    "\nstiff SC low-pass at 100 Hz (MFT: %.2f dB): the op-amp noise \
     bandwidth\nspans ~10^3 clock harmonics, so truncated sums fall short:\n"
    (Db.of_power s_mft);
  Table.print t2;
  Printf.printf
    "(this is the cost wall that motivates the mixed-frequency-time method)\n"

(* ------------------------------------------------------------------ *)
(* EXP-T6: scaling with the number of states (switched RC ladder)      *)
(* ------------------------------------------------------------------ *)

let exp_t6 () =
  header "EXP-T6  cost vs circuit size (switched RC ladder, N states)";
  let module LAD = Scnoise_circuits.Sc_ladder in
  let t =
    Table.create
      [ "states"; "prepare_ms"; "mft_point_ms"; "bf_point_ms"; "speedup" ]
  in
  List.iter
    (fun n ->
      let b = LAD.build (LAD.with_stages n) in
      let sys = b.LAD.sys and output = b.LAD.output in
      let spp = 48 in
      let time f =
        (* median wall time of a few repetitions *)
        let reps = 3 in
        let samples = List.init reps (fun _ -> wall_ms f) in
        List.nth (List.sort compare samples) (reps / 2)
      in
      let eng = ref None in
      let prep =
        time (fun () ->
            eng := Some (Psd.prepare ~samples_per_phase:spp sys ~output))
      in
      let eng = Option.get !eng in
      let f = 1e4 in
      let mft = time (fun () -> ignore (Psd.psd eng ~f)) in
      let bf =
        time (fun () ->
            ignore (Esd.psd ~samples_per_phase:spp ~tol_db:0.1 sys ~output ~f))
      in
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.2f" prep;
          Printf.sprintf "%.3f" mft;
          Printf.sprintf "%.3f" bf;
          Printf.sprintf "%.1fx" (bf /. mft);
        ])
    [ 1; 2; 4; 8; 12; 16 ];
  Table.print t;
  Printf.printf
    "(the papers put the method's practical limit at the N(N+1)/2 \
     covariance unknowns;\n the dense engines here scale as O(N^3) per \
     substep and stay interactive to a few tens of states)\n"

(* ------------------------------------------------------------------ *)
(* EXP-T7: validity of the "full and fast" (ideal z-domain) baseline    *)
(* ------------------------------------------------------------------ *)

let exp_t7 () =
  header
    "EXP-T7  full-and-fast validity: exact MFT vs the ideal z-domain model      (SC integrator)";
  let module Dt = Scnoise_dtime.Dt_system in
  let module Ideal_dt = Scnoise_dtime.Ideal_dt in
  let t =
    Table.create
      [ "R_switch"; "RC/phase"; "err@100Hz_dB"; "err@1kHz_dB"; "err@10kHz_dB" ]
  in
  List.iter
    (fun r ->
      let p = { INT.default with INT.r_switch = r } in
      let b = INT.build p in
      let eng =
        Psd.prepare ~samples_per_phase:96 b.INT.sys ~output:b.INT.output
      in
      let dt = Ideal_dt.sc_integrator p in
      let d f = Db.delta (Psd.psd eng ~f) (Dt.spectrum_held dt ~f) in
      let phase = 0.5 /. p.INT.clock_hz in
      Table.add_row t
        [
          Printf.sprintf "%.0e" r;
          Printf.sprintf "%.3f" (r *. p.INT.cs /. phase);
          Printf.sprintf "%+.2f" (d 100.0);
          Printf.sprintf "%+.2f" (d 1e3);
          Printf.sprintf "%+.2f" (d 1e4);
        ])
    [ 1e2; 1e4; 1e5; 1e6; 4e6; 1.6e7; 6.4e7 ];
  Table.print t;
  Printf.printf
    "(the ideal z-domain picture — used by the Goette/Toth-style baselines —      holds while the
 settling constant stays below ~1/5 of the phase and      collapses beyond; the exact
 time-domain engines need no such      assumption)
"

(* ------------------------------------------------------------------ *)
(* EXP-K2: bit-faithful dense kernels (GEMM, Van Loan discretisation)  *)
(* ------------------------------------------------------------------ *)

(* A random matrix in the Van Loan layout [[-A, Q], [0, Aᵀ]] at total
   size n. *)
let vanloan_shaped rnd n =
  let h = n / 2 in
  let a = Mat.init h h (fun _ _ -> rnd ()) and q = Mat.init h h (fun _ _ -> rnd ()) in
  Mat.init n n (fun i j ->
      if i < h && j < h then -.Mat.get a i j
      else if i < h then Mat.get q i (j - h)
      else if j < h then 0.0
      else Mat.get a (j - h) (i - h))

(* A real Van Loan operand: phase [phase] of the [stages]-stage
   parasitic ladder at tau/48, its rows sparse inside a support spanning
   both blocks; with its name and the phase. *)
let ladder_vanloan stages phase =
  let module LAD = Scnoise_circuits.Sc_ladder in
  let sys =
    (LAD.build (LAD.with_parasitics (LAD.with_stages stages))).LAD.sys
  in
  let ph = sys.Pwl.phases.(phase) in
  ( Printf.sprintf "ladder-%d phase %d" sys.Pwl.nstates phase,
    ph,
    Oracle.augmented ~a:ph.Pwl.a ~q:ph.Pwl.q
      ~tau:(ph.Pwl.tau /. 48.0) )

(* The operands of the Padé tables (EXP-C2): the ladder's Van Loan
   matrices and a random Van Loan-shaped one. *)
let vanloan_systems () =
  let rng = Random.State.make [| 0x50_1e |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  List.map
    (fun (stages, phase) ->
      let name, _, m = ladder_vanloan stages phase in
      (name, m))
    [ (20, 0); (50, 0); (50, 1) ]
  @ [ ("random van-loan-shaped", vanloan_shaped rnd 200) ]

(* Returns whether the GEMM-SMOKE gate holds. *)
let exp_gemm () =
  header "EXP-K2  bit-faithful dense kernels: GEMM ns/flop, Van Loan ms and bytes";
  let module Vanloan = Scnoise_linalg.Vanloan in
  let rng = Random.State.make [| 0x6e_33 |] in
  let rnd () = Random.State.float rng 2.0 -. 1.0 in
  let vanloan_shaped = vanloan_shaped rnd in
  let t = Table.create [ "n"; "operand"; "ref_ns/flop"; "mul_ns/flop"; "speedup"; "bits" ] in
  let bits_ok = ref true and ratio80 = ref nan in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, a) ->
          let flops = 2.0 *. (float_of_int n ** 3.0) in
          let reps = max 1 (4_000_000 / (n * n * n)) in
          let equal =
            Oracle.bits_equal (Oracle.gemm a a) (Mat.data (Mat.mul a a))
          in
          if not equal then bits_ok := false;
          (* interleaved rounds, per-kernel minimum (see EXP-B1) *)
          let best_ref = ref infinity and best_mul = ref infinity in
          for _ = 1 to 7 do
            let r =
              wall_ms (fun () ->
                  for _ = 1 to reps do
                    ignore (Oracle.gemm a a)
                  done)
            in
            let m =
              wall_ms (fun () ->
                  for _ = 1 to reps do
                    ignore (Mat.mul a a)
                  done)
            in
            best_ref := Float.min !best_ref r;
            best_mul := Float.min !best_mul m
          done;
          let per_flop ms = ms *. 1e6 /. (float_of_int reps *. flops) in
          let ratio = !best_ref /. !best_mul in
          if n = 80 && shape = "dense" then ratio80 := ratio;
          Table.add_row t
            [
              string_of_int n; shape;
              Printf.sprintf "%.3f" (per_flop !best_ref);
              Printf.sprintf "%.3f" (per_flop !best_mul);
              Printf.sprintf "%.2fx" ratio;
              (if equal then "equal" else "MISMATCH");
            ])
        ([ ("dense", Mat.init n n (fun _ _ -> rnd ()));
           ("vanloan", vanloan_shaped n) ]
        @
        if n = 200 then
          let _, _, m = ladder_vanloan 50 0 in
          [ ("ladder vanloan", m) ]
        else []))
    [ 40; 80; 200 ];
  Table.print t;
  Printf.printf
    "(ns/flop over the nominal 2n^3 flops of an n x n product; the Van \
     Loan operand's zero block is skipped by the kernel's support bounds,\n \
     and the ladder's sparse rows run as row axpys over their nonzeros)\n";
  (* one augmented Van Loan discretisation: the block-structured
     exponential (F12 and F22 of the 2n matrix) plus the products
     around it *)
  let tv = Table.create [ "n"; "operand"; "discretize_ms"; "bytes" ] in
  let random n =
    let a =
      Mat.init n n (fun i j ->
          if i = j then -.(float_of_int n +. 1.0) else 0.5 *. rnd ())
    in
    let b = Mat.init n 3 (fun _ _ -> rnd ()) in
    (* ‖A‖τ ≈ 3 keeps the augmented (non-stiff) branch *)
    (n, "random", a, Mat.mul b (Mat.transpose b), 3.0 /. Mat.norm_inf a)
  in
  let ladder =
    let _, ph, _ = ladder_vanloan 50 0 in
    (100, "ladder", ph.Pwl.a, ph.Pwl.q, ph.Pwl.tau /. 48.0)
  in
  List.iter
    (fun (n, operand, a, q, tau) ->
      let run () = ignore (Vanloan.discretize ~a ~q ~tau) in
      run ();
      let best = ref infinity in
      for _ = 1 to 5 do
        best := Float.min !best (wall_ms run)
      done;
      let reps = 5 in
      let a0 = Gc.allocated_bytes () in
      for _ = 1 to reps do
        run ()
      done;
      let bytes = (Gc.allocated_bytes () -. a0) /. float_of_int reps in
      Table.add_row tv
        [ string_of_int n; operand; Printf.sprintf "%.2f" !best;
          Printf.sprintf "%.0f" bytes ])
    [ random 40; random 100; ladder ];
  Table.print tv;
  let ok = !ratio80 >= 2.0 && !bits_ok in
  Printf.printf "GEMM-SMOKE: n80_speedup=%.2fx bits=%s ok=%s\n" !ratio80
    (if !bits_ok then "equal" else "MISMATCH")
    (if ok then "ok" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* EXP-K1: complex-kernel microbenchmarks and hot-loop allocation      *)
(* ------------------------------------------------------------------ *)

module Bvp = Scnoise_core.Periodic_bvp
module LAD = Scnoise_circuits.Sc_ladder

(* Set by a failing kern smoke line: the run still writes its metrics
   record, then exits 1. *)
let smoke_failed = ref false

(* Run [f] — a timing loop whose repetition count the sampler decides —
   and take back what it added to the named counters, so that the run
   record's counts do not depend on the timing. *)
let uncounted names f =
  let cs = List.map Obs.counter names in
  let before = List.map Obs.value cs in
  let r = f () in
  List.iter2 (fun c v0 -> Obs.add c (v0 - Obs.value c)) cs before;
  r

(* Where a width-1 solve's time goes: its run starts (one per run of
   equal steps, the O(n) block inverses, priced by timing the start
   kernel on the circuit's first phase), the closure (start and
   back-substitution on I - e^{-jwT} T_Phi), and the particular pass —
   the rest of the measured solve. *)
let stage_split cases =
  let module Cvec = Scnoise_linalg.Cvec in
  let module Cx = Scnoise_linalg.Cx in
  let module Ctrap = Scnoise_ode.Ctrapezoid in
  let module Eig = Scnoise_linalg.Eig in
  let t =
    Table.create
      [
        "circuit"; "n"; "solve_ms"; "runs"; "start%"; "particular%";
        "closure%";
      ]
  in
  List.iter
    (fun (name, (sys, output), spp) ->
      let e = Psd.prepare ~samples_per_phase:spp sys ~output in
      let { Bvp_fixture.bvp; prepared = forcing; _ } =
        Bvp_fixture.of_engine e
      in
      let n = sys.Pwl.nstates in
      let omegas =
        Array.map
          (fun f -> 2.0 *. Float.pi *. f)
          (Grid.logspace 100.0 16_000.0 8)
      in
      let y = Cvec.panel_create ~dim:(Bvp.n_points bvp) ~width:1 in
      let runs = Bvp.n_runs bvp in
      let per_solve f =
        let best = ref infinity in
        for _ = 1 to 5 do
          best := Float.min !best (wall_ms f)
        done;
        !best /. float_of_int (Array.length omegas)
      in
      let total =
        per_solve (fun () ->
            Array.iter
              (fun o -> Bvp.solve bvp ~omegas:[| o |] ~forcing y)
              omegas)
      in
      let times = Bvp.times bvp in
      let tmat = Ctrap.quasi (fst (Eig.schur sys.Pwl.phases.(0).Pwl.a)) in
      let st = Ctrap.schur_create ~dim:n ~width:1 in
      let start =
        per_solve (fun () ->
            Array.iter
              (fun omega ->
                for _ = 1 to runs do
                  Ctrap.schur_start_shifted st ~tmat
                    ~h:(times.(1) -. times.(0)) ~col:0 ~omega
                done)
              omegas)
      in
      let tphi =
        Ctrap.quasi (fst (Eig.schur (Psd.covariance e).Covariance.phi_period))
      in
      let x = Array.make (2 * n) 1.0 in
      let closure =
        per_solve (fun () ->
            Array.iter
              (fun omega ->
                Ctrap.schur_start st ~tmat:tphi ~col:0 ~d:Cx.one
                  ~alpha:(Cx.cis (-.omega *. sys.Pwl.period));
                Ctrap.schur_solve_in_place st x)
              omegas)
      in
      let pct v = Printf.sprintf "%.0f" (100.0 *. v /. total) in
      Table.add_row t
        [
          name; string_of_int n; Printf.sprintf "%.4f" total;
          string_of_int runs;
          pct start; pct (total -. start -. closure); pct closure;
        ])
    cases;
  Table.print t

(* STEP-SMOKE: each prepared engine's grid ([Step_grid]) through the
   shipped shifted step and through [Oracle.schur_step], the
   general-coefficient step it specialises, on a 16-wide panel: every
   column of every step must agree bit for bit (test_ode "schur" holds
   the same grids).  Prints ns per column step for both; returns
   whether the bits held. *)
let step_smoke cases =
  let t =
    Table.create [ "circuit"; "n"; "steps"; "step_ns/col"; "reference_ns/col" ]
  in
  let width = 16 and equal = ref true and fields = Buffer.create 64 in
  List.iter
    (fun (name, e) ->
      let grid = Step_grid.of_engine e in
      let nint = Step_grid.steps grid in
      let omegas =
        Array.map (fun f -> 2.0 *. Float.pi *. f) (Grid.logspace 100.0 16_000.0 width)
      in
      let walk = Step_grid.walker grid ~omegas in
      let best f =
        let m = ref infinity in
        for _ = 1 to 5 do
          m := Float.min !m (wall_ms f)
        done;
        1e6 *. !m /. float_of_int (nint * width)
      in
      uncounted [ "ode_steps"; "ode_block_steps" ] (fun () ->
          if not (Step_grid.matches_reference grid ~omegas) then equal := false;
          let step_ns = best (fun () -> walk (fun _ _ _ -> ())) in
          let ref_ns =
            best (fun () ->
                walk (fun i p _ ->
                    for b = 0 to width - 1 do
                      ignore (Step_grid.reference grid ~omegas ~p i b)
                    done))
            -. step_ns
          in
          Table.add_row t
            [
              name; string_of_int grid.Step_grid.n; string_of_int nint;
              Printf.sprintf "%.1f" step_ns; Printf.sprintf "%.1f" ref_ns;
            ];
          Printf.bprintf fields "%s_ns=%.1f " name step_ns))
    cases;
  Table.print t;
  Printf.printf "STEP-SMOKE: %sbits=%s ok=%s\n" (Buffer.contents fields)
    (if !equal then "equal" else "MISMATCH")
    (if !equal then "ok" else "FAIL");
  !equal

(* Words [f] allocates: the minor words, read with [Gc.minor_words]
   (which counts the live minor-heap chunk), plus the words allocated
   directly in the major heap (major less promoted), around a run
   fenced by [Gc.minor ()] so that every promotion it causes is
   counted, and by a major slice, which folds the domain's pending
   major allocations into [Gc.quick_stat]'s counts (OCaml 5.1 adds them
   only at a slice); less the words of the readings themselves.
   [Gc.allocated_bytes] advances only in minor-heap quanta. *)
let alloc_words f =
  let fence () =
    Gc.minor ();
    ignore (Gc.major_slice 0)
  in
  let reading g =
    fence ();
    let s0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    g ();
    let m1 = Gc.minor_words () in
    fence ();
    let s1 = Gc.quick_stat () in
    let direct (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
    m1 -. m0 +. (direct s1 -. direct s0)
  in
  let overhead = reading ignore in
  reading f -. overhead

let exp_kern () =
  header "EXP-K1  per-point allocation: Schur sweep vs dense reference";
  let module Cx = Scnoise_linalg.Cx in
  let module Cvec = Scnoise_linalg.Cvec in
  let module Ctrap = Scnoise_ode.Ctrapezoid in
  (* per-PSD-point allocation: a default PSD point against one
     reference periodic-BVP solve ([Oracle.bvp_reference], dense complex
     LU on every interval) into a preallocated output buffer, counted
     in words ([alloc_words]) *)
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  let freqs = [| 100.0; 1e3; 4e3; 8e3; 16e3 |] in
  let per_point point =
    Array.iter point freqs;
    let reps = 400 in
    let words =
      alloc_words (fun () ->
          for _ = 1 to reps do
            Array.iter point freqs
          done)
    in
    words *. float_of_int (Sys.word_size / 8)
    /. float_of_int (reps * Array.length freqs)
  in
  let sweep_b = per_point (fun f -> ignore (Psd.psd eng ~f)) in
  let ref_b =
    let fx = Bvp_fixture.of_engine eng in
    let y = Cvec.panel_create ~dim:(Bvp.n_points fx.Bvp_fixture.bvp) ~width:1 in
    per_point (fun f ->
        Bvp_fixture.solve ~reference:true fx ~omegas:[| 2.0 *. Float.pi *. f |] y)
  in
  let t2 = Table.create [ "bvp_backend"; "bytes/point" ] in
  Table.add_row t2 [ "schur (default)"; Printf.sprintf "%.0f" sweep_b ];
  Table.add_row t2 [ "reference solve"; Printf.sprintf "%.0f" ref_b ];
  Table.print t2;
  Printf.printf
    "KERN-SMOKE: sweep_bytes_per_point=%.0f reference_bytes_per_point=%.0f \
     ok=%s\n"
    sweep_b ref_b
    (if sweep_b < 48_000.0 then "ok" else "FAIL");
  (* --- EXP-S1: batched sweeps on the Schur kernel ---

     Per-RHS cost of one trapezoid step at widths 1/4/8/16 up to
     n = 100, then the width table and the per-stage split of a
     solve, then whole-sweep
     ms/pt and bytes/pt on sc_lowpass with a serial pool (isolating the
     kernel effect from domain parallelism).  Batched results must be
     bit-identical to the B=1 sweep; the smoke gate demands the
     sweep's blocks beat B=1 by >= 1.5x.  The step timings run under
     Bechamel, whose sampler picks the repetition count, so their
     counts are taken back ([uncounted]). *)
  header "EXP-S1  batched sweeps: quasi-triangular Schur panel kernel";
  let module Eig = Scnoise_linalg.Eig in
  let tk =
    Table.create
      [
        "n"; "kernel"; "b1_ns"; "b4_ns/rhs"; "b8_ns/rhs"; "b16_ns/rhs";
        "speedup16";
      ]
  in
  List.iter
    (fun n ->
      let rng = Random.State.make [| 0xb1_0c; n |] in
      let rnd () = Random.State.float rng 2.0 -. 1.0 in
      let tmat =
        Ctrap.quasi
          (fst
             (Eig.schur
                (Mat.init n n (fun i j ->
                     if i = j then -.(float_of_int n +. 1.5) *. 1e6
                     else 3e5 *. rnd ()))))
      in
      let g = Cvec.init n (fun _ -> Cx.make (rnd ()) (rnd ())) in
      let widths = [ 1; 4; 8; 16 ] in
      let step w =
        let st = Ctrap.schur_create ~dim:n ~width:w in
        for col = 0 to w - 1 do
          Ctrap.schur_start_shifted st ~tmat ~h:1e-7 ~col
            ~omega:(2.0 *. Float.pi *. 1e3 *. float_of_int (col + 1))
        done;
        let p = Array.init (2 * n * w) (fun _ -> rnd ()) in
        let into = Array.make (2 * n * w) 0.0 in
        Bechamel.Test.make ~name:(Printf.sprintf "h%d" w)
          (Bechamel.Staged.stage (fun () ->
               Ctrap.step_schur_into st ~g ~p ~into))
      in
      let results =
        uncounted [ "ode_steps"; "ode_block_steps" ] (fun () ->
            time_per_run_ns (List.map step widths))
      in
      let per_rhs w = find_time results (Printf.sprintf "h%d" w) /. float_of_int w in
      Table.add_row tk
        ([ string_of_int n; "step_schur_into" ]
        @ List.map (fun w -> Printf.sprintf "%.1f" (per_rhs w)) widths
        @ [ Printf.sprintf "%.2fx" (per_rhs 1 /. per_rhs 16) ]))
    [ 4; 9; 40; 100 ];
  Table.print tk;
  let step_ok =
    let b = LAD.build (LAD.with_parasitics (LAD.with_stages 20)) in
    step_smoke
      [
        ("sc_lowpass", eng);
        ( "ladder-40",
          Psd.prepare ~samples_per_phase:48 b.LAD.sys ~output:b.LAD.output );
      ]
  in
  (* Width table: the same 16 frequencies solved as 16 width-1 solves,
     4 blocks of 4 and one block of 16 at the solve layer, per circuit
     size, over each circuit's workload band (interleaved rounds,
     per-mode minimum).  [Psd.batch_width]'s one width is read off this
     table and table 1. *)
  let ladder stages =
    let b = LAD.build (LAD.with_parasitics (LAD.with_stages stages)) in
    (b.LAD.sys, b.LAD.output)
  in
  let widths = [| 1; 4; 16 |] in
  let tw =
    Table.create
      ([ "circuit"; "n" ]
      @ List.map (Printf.sprintf "b%d_ms/pt") (Array.to_list widths)
      @ [ "b1/b16"; "auto_b" ])
  in
  List.iter
    (fun (name, (sys, output), spp, freqs) ->
      let e = Psd.prepare ~samples_per_phase:spp sys ~output in
      let { Bvp_fixture.bvp; prepared = forcing; _ } =
        Bvp_fixture.of_engine e
      in
      let omegas = Array.map (fun f -> 2.0 *. Float.pi *. f) freqs in
      let npts = Bvp.n_points bvp and nw = Array.length omegas in
      let run w =
        let y = Cvec.panel_create ~dim:npts ~width:w in
        let blocks = Array.init (nw / w) (fun k -> Array.sub omegas (k * w) w) in
        fun () -> Array.iter (fun o -> Bvp.solve bvp ~omegas:o ~forcing y) blocks
      in
      let runs = Array.map run widths in
      Array.iter (fun f -> f ()) runs;
      let best = Array.map (fun _ -> infinity) widths in
      for _ = 1 to 5 do
        Array.iteri (fun k f -> best.(k) <- Float.min best.(k) (wall_ms f)) runs
      done;
      let per x = x /. float_of_int nw in
      Table.add_row tw
        ([ name; string_of_int sys.Pwl.nstates ]
        @ List.map (fun b -> Printf.sprintf "%.4f" (per b)) (Array.to_list best)
        @ [
            Printf.sprintf "%.2fx" (best.(0) /. best.(Array.length best - 1));
            string_of_int (Psd.batch_width e ~npoints:nw);
          ]))
    [
      ( "switched_rc",
        (let b = SRC.build SRC.default in
         (b.SRC.sys, b.SRC.output)),
        128, Grid.logspace 100.0 1e6 16 );
      ( "sc_lowpass", (b.LP.sys, b.LP.output), 128,
        Grid.linspace 100.0 16_000.0 16 );
      ("ladder-8", ladder 4, 48, Grid.logspace 100.0 40_000.0 16);
      ( "sc_bandpass",
        (let b = BP.build BP.default in
         (b.BP.sys, b.BP.output)),
        96, Grid.linspace 100.0 20_000.0 16 );
      ("ladder-12", ladder 6, 48, Grid.logspace 100.0 40_000.0 16);
      ("ladder-16", ladder 8, 48, Grid.logspace 100.0 40_000.0 16);
      ("ladder-20", ladder 10, 48, Grid.logspace 100.0 40_000.0 16);
      ("ladder-30", ladder 15, 48, Grid.logspace 100.0 40_000.0 16);
      ("ladder-40", ladder 20, 48, Grid.logspace 100.0 40_000.0 16);
    ];
  Table.print tw;
  stage_split
    [
      ("sc_lowpass", (b.LP.sys, b.LP.output), 128);
      ("ladder-40", ladder 20, 48);
      ("ladder-100", ladder 50, 48);
    ];
  (* The 100 Hz - 4 kHz band of earlier records, kept so the ratio stays
     comparable; every frequency now costs the same.  The auto-width
     sweep runs against the same points one width-1 [Psd.psd] at a
     time, both serial. *)
  let serial = Pool.create ~jobs:1 () in
  let freqs = Grid.linspace 100.0 4_000.0 192 in
  let npts = Array.length freqs in
  let auto_b = Psd.batch_width eng ~npoints:npts in
  let modes =
    [|
      ( "1 (psd)",
        "kern.sweep_b1",
        fun () -> Array.map (fun f -> Psd.psd eng ~f) freqs );
      ( Printf.sprintf "%d (auto sweep)" auto_b,
        "kern.sweep_auto",
        fun () -> Psd.sweep ~pool:serial eng freqs );
    |]
  in
  (* Interleaved rounds: the container's wall clock sees multi-hundred-
     millisecond interference windows from neighbours, so measuring one
     mode's reps back-to-back lets a single window poison that mode
     alone (and with it the speedup ratio).  Each round times every
     mode once; the per-mode minimum over rounds then samples every
     mode under the same conditions. *)
  let nm = Array.length modes in
  let best = Array.make nm infinity in
  let results = Array.map (fun (_, _, run) -> run ()) modes in
  for _ = 1 to 7 do
    Array.iteri
      (fun k (_, _, run) ->
        let ms = wall_ms (fun () -> results.(k) <- run ()) in
        if ms < best.(k) then best.(k) <- ms)
      modes
  done;
  let t3 = Table.create [ "B"; "ms/pt"; "bytes/pt"; "speedup"; "parity" ] in
  let ms_pt k = best.(k) /. float_of_int npts in
  Array.iteri
    (fun k (label, timer, run) ->
      (* averaged over many sweeps: [Gc.allocated_bytes] advances in
         minor-heap-sized quanta, so a single sweep reads as 0 or 2 MB
         depending on where the young pointer happens to sit *)
      let bytes =
        let reps = 20 in
        let a0 = Gc.allocated_bytes () in
        for _ = 1 to reps do
          ignore (run ())
        done;
        (Gc.allocated_bytes () -. a0) /. float_of_int (reps * npts)
      in
      Obs.timer_record (Obs.timer timer) (ms_pt k /. 1000.0);
      Table.add_row t3
        [
          label; Printf.sprintf "%.4f" (ms_pt k); Printf.sprintf "%.0f" bytes;
          Printf.sprintf "%.2fx" (ms_pt 0 /. ms_pt k);
          (if Oracle.bits_equal results.(k) results.(0) then "bit-identical"
           else "MISMATCH");
        ])
    modes;
  Table.print t3;
  let parity = Oracle.bits_equal results.(1) results.(0) in
  let speedup = ms_pt 0 /. ms_pt 1 in
  let batch_ok = speedup >= 1.5 && parity in
  Printf.printf
    "BATCH-SMOKE: b1_ms_per_pt=%.4f auto_b=%d auto_ms_per_pt=%.4f \
     speedup=%.2fx parity=%s ok=%s\n"
    (ms_pt 0) auto_b (ms_pt 1) speedup
    (if parity then "bit" else "MISMATCH")
    (if batch_ok then "ok" else "FAIL");
  let gemm_ok = exp_gemm () in
  if sweep_b >= 48_000.0 || not batch_ok || not gemm_ok || not step_ok then
    smoke_failed := true

(* ------------------------------------------------------------------ *)
(* EXP-P1: domain pool — serial vs parallel wall time, bit parity      *)
(* ------------------------------------------------------------------ *)

let exp_par () =
  header "EXP-P1  domain pool: serial vs parallel wall time (bit parity)";
  let pjobs = max 2 (Pool.default_jobs ()) in
  let serial = Pool.create ~jobs:1 () in
  let par = Pool.create ~jobs:pjobs () in
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  let freqs = Grid.linspace 100.0 16_000.0 96 in
  let t =
    Table.create
      [ "workload"; "serial_ms"; Printf.sprintf "jobs%d_ms" pjobs; "speedup";
        "parity" ]
  in
  let all_ok = ref true in
  (* [rounds] interleaved serial/parallel pairs, each mode's minimum
     kept (BATCH-SMOKE's scheme): one neighbour's interference window
     then cannot sink one mode alone.  Rounds after the first give back
     what they add to [counters], so the record's counts are those of
     one round.  In the first round the pooled run must add to every
     counter of [same] what the serial run adds: a pooled path that
     does its work twice is then a parity failure, whatever its
     speed. *)
  let row ?(rounds = 1) ?(counters = []) ?(same = []) name run equal =
    let r1 = ref None and rn = ref None in
    let t1 = ref infinity and tn = ref infinity and ok = ref true in
    let same = List.map Obs.counter same in
    let counted pool result =
      let before = List.map Obs.value same in
      result := Some (run pool);
      List.map2 (fun c v -> Obs.value c - v) same before
    in
    for k = 1 to rounds do
      let d1 = ref [] and dn = ref [] in
      let timed () =
        t1 := Float.min !t1 (wall_ms (fun () -> d1 := counted serial r1));
        tn := Float.min !tn (wall_ms (fun () -> dn := counted par rn))
      in
      if k = 1 then timed () else uncounted counters timed;
      if not (equal (Option.get !r1) (Option.get !rn)) then ok := false;
      if k = 1 && !d1 <> !dn then begin
        ok := false;
        List.iter2
          (fun c (a, b) ->
            Printf.eprintf "%s: %s rose by %d serial, %d pooled\n" name
              (Obs.counter_name c) a b)
          same (List.combine !d1 !dn)
      end
    done;
    if not !ok then all_ok := false;
    let t1 = !t1 and tn = !tn in
    Obs.timer_record (Obs.timer ("par." ^ name ^ ".serial")) (t1 /. 1000.0);
    Obs.timer_record (Obs.timer ("par." ^ name ^ ".parallel")) (tn /. 1000.0);
    Table.add_row t
      [
        name; Printf.sprintf "%.1f" t1; Printf.sprintf "%.1f" tn;
        Printf.sprintf "%.2fx" (t1 /. tn);
        (if !ok then "bit-identical" else "MISMATCH");
      ];
    t1 /. tn
  in
  let sweep_speedup =
    row ~rounds:9
      ~counters:
        [
          "psd_points"; "bvp_solves"; "bvp_block_solves"; "ode_steps";
          "ode_block_steps"; "pool.chunks"; "pool.items"; "pool.regions";
          "pool.serial_regions"; "pool.worker_chunks";
        ]
      ~same:[ "bvp_solves"; "bvp_block_solves" ]
      "psd_sweep"
      (fun pool -> Psd.sweep ~pool eng freqs)
      Oracle.bits_equal
  in
  let bs = SRC.build SRC.default in
  let (_ : float) =
    row "monte_carlo"
      (fun pool ->
        let e =
          Mc.estimate ~seed:71L ~paths:8 ~segments_per_path:8 ~pool bs.SRC.sys
            ~output:bs.SRC.output ~freqs:(Grid.linspace 1e3 1e5 4)
        in
        Array.append e.Mc.psd [| e.Mc.variance |])
      Oracle.bits_equal
  in
  let (_ : float) =
    row "discretize"
      (fun pool ->
        Covariance.discretized_grid ~samples_per_phase:256 ~pool b.LP.sys)
      (fun g1 g2 ->
        let module Vl = Scnoise_linalg.Vanloan in
        Array.length g1.Covariance.g_disc = Array.length g2.Covariance.g_disc
        && Array.for_all2
             (fun d1 d2 ->
               Mat.max_abs_diff d1.Vl.phi d2.Vl.phi = 0.0
               && Mat.max_abs_diff d1.Vl.qd d2.Vl.qd = 0.0)
             g1.Covariance.g_disc g2.Covariance.g_disc)
  in
  Table.print t;
  let cores = Domain.recommended_domain_count () in
  Printf.printf "PAR-SMOKE: jobs=%d cores=%d sweep_speedup=%.2f parity=%s\n"
    pjobs cores sweep_speedup
    (if !all_ok then "ok" else "FAIL");
  Pool.shutdown serial;
  Pool.shutdown par;
  if not !all_ok then exit 1;
  (* On a multicore host the pooled sweep must not be slower than serial
     beyond scheduling noise; single-core hosts only check parity. *)
  if cores >= 2 && sweep_speedup < 0.5 then begin
    Printf.eprintf "parallel sweep slower than serial beyond noise (%.2fx)\n"
      sweep_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* EXP-O1: telemetry overhead (histograms, spans, GC accounting)       *)
(* ------------------------------------------------------------------ *)

let exp_obs () =
  header "EXP-O1  telemetry overhead: histogram recording and span capture";
  (* raw cost of one histogram record *)
  let h = Obs.histogram "bench.obs_probe_s" in
  let hc = Obs.histogram ~mode:Hist.Counts "bench.obs_probe_n" in
  let open Bechamel in
  let results =
    time_per_run_ns
      [
        Test.make ~name:"hist_record"
          (Staged.stage (fun () -> Obs.hist_record h 1e-4));
        Test.make ~name:"hist_record_int"
          (Staged.stage (fun () -> Obs.hist_record_int hc 3));
      ]
  in
  Printf.printf "hist record: %.1f ns (log), %.1f ns (counts)\n"
    (find_time results "hist_record")
    (find_time results "hist_record_int");
  (* end-to-end: a PSD point with telemetry fully off vs fully on.
     The always-on histogram (lu.rcond) is in both runs; the enabled run adds the gated duration
     histograms, spans and GC accounting. *)
  let b = LP.build LP.default in
  let eng = Psd.prepare ~samples_per_phase:128 b.LP.sys ~output:b.LP.output in
  let freqs = [| 100.0; 1e3; 4e3; 8e3; 16e3 |] in
  let point_ms () =
    let reps = 100 in
    Array.iter (fun f -> ignore (Psd.psd eng ~f)) freqs;
    let t0 = Clock.now () in
    for _ = 1 to reps do
      Array.iter (fun f -> ignore (Psd.psd eng ~f)) freqs
    done;
    1000.0 *. Clock.elapsed t0 /. float_of_int (reps * Array.length freqs)
  in
  (* best-of-3 per leg: a single pass is at the mercy of scheduling and
     major-GC phase, and the criterion is the systematic cost, not the
     worst observed jitter *)
  let best f = Float.min (f ()) (Float.min (f ()) (f ())) in
  let was_enabled = Obs.is_enabled () in
  Obs.disable ();
  let off = best point_ms in
  Obs.enable ();
  let on = best point_ms in
  if not was_enabled then Obs.disable ();
  let overhead = 100.0 *. ((on /. off) -. 1.0) in
  let t = Table.create [ "telemetry"; "psd_point_ms"; "overhead_%" ] in
  Table.add_row t [ "off (counters+health hists only)";
                    Printf.sprintf "%.4f" off; "-" ];
  Table.add_row t [ "on (spans, duration hists, GC)";
                    Printf.sprintf "%.4f" on;
                    Printf.sprintf "%+.1f" overhead ];
  Table.print t;
  Printf.printf "OBS-SMOKE: point_off_ms=%.4f point_on_ms=%.4f overhead=%+.1f%%\n"
    off on overhead

(* ------------------------------------------------------------------ *)
(* EXP-C2: the covariance engine on the parasitic ladder               *)
(* ------------------------------------------------------------------ *)

(* The multi-RHS substitution [Lu.solve_mat] ran before it skipped
   zero terms, kept here as the reference: every term of the row loop,
   in the same order, over the packed factors of [Lu.packed]. *)
let reference_solve_rows (f, piv) b =
  let n = Mat.rows f and w = Mat.cols b in
  let lu = Mat.data f and bd = Mat.data b in
  let x = Array.make (n * w) 0.0 in
  for i = 0 to n - 1 do
    Array.blit bd (piv.(i) * w) x (i * w) w
  done;
  for i = 1 to n - 1 do
    let irow = i * w in
    for j = 0 to i - 1 do
      let l = Array.unsafe_get lu ((i * n) + j) in
      let jrow = j * w in
      for k = 0 to w - 1 do
        Array.unsafe_set x (irow + k)
          (Array.unsafe_get x (irow + k)
          -. (l *. Array.unsafe_get x (jrow + k)))
      done
    done
  done;
  for i = n - 1 downto 0 do
    let irow = i * w in
    for j = i + 1 to n - 1 do
      let u = Array.unsafe_get lu ((i * n) + j) in
      let jrow = j * w in
      for k = 0 to w - 1 do
        Array.unsafe_set x (irow + k)
          (Array.unsafe_get x (irow + k)
          -. (u *. Array.unsafe_get x (jrow + k)))
      done
    done;
    let d = Array.unsafe_get lu ((i * n) + i) in
    for k = 0 to w - 1 do
      Array.unsafe_set x (irow + k) (Array.unsafe_get x (irow + k) /. d)
    done
  done;
  x

(* The Padé solve (V − U)⁻¹(V + U) of one Van Loan exponential: the
   reference row loop against [Lu.solve_mat] on the ladder's systems
   and on a random Van Loan-shaped one.  Returns whether every result
   is bitwise equal. *)
let solve_table () =
  let module Lu = Scnoise_linalg.Lu in
  let module Expm = Scnoise_linalg.Expm in
  let systems =
    List.map (fun (name, m) -> (name, Expm.pade13 m)) (vanloan_systems ())
  in
  let t =
    Table.create
      [ "system"; "2n"; "ref_ms"; "solve_ms"; "speedup"; "ref_madds";
        "madds"; "bits" ]
  in
  let madds_c = Obs.counter "lu_solve_madds" in
  let bits_ok = ref true in
  List.iter
    (fun (name, (p : Expm.pade)) ->
      let lu = Lu.factor p.Expm.lhs in
      let packed = Lu.packed lu in
      let n = Mat.rows p.Expm.lhs and w = Mat.cols p.Expm.rhs in
      let m0 = Obs.value madds_c in
      let x = Lu.solve_mat lu p.Expm.rhs in
      let madds = Obs.value madds_c - m0 in
      let equal =
        Oracle.bits_equal (reference_solve_rows packed p.Expm.rhs) (Mat.data x)
      in
      if not equal then bits_ok := false;
      (* interleaved rounds, per-kernel minimum (see EXP-B1) *)
      let best_ref = ref infinity and best_new = ref infinity in
      for _ = 1 to 5 do
        let r =
          wall_ms (fun () -> ignore (reference_solve_rows packed p.Expm.rhs))
        in
        let m = wall_ms (fun () -> ignore (Lu.solve_mat lu p.Expm.rhs)) in
        best_ref := Float.min !best_ref r;
        best_new := Float.min !best_new m
      done;
      Table.add_row t
        [
          name; string_of_int n;
          Printf.sprintf "%.2f" !best_ref;
          Printf.sprintf "%.2f" !best_new;
          Printf.sprintf "%.1fx" (!best_ref /. !best_new);
          string_of_int (n * (n - 1) * w);
          string_of_int madds;
          (if equal then "equal" else "MISMATCH");
        ])
    systems;
  Table.print t;
  Printf.printf
    "(Padé system of one Van Loan step tau/48 of the phase; ref_madds = \
     n(n-1)w, the row loop's count;\n the kernel skips zero factor \
     entries and the zero span of each source row)\n";
  !bits_ok

(* The fused Padé system against the composition it replaced
   ([Oracle.pade13]: identity, whole-matrix temporaries, reference GEMM
   products) on the ladder's Van Loan matrices and a random Van
   Loan-shaped one.  Returns whether every system is bitwise equal and
   prints the fused one's time and bytes against the composition's
   bytes. *)
let pade_table () =
  let module Expm = Scnoise_linalg.Expm in
  let systems = vanloan_systems () in
  let t =
    Table.create
      [ "system"; "2n"; "fused_ms"; "fused_bytes"; "composed_bytes"; "bits" ]
  in
  (* [Gc.allocated_bytes] advances at GC boundaries: average over
     reps *)
  let bytes f =
    let reps = 10 in
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Gc.allocated_bytes () -. a0) /. float_of_int reps
  in
  let bits_ok = ref true and n100 = ref (nan, nan, nan) in
  List.iter
    (fun (name, m) ->
      let e = Oracle.pade13 m and x = Expm.pade13 m in
      let equal =
        Oracle.bits_equal (Mat.data e.Expm.lhs) (Mat.data x.Expm.lhs)
        && Oracle.bits_equal (Mat.data e.Expm.rhs) (Mat.data x.Expm.rhs)
        && e.Expm.squarings = x.Expm.squarings
      in
      if not equal then bits_ok := false;
      let best = ref infinity in
      for _ = 1 to 5 do
        best := Float.min !best (wall_ms (fun () -> ignore (Expm.pade13 m)))
      done;
      let fb = bytes (fun () -> Expm.pade13 m)
      and cb = bytes (fun () -> Oracle.pade13 m) in
      if name = "ladder-100 phase 0" then n100 := (!best, fb, cb);
      Table.add_row t
        [
          name; string_of_int (Mat.rows m);
          Printf.sprintf "%.2f" !best;
          Printf.sprintf "%.0f" fb;
          Printf.sprintf "%.0f" cb;
          (if equal then "equal" else "MISMATCH");
        ])
    systems;
  Table.print t;
  Printf.printf
    "(order-13 Padé system of one Van Loan step tau/48: fused entry loops \
     and fixed product buffers,\n against the composition of whole-matrix \
     temporaries it replaced)\n";
  let ms, fb, cb = !n100 in
  Printf.printf "PADE-SMOKE: n100_fused_ms=%.2f fused_bytes=%.0f \
                 composed_bytes=%.0f bits=%s ok=%s\n"
    ms fb cb
    (if !bits_ok then "equal" else "MISMATCH")
    (if !bits_ok then "ok" else "FAIL");
  !bits_ok

(* [f] with the named histograms put back as they were before it. *)
let unrecorded names f =
  let hs = List.map (fun name -> Obs.histogram name) names in
  let before = List.map Hist.snapshot hs in
  let r = f () in
  List.iter2
    (fun (h : Hist.t) (s : Hist.snapshot) ->
      Array.iteri (fun i c -> Atomic.set h.Hist.h_counts.(i) c) s.Hist.s_counts)
    hs before;
  r

(* EXP-C7: the grid's Van Loan exponentials on their block structure.
   Every distinct operator of ladder-40, ladder-100 and sc_lowpass at
   the default density, through [Vanloan.discretize] (the Padé on the
   three n×n blocks, F12 and F22 only) and through [Oracle.vanloan]
   (the 2n composition it replaced): Phi and Qd bit for bit, each
   side's time for one pass over the operators (minimum over
   interleaved rounds) and its Padé solves' multiply-adds.  The
   counts and rcond records these runs add are taken back.  Prints
   VANLOAN-SMOKE and returns whether every operator is bitwise
   equal. *)
let vanloan_table () =
  let module Vanloan = Scnoise_linalg.Vanloan in
  let module Expm = Scnoise_linalg.Expm in
  let ladder stages =
    (LAD.build (LAD.with_parasitics (LAD.with_stages stages))).LAD.sys
  in
  let t =
    Table.create
      [ "circuit"; "n"; "ops"; "max_s"; "ms"; "oracle_ms"; "speedup";
        "solve_madds"; "oracle_madds"; "bits" ]
  in
  let madds_c = Obs.counter "lu_solve_madds" in
  let bits_ok = ref true and n100 = ref (nan, nan, 0) in
  List.iter
    (fun (name, (sys : Pwl.t)) ->
      let ops =
        Array.map
          (fun (p, h) ->
            let ph = sys.Pwl.phases.(p) in
            (ph.Pwl.a, ph.Pwl.q, h))
          (Covariance.steps sys)
      in
      let pass f = Array.iter (fun (a, q, tau) -> ignore (f ~a ~q ~tau)) ops in
      let madds f =
        let m0 = Obs.value madds_c in
        pass f;
        Obs.value madds_c - m0
      in
      let shipped = Vanloan.discretize and oracle = Oracle.vanloan in
      let quiet f =
        uncounted
          [ "expm_calls"; "lu_factorizations"; "lu_solves"; "lu_solve_madds";
            "lu_ill_conditioned" ]
          (fun () -> unrecorded [ "lu.rcond" ] f)
      in
      let equal =
        quiet @@ fun () ->
        Array.for_all
          (fun (a, q, tau) ->
            let d = shipped ~a ~q ~tau and o = oracle ~a ~q ~tau in
            Oracle.bits_equal (Mat.data d.Vanloan.phi) (Mat.data o.Vanloan.phi)
            && Oracle.bits_equal (Mat.data d.Vanloan.qd)
                 (Mat.data o.Vanloan.qd))
          ops
      in
      if not equal then bits_ok := false;
      let max_s =
        Array.fold_left
          (fun acc (a, q, tau) ->
            let stiff = Mat.norm_inf a *. tau in
            let tau =
              if stiff <= Vanloan.stiff_threshold then tau
              else tau /. ceil (stiff /. Vanloan.stiff_threshold)
            in
            max acc
              (Expm.squarings (Mat.norm_inf (Oracle.augmented ~a ~q ~tau))))
          0 ops
      in
      let ms, oracle_ms, m, om =
        quiet (fun () ->
            let m = madds shipped and om = madds oracle in
            let best = ref infinity and best_o = ref infinity in
            for _ = 1 to 5 do
              best := Float.min !best (wall_ms (fun () -> pass shipped));
              best_o := Float.min !best_o (wall_ms (fun () -> pass oracle))
            done;
            (!best, !best_o, m, om))
      in
      let n = sys.Pwl.nstates in
      if name = "ladder-100" then n100 := (ms, oracle_ms, m);
      Table.add_row t
        [
          name; string_of_int n; string_of_int (Array.length ops);
          string_of_int max_s;
          Printf.sprintf "%.2f" ms;
          Printf.sprintf "%.2f" oracle_ms;
          Printf.sprintf "%.2fx" (oracle_ms /. ms);
          string_of_int m; string_of_int om;
          (if equal then "equal" else "MISMATCH");
        ])
    (* building a circuit factors its capacitance matrix *)
    (uncounted [ "lu_factorizations" ] (fun () ->
         [ ("ladder-40", ladder 20); ("ladder-100", ladder 50);
           ("sc_lowpass", (LP.build LP.default).LP.sys) ]));
  Table.print t;
  Printf.printf
    "(every distinct grid operator at the default density: the Padé on \
     the three n×n blocks, F12 and F22 only, against Expm.expm of the \
     assembled 2n matrix;\n max_s = the largest scaling exponent; \
     *_madds = lu_solve_madds of one pass)\n";
  let ms, oracle_ms, m = !n100 in
  Printf.printf
    "VANLOAN-SMOKE: n100_ms=%.2f oracle_ms=%.2f n100_solve_madds=%d \
     bits=%s ok=%s\n"
    ms oracle_ms m
    (if !bits_ok then "equal" else "MISMATCH")
    (if !bits_ok then "ok" else "FAIL");
  !bits_ok

(* [Eig.hessenberg] (flat, row by row) against the column loop it
   replaced ([Oracle.hessenberg]) on the ladder-100 phase matrices and
   monodromy the BVP reduces: min-of-10 times and H, U bit for bit.
   Prints HESS-SMOKE on the monodromy and returns whether every
   reduction is bitwise equal. *)
let hessenberg_table (b, s) =
  let module LAD = Scnoise_circuits.Sc_ladder in
  let module Eig = Scnoise_linalg.Eig in
  let t = Table.create [ "matrix"; "n"; "flat_ms"; "ref_ms"; "bits" ] in
  let best f =
    let m = ref infinity in
    for _ = 1 to 10 do
      m := Float.min !m (wall_ms f)
    done;
    !m
  in
  let bits_ok = ref true and n100 = ref (nan, nan) in
  let cases =
    List.mapi
      (fun p (ph : Pwl.phase) -> (Printf.sprintf "ladder-100 A%d" p, ph.Pwl.a))
      (Array.to_list b.LAD.sys.Pwl.phases)
    @ [ ("ladder-100 monodromy", s.Covariance.phi_period) ]
  in
  List.iter
    (fun (name, a) ->
      let h, u = Eig.hessenberg a and h', u' = Oracle.hessenberg a in
      let equal =
        Oracle.bits_equal (Mat.data h) (Mat.data h')
        && Oracle.bits_equal (Mat.data u) (Mat.data u')
      in
      if not equal then bits_ok := false;
      let flat = best (fun () -> ignore (Eig.hessenberg a))
      and reference = best (fun () -> ignore (Oracle.hessenberg a)) in
      if name = "ladder-100 monodromy" then n100 := (flat, reference);
      Table.add_row t
        [
          name; string_of_int (Mat.rows a);
          Printf.sprintf "%.2f" flat;
          Printf.sprintf "%.2f" reference;
          (if equal then "equal" else "MISMATCH");
        ])
    cases;
  Table.print t;
  Printf.printf
    "(Householder reduction with U: flat row-major loops against the \
     column loop on float array array)\n";
  let flat, reference = !n100 in
  Printf.printf "HESS-SMOKE: n100_ms=%.2f ref_ms=%.2f bits=%s ok=%s\n" flat
    reference
    (if !bits_ok then "equal" else "MISMATCH")
    (if !bits_ok then "ok" else "FAIL");
  !bits_ok

(* [Eig.schur] on the ladder-100 phase matrices and monodromy the sweep
   steps in: min-of-5 time, the relative reconstruction residual
   ||Z T Zᵀ - A|| / ||A|| (Frobenius), ||ZᵀZ - I|| and the 2×2 block
   count; then the Schur-form sweep against the dense reference
   [Oracle.bvp_reference] over the benchmark's band (DC, 33 log points
   from 100 Hz to 40 kHz, 50 kHz).  Prints SCHUR-SMOKE and returns
   whether every residual is within 100 ulps of ||A|| and the sweep
   within 1e-9 dB of the reference. *)
let schur_table (b, s) =
  let module LAD = Scnoise_circuits.Sc_ladder in
  let module Eig = Scnoise_linalg.Eig in
  let t =
    Table.create [ "matrix"; "n"; "schur_ms"; "rel_resid"; "orth"; "2x2" ]
  in
  let worst = ref 0.0 and n100_ms = ref 0.0 in
  let cases =
    List.mapi
      (fun p (ph : Pwl.phase) -> (Printf.sprintf "ladder-100 A%d" p, ph.Pwl.a))
      (Array.to_list b.LAD.sys.Pwl.phases)
    @ [ ("ladder-100 monodromy", s.Covariance.phi_period) ]
  in
  List.iter
    (fun (name, a) ->
      let n = Mat.rows a in
      let tm, z = Eig.schur a in
      let resid =
        Mat.norm_fro (Mat.sub a (Mat.mul z (Mat.mul tm (Mat.transpose z))))
        /. Mat.norm_fro a
      in
      let orth =
        Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose z) z) (Mat.identity n))
      in
      let blocks = ref 0 in
      for i = 0 to n - 2 do
        if Mat.get tm (i + 1) i <> 0.0 then incr blocks
      done;
      worst := Float.max !worst resid;
      let ms = ref infinity in
      for _ = 1 to 5 do
        ms := Float.min !ms (wall_ms (fun () -> ignore (Eig.schur a)))
      done;
      n100_ms := !n100_ms +. !ms;
      Table.add_row t
        [
          name; string_of_int n; Printf.sprintf "%.2f" !ms;
          Printf.sprintf "%.2e" resid; Printf.sprintf "%.2e" orth;
          string_of_int !blocks;
        ])
    cases;
  Table.print t;
  let eng = Psd.of_sampled s ~output:b.LAD.output in
  let freqs =
    Array.concat
      [ [| 0.0 |]; Grid.logspace 100.0 40_000.0 33; [| 50_000.0 |] ]
  in
  let fast = Psd.sweep ~pool:(Pool.create ~jobs:1 ()) eng freqs in
  let slow =
    Bvp_fixture.reference_psd (Bvp_fixture.of_engine eng)
      ~period:b.LAD.sys.Pwl.period freqs
  in
  let oracle_db = ref 0.0 in
  Array.iteri
    (fun i _ ->
      oracle_db :=
        Float.max !oracle_db
          (abs_float (Db.of_power fast.(i) -. Db.of_power slow.(i))))
    freqs;
  let ok = !worst <= 100.0 *. epsilon_float && !oracle_db <= 1e-9 in
  Printf.printf
    "SCHUR-SMOKE: n100_reductions_ms=%.2f max_rel_resid=%.2e \
     oracle_db=%.3e ok=%s\n"
    !n100_ms !worst !oracle_db
    (if ok then "ok" else "FAIL");
  ok

(* A bound the elimination could take, kept here to measure it:
   [Oracle.lu_factor]'s row-at-a-time loop with each row update bounded
   by the pivot row's nonzero span right of the pivot, or, with
   [~segments], run over that row's nonzero runs only.  Shipped, either
   would need [Lu.solve_rows]' guard: a skipped [x -. (-0)] keeps a
   [-0] target that the loop turns into [+0].  Returns the factors; raises
   [Failure] on a zero pivot column. *)
let lu_bounded ~segments m =
  let n = Mat.rows m in
  let lu = Array.copy (Mat.data m) and seg = Array.make (2 * n) 0 in
  for k = 0 to n - 1 do
    let prow = ref k and pmax = ref (abs_float lu.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = abs_float lu.((i * n) + k) in
      if v > !pmax then begin
        pmax := v;
        prow := i
      end
    done;
    if !pmax = 0.0 then failwith "lu_bounded: singular";
    if !prow <> k then
      for j = 0 to n - 1 do
        let t = lu.((k * n) + j) in
        lu.((k * n) + j) <- lu.((!prow * n) + j);
        lu.((!prow * n) + j) <- t
      done;
    let rk = k * n and ns = ref 0 in
    let nonzero j = lu.(rk + j) <> 0.0 in
    if segments then begin
      let j = ref (k + 1) in
      while !j < n do
        if nonzero !j then begin
          seg.(2 * !ns) <- !j;
          while !j < n && nonzero !j do
            incr j
          done;
          seg.((2 * !ns) + 1) <- !j - 1;
          incr ns
        end
        else incr j
      done
    end
    else begin
      let lo = ref (k + 1) and hi = ref (n - 1) in
      while !lo < n && not (nonzero !lo) do
        incr lo
      done;
      while !hi > !lo && not (nonzero !hi) do
        decr hi
      done;
      if !lo < n then begin
        seg.(0) <- !lo;
        seg.(1) <- !hi;
        ns := 1
      end
    end;
    let pivot = lu.(rk + k) in
    for i = k + 1 to n - 1 do
      let f = lu.((i * n) + k) /. pivot in
      lu.((i * n) + k) <- f;
      if f <> 0.0 then begin
        let ri = i * n in
        for g = 0 to !ns - 1 do
          for j = seg.(2 * g) to seg.((2 * g) + 1) do
            Array.unsafe_set lu (ri + j)
              (Array.unsafe_get lu (ri + j)
              -. (f *. Array.unsafe_get lu (rk + j)))
          done
        done
      end
    done
  done;
  lu

(* EXP-C8: the preparation kernels at ladder-100 against the loops they
   replaced (the copies in [scnoise_oracle] and [reference_solve_rows]),
   min of 10 interleaved rounds each: the LU factorisations of the 14
   Padé systems (V − U at 2n) of the covariance's distinct operators,
   the three Householder reductions the BVP's Schur forms start from
   (two phases and the monodromy), the forcing rotation of the PSD
   forcing, and the 14 Padé solves.  Two more LU rows time [lu_bounded]:
   each row update bounded by the pivot row's nonzero span, or by its
   nonzero runs.  The bits column reports; test_linalg and test_kernels
   hold the bits.  The counts and rcond records these runs add are
   taken back. *)
let prep_kernel_table (b, s) =
  let module Lu = Scnoise_linalg.Lu in
  let module Eig = Scnoise_linalg.Eig in
  let module Expm = Scnoise_linalg.Expm in
  let module Vanloan = Scnoise_linalg.Vanloan in
  let module Cvec = Scnoise_linalg.Cvec in
  let sys = b.LAD.sys in
  let quiet f =
    uncounted
      [ "expm_calls"; "lu_factorizations"; "lu_solves"; "lu_solve_madds";
        "lu_ill_conditioned"; "covariance_products";
        "covariance_chain_columns"; "schur_reductions" ]
      (fun () -> unrecorded [ "lu.rcond" ] f)
  in
  quiet @@ fun () ->
  let systems =
    Array.map
      (fun (p, tau) ->
        let ph = sys.Pwl.phases.(p) in
        let stiffness = Mat.norm_inf ph.Pwl.a *. tau in
        let tau =
          if stiffness <= Vanloan.stiff_threshold then tau
          else tau /. ceil (stiffness /. Vanloan.stiff_threshold)
        in
        Expm.pade13 (Oracle.augmented ~a:ph.Pwl.a ~q:ph.Pwl.q ~tau))
      (Covariance.steps sys)
  in
  let lhs = Array.map (fun (p : Expm.pade) -> p.Expm.lhs) systems in
  let oracle_lu m =
    match Oracle.lu_factor m with
    | Ok (lu, piv, _) -> (lu, piv)
    | Error _ -> failwith "singular Padé system"
  in
  let lu_bits m =
    let f, piv = Lu.packed (Lu.factor m) and lu, piv' = oracle_lu m in
    Oracle.bits_equal (Mat.data f) lu && piv = piv'
  in
  (* the update terms of the row loop, from its factors: each row with
     a nonzero multiplier meets every entry right of the pivot *)
  let terms = ref 0 and zero_terms = ref 0 and outside = ref 0 in
  Array.iter
    (fun m ->
      let lu, _ = oracle_lu m and n = Mat.rows m in
      for k = 0 to n - 1 do
        let rows = ref 0 in
        for i = k + 1 to n - 1 do
          if lu.((i * n) + k) <> 0.0 then incr rows
        done;
        let lo = ref n and hi = ref k and zeros = ref 0 in
        for j = k + 1 to n - 1 do
          if lu.((k * n) + j) = 0.0 then incr zeros
          else begin
            if !lo = n then lo := j;
            hi := j
          end
        done;
        let span = if !lo = n then 0 else !hi - !lo + 1 in
        terms := !terms + (!rows * (n - k - 1));
        zero_terms := !zero_terms + (!rows * !zeros);
        outside := !outside + (!rows * (n - k - 1 - span))
      done)
    lhs;
  let bases = Array.map (fun (ph : Pwl.phase) -> snd (Eig.schur ph.Pwl.a)) sys.Pwl.phases in
  let forcing, _, rows = Oracle.output_trace s b.LAD.output in
  let bvp = Bvp.of_sampled s ~output:b.LAD.output ~rows in
  let k = Array.map Cvec.of_real forcing in
  let kl = Array.get k and kr i = k.(i + 1) in
  let reductions =
    Array.append (Array.map (fun (ph : Pwl.phase) -> ph.Pwl.a) sys.Pwl.phases)
      [| s.Covariance.phi_period |]
  in
  let t =
    Table.create [ "kernel"; "calls"; "oracle_ms"; "ms"; "speedup"; "bits" ]
  in
  let row name ~calls ~oracle ~shipped ~equal =
    let best_o = ref infinity and best = ref infinity in
    for _ = 1 to 10 do
      best_o := Float.min !best_o (wall_ms oracle);
      best := Float.min !best (wall_ms shipped)
    done;
    Table.add_row t
      [
        name; string_of_int calls; Printf.sprintf "%.2f" !best_o;
        Printf.sprintf "%.2f" !best;
        Printf.sprintf "%.2fx" (!best_o /. !best);
        (if equal then "equal" else "differ");
      ]
  in
  let each xs f () = Array.iter (fun x -> ignore (f x)) xs in
  let oracle_lus = each lhs Oracle.lu_factor in
  row "lu factor" ~calls:14 ~oracle:oracle_lus ~shipped:(each lhs Lu.factor)
    ~equal:(Array.for_all lu_bits lhs);
  List.iter
    (fun segments ->
      row
        (if segments then "lu, pivot-row runs" else "lu, pivot-row span")
        ~calls:14 ~oracle:oracle_lus
        ~shipped:(each lhs (lu_bounded ~segments))
        ~equal:
          (Array.for_all
             (fun m -> Oracle.bits_equal (fst (oracle_lu m)) (lu_bounded ~segments m))
             lhs))
    [ false; true ];
  row "householder" ~calls:3
    ~oracle:(each reductions Oracle.hessenberg)
    ~shipped:(each reductions Eig.hessenberg)
    ~equal:
      (Array.for_all
         (fun a ->
           let h, u = Eig.hessenberg a and h', u' = Oracle.hessenberg a in
           Oracle.bits_equal (Mat.data h) (Mat.data h')
           && Oracle.bits_equal (Mat.data u) (Mat.data u'))
         reductions);
  row "forcing" ~calls:1
    ~oracle:(fun () -> ignore (Oracle.bvp_forcing s ~bases ~kl ~kr))
    ~shipped:(fun () -> ignore (Bvp.forcing bvp ~kl ~kr))
    ~equal:
      (Array.for_all2
         (fun g w -> Oracle.bits_equal (Cvec.data g) w)
         (Bvp.forcing bvp ~kl ~kr :> Cvec.t array)
         (Oracle.bvp_forcing s ~bases ~kl ~kr));
  let factors = Array.map (fun m -> Lu.factor m) lhs in
  row "solve" ~calls:14
    ~oracle:(fun () ->
      Array.iteri
        (fun i (p : Expm.pade) ->
          ignore (reference_solve_rows (Lu.packed factors.(i)) p.Expm.rhs))
        systems)
    ~shipped:(fun () ->
      Array.iteri
        (fun i (p : Expm.pade) -> ignore (Lu.solve_mat factors.(i) p.Expm.rhs))
        systems)
    ~equal:
      (Array.for_all2
         (fun f (p : Expm.pade) ->
           Oracle.bits_equal
             (reference_solve_rows (Lu.packed f) p.Expm.rhs)
             (Mat.data (Lu.solve_mat f p.Expm.rhs)))
         factors systems);
  Table.print t;
  let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 !terms) in
  Printf.printf
    "(ladder-100, spp 48: the 14 Padé systems at 2n = 200, the \
     Householder reductions of A0, A1 and Phi(T, 0), the forcing K(t_i) c; \
     min of 10;\n of the row loop's %d elimination update terms, %.1f %% \
     meet a zero pivot-row entry and %.1f %% lie outside the pivot row's \
     nonzero span)\n"
    !terms (pct !zero_terms) (pct !outside)

let exp_cov () =
  header "EXP-C2  covariance engine: memoised Van Loan grid (ladder with parasitics)";
  let module LAD = Scnoise_circuits.Sc_ladder in
  let spp = 48 in
  let build stages = LAD.build (LAD.with_parasitics (LAD.with_stages stages)) in
  (* parity first, at a size the per-interval reference handles
     comfortably: the engine must match it to well below a nano-dB *)
  let parity_db =
    let b = build 20 in
    let freqs = Grid.logspace 100.0 40e3 9 in
    let db cov = Psd.sweep_db (Psd.of_sampled cov ~output:b.LAD.output) freqs in
    let e = db (Covariance.sample ~samples_per_phase:spp b.LAD.sys)
    and o =
      db
        (Oracle.covariance
           ~steady:(fun phi q ->
             Scnoise_linalg.Lyapunov.solve_discrete_doubling phi q)
           ~samples_per_phase:spp b.LAD.sys)
    in
    let m = ref 0.0 in
    Array.iteri (fun i x -> m := Float.max !m (abs_float (x -. o.(i)))) e;
    !m
  in
  let t =
    Table.create
      [ "states"; "ms"; "expm_calls"; "distinct_ops"; "doubling_steps";
        "solve_madds"; "dense_madds"; "sample_products"; "forcing_ms";
        "forcing_products"; "chain_cols"; "held_KiB" ]
  in
  let counts_ok = ref true and expm_at_100 = ref 0 and ops_at_100 = ref 0 in
  let madds_at_100 = ref 0 and dense_at_100 = ref 0 in
  let products_at_100 = ref 0 and forcing_rel_at_100 = ref nan in
  let forcing_at_100 = ref 0 and cols_at_100 = ref 0 in
  let ladder100 = ref None in
  let products_c = Obs.counter "covariance_products"
  and columns_c = Obs.counter "covariance_chain_columns" in
  List.iter
    (fun stages ->
      let b = build stages in
      let n = b.LAD.sys.Pwl.nstates in
      let distinct =
        Array.length
          (Covariance.discretized_grid ~samples_per_phase:spp b.LAD.sys)
            .Covariance.g_ops
      in
      let expm = Obs.counter "expm_calls"
      and dbl = Obs.counter "lyapunov.doubling_steps"
      and madds_c = Obs.counter "lu_solve_madds" in
      (* min over repeats: wall clock on a shared box is one-sided noise
         (other tenants only ever slow us down), so the minimum is the
         honest estimate of the actual cost; the counters are per run *)
      let best = ref infinity and cell = ref None in
      let expm_calls = ref 0 and steps = ref 0 and madds = ref 0 in
      let sample_products = ref 0 in
      for _ = 1 to 3 do
        let e0 = Obs.value expm and d0 = Obs.value dbl
        and m0 = Obs.value madds_c and p0 = Obs.value products_c in
        let ms =
          wall_ms (fun () ->
              cell := Some (Covariance.sample ~samples_per_phase:spp b.LAD.sys))
        in
        expm_calls := Obs.value expm - e0;
        steps := Obs.value dbl - d0;
        madds := Obs.value madds_c - m0;
        sample_products := Obs.value products_c - p0;
        if ms < !best then best := ms
      done;
      (* the forcing pass Psd.of_sampled runs, timed the same way *)
      let s = Option.get !cell in
      let forcing_best = ref infinity and forcing_products = ref 0 in
      let chain_cols = ref 0 and trace = ref None in
      for _ = 1 to 3 do
        let p0 = Obs.value products_c and c0 = Obs.value columns_c in
        let ms =
          wall_ms (fun () ->
              trace := Some (Covariance.output_trace s b.LAD.output))
        in
        forcing_products := Obs.value products_c - p0;
        chain_cols := Obs.value columns_c - c0;
        forcing_best := Float.min !forcing_best ms
      done;
      (* each exponential solves its 2n x 2n Padé system, 2n columns *)
      let dense = !expm_calls * (2 * n) * ((2 * n) - 1) * (2 * n) in
      Obs.timer_record (Obs.timer (Printf.sprintf "cov.n%d" n)) (!best /. 1000.0);
      if !expm_calls <> distinct then counts_ok := false;
      if n >= 100 then begin
        expm_at_100 := !expm_calls;
        ops_at_100 := distinct;
        madds_at_100 := !madds;
        dense_at_100 := dense;
        products_at_100 := !sample_products + !forcing_products;
        forcing_at_100 := !forcing_products;
        cols_at_100 := !chain_cols;
        ladder100 := Some (b, s);
        let tr = Option.get !trace in
        let ek, ev, er =
          Oracle.trace_errors s b.LAD.output ~forcing:tr.Covariance.forcing
            ~trace:tr.Covariance.variance.Covariance.trace
            ~rows:tr.Covariance.rows
        in
        forcing_rel_at_100 := Float.max ek (Float.max ev er)
      end;
      Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.1f" !best;
          string_of_int !expm_calls;
          string_of_int distinct;
          string_of_int !steps;
          string_of_int !madds;
          string_of_int dense;
          string_of_int !sample_products;
          Printf.sprintf "%.1f" !forcing_best;
          string_of_int !forcing_products;
          string_of_int !chain_cols;
          Printf.sprintf "%.0f"
            (float_of_int (Covariance.held_bytes s) /. 1024.);
        ])
    [ 10; 20; 50 ];
  Table.print t;
  Printf.printf
    "(one Van Loan exponential per distinct (phase, step) pair of the \
     stretched grid;\n runs of one operator fold by binary doubling; \
     solve_madds = lu_solve_madds of one sample, dense_madds = the row \
     loop's count;\n *_products = covariance_products, the n×n products \
     of the monodromy and period-noise fold (sample) and of the run-wise \
     forcing pass;\n chain_cols = covariance_chain_columns, the \
     matrix-vector columns of the forcing pass's Horner chains;\n held_KiB = the matrices a sample holds: distinct \
     operators, run maps, k0, the monodromy, Q — no K(t_i) or Phi(t_i, 0))\n";
  let solve_bits = solve_table () in
  let pade_bits = pade_table () in
  let vanloan_bits = vanloan_table () in
  let hess_bits = hessenberg_table (Option.get !ladder100) in
  let schur_ok = schur_table (Option.get !ladder100) in
  prep_kernel_table (Option.get !ladder100);
  let ok = parity_db <= 1e-9 && !counts_ok in
  Printf.printf
    "COV-SMOKE: n100_expm_calls=%d n100_distinct_ops=%d parity_db=%.3e status=%s\n"
    !expm_at_100 !ops_at_100 parity_db
    (if ok then "ok" else "FAIL");
  Printf.printf "SOLVE-SMOKE: n100_madds=%d dense_madds=%d bits=%s ok=%s\n"
    !madds_at_100 !dense_at_100
    (if solve_bits then "equal" else "MISMATCH")
    (if solve_bits then "ok" else "FAIL");
  (* the transition chain (96) and the dense unroll (192) the run-wise
     pass replaced took 288 products at n = 100 *)
  let forcing_ok = !forcing_rel_at_100 <= 1e-13 && !products_at_100 < 96 + 192 in
  Printf.printf
    "FORCING-SMOKE: n100_products=%d n100_forcing_products=%d \
     n100_chain_cols=%d max_rel=%.2e ok=%s\n"
    !products_at_100 !forcing_at_100 !cols_at_100 !forcing_rel_at_100
    (if forcing_ok then "ok" else "FAIL");
  if
    not
      (ok && solve_bits && pade_bits && vanloan_bits && forcing_ok && hess_bits
     && schur_ok)
  then exit 1

(* ------------------------------------------------------------------ *)
(* EXP-SV2: the deck memo in front of the serve tiers                  *)
(* ------------------------------------------------------------------ *)

module Sp = Scnoise_serve.Protocol
module Sx = Scnoise_serve.Exec
module Json = Scnoise_obs.Json

(* a switched RC and a damped SC integrator *)
let serve_decks =
  [
    ".param rs = 1k\n.param c = 1n\n\
     S1 vout 0 {rs} closed=0\nC1 vout 0 {c}\n\
     .clock duty period={5 * rs * c} duty=0.5\n.output vout\n\
     .psd fmin=0 fmax=16k points=33\n.end\n";
    "* damped SC integrator, 100 kHz clock\n\
     .param cs = 1p\n.param ci = 10p\n.param cd = 1p\n.param cp = 50f\n\
     .param ron = 1k\n.param T = 10u\n\
     Vin vin dc 0\n\
     S1 na vin {ron} closed=0\nS2 nb 0 {ron} closed=0\n\
     S3 na 0 {ron} closed=1\nS4 nb vg {ron} closed=1\n\
     Cs na nb {cs}\nCpa na 0 {cp}\nCpb nb 0 {cp}\n\
     Ci vg vo {ci}\nOPI1 0 vg vo ugf={2 * pi * 10meg}\n\
     S5 nd vo {ron} closed=0\nS6 nd vg {ron} closed=1\nCd nd 0 {cd}\n\
     .clock phases {T / 2} {T / 2}\n.output vo\n.end\n";
  ]

let serve_ops =
  let psd points =
    Sp.Psd
      { p_fmin = None; p_fmax = None; p_points = points; p_log = None;
        p_spp = None; p_engine = None }
  in
  [ psd None; psd (Some 9); Sp.Variance { v_spp = None } ]

let serve_frame deck op =
  Json.to_string
    (Sp.request_to_json
       { Sp.rq_id = None; rq_deck = Some deck; rq_deck_name = "<bench>";
         rq_op = op })

(* The executor's memo hits and misses so far, from its stats reply *)
let memo_counts exec =
  let stats = Sx.handle_string exec (serve_frame "" Sp.Stats) in
  let decks =
    Option.bind (Sp.reply_result stats) (fun r ->
        Option.bind (Json.member "cache" r) (Json.member "decks"))
  in
  let field name =
    match Option.bind decks (Json.member name) with
    | Some (Json.Num x) -> int_of_float x
    | _ -> failwith ("stats reply lacks cache.decks." ^ name)
  in
  (field "hits", field "misses")

(* One fresh executor primed with every (deck, op) key, then [frames]
   one at a time, timed in blocks of 20 (the clock ticks in µs): the
   median over blocks of the wall µs per request, and the memo's hits
   and misses over the timed requests. *)
let serve_stream frames =
  let exec = Sx.create () in
  List.iter
    (fun d ->
      List.iter (fun op -> ignore (Sx.handle_string exec (serve_frame d op))) serve_ops)
    serve_decks;
  let h0, m0 = memo_counts exec in
  (* both streams start from the same compacted heap *)
  Gc.compact ();
  let block = 20 in
  let us =
    Array.init (Array.length frames / block) (fun b ->
        let t0 = Clock.now () in
        for i = b * block to ((b + 1) * block) - 1 do
          let reply = Sx.handle_string exec frames.(i) in
          if not (Sp.reply_ok reply) then
            failwith ("serve bench: error reply " ^ Json.to_string reply)
        done;
        1e6 *. Clock.elapsed t0 /. float_of_int block)
  in
  Array.sort compare us;
  let h1, m1 = memo_counts exec in
  (us.(Array.length us / 2), h1 - h0, m1 - m0)

let exp_serve () =
  header "EXP-SV2  the deck memo: repeated vs never-repeated deck text";
  let keys =
    Array.of_list
      (List.concat_map (fun d -> List.map (fun op -> (d, op)) serve_ops) serve_decks)
  in
  let n = 3000 in
  let key i = keys.(i mod Array.length keys) in
  (* every frame is built before its stream runs; a fresh stream's text
     differs by one comment line, so its canonical hash, and therefore
     the result tier's answer, are those of the repeating stream *)
  let repeat = Array.init n (fun i -> let d, op = key i in serve_frame d op) in
  let fresh =
    Array.init n (fun i ->
        let d, op = key i in
        serve_frame (Printf.sprintf "* request %d\n%s" i d) op)
  in
  (* the fresh stream first: both builds then start it from the same
     process state, whatever the repeating stream costs them *)
  let fresh_us, fresh_hits, fresh_misses = serve_stream fresh in
  let repeat_us, repeat_hits, repeat_misses = serve_stream repeat in
  let t = Table.create [ "stream"; "requests"; "median_us"; "memo_hits"; "memo_misses" ] in
  List.iter
    (fun (name, us, h, m) ->
      Table.add_row t
        [ name; string_of_int n; Printf.sprintf "%.2f" us; string_of_int h;
          string_of_int m ])
    [ ("repeating text", repeat_us, repeat_hits, repeat_misses);
      ("fresh text", fresh_us, fresh_hits, fresh_misses) ];
  Table.print t;
  let ok = repeat_hits > 0 && fresh_hits = 0 in
  (* the repeating stream's hits, the fresh stream's misses *)
  Printf.printf
    "SERVE-SMOKE: repeat_us=%.2f fresh_us=%.2f memo_hits=%d memo_misses=%d ok=%s\n"
    repeat_us fresh_us repeat_hits fresh_misses
    (if ok then "ok" else "FAIL");
  if not ok then smoke_failed := true

let experiments =
  [
    ("f1", exp_f1); ("f2", exp_f2); ("f3", exp_f3); ("f4", exp_f4);
    ("f5", exp_f5); ("f6", exp_f6); ("t1", exp_t1); ("t2", exp_t2);
    ("t3", exp_t3); ("t4", exp_t4); ("t5", exp_t5); ("t6", exp_t6);
    ("t7", exp_t7); ("kern", exp_kern); ("par", exp_par); ("obs", exp_obs);
    ("cov", exp_cov); ("serve", exp_serve);
  ]

(* `--trace base.json` for several experiments writes base.f1.json,
   base.kern.json, ...; a single experiment writes the path verbatim. *)
let trace_path template name ~single =
  if single then template
  else
    let base = Filename.remove_extension template in
    let ext = Filename.extension template in
    Printf.sprintf "%s.%s%s" base name ext

(* Run one experiment with span recording on, print its counter/span
   summary next to the Bechamel numbers, and (when BENCH_METRICS_DIR is
   set) drop a machine-readable BENCH_<name>.json run record.  Returns
   the number of regressions versus `--against DIR` (0 without it). *)
let run_instrumented ~trace ~against ~single name f =
  Obs.reset ();
  Obs.enable ();
  let ms = wall_ms f in
  Obs.disable ();
  Obs.timer_record (Obs.timer "bench.wall") (ms /. 1000.0);
  let snap = Obs.snapshot () in
  Printf.printf "\n---- %s observability (%.1f ms wall) ----\n" name ms;
  Export.print_summary snap;
  (match Sys.getenv_opt "BENCH_METRICS_DIR" with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
      Export.write_file path snap;
      Printf.printf "(wrote %s)\n" path);
  (match trace with
  | None -> ()
  | Some template ->
      let path = trace_path template name ~single in
      Trace.write_file path snap;
      Printf.printf "(wrote trace %s)\n" path);
  match against with
  | None -> 0
  | Some dir -> (
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error msg ->
          Printf.printf "(no baseline for %s: %s)\n" name msg;
          0
      | s ->
          (* the baseline may be a full snapshot or a pruned
             scnoise.bench-metrics document *)
          let baseline = Bench_diff.metrics_of_json_string s in
          let report =
            Bench_diff.diff_metrics ~baseline
              ~current:(Bench_diff.of_snapshot snap) ()
          in
          Printf.printf "-- vs %s --\n" path;
          Bench_diff.print report;
          report.Bench_diff.regressions)

let () =
  (* `--jobs N` / `-j N` may appear anywhere among the experiment names
     and sets the default pool size (same precedence as the CLI flag:
     beats SCNOISE_JOBS, beats the core count).  `--trace FILE` writes a
     Chrome Trace Event timeline per experiment; `--against DIR`
     compares each experiment's metrics against DIR/BENCH_<name>.json
     and exits non-zero on regressions. *)
  let trace = ref None and against = ref None in
  let rec parse names = function
    | [] -> List.rev names
    | ("--jobs" | "-j") :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            Pool.set_default_jobs j;
            parse names rest
        | Some _ | None ->
            Printf.eprintf "invalid --jobs value %S\n" v;
            exit 2)
    | "--trace" :: v :: rest ->
        trace := Some v;
        parse names rest
    | "--against" :: v :: rest ->
        against := Some v;
        parse names rest
    | [ ("--jobs" | "-j" | "--trace" | "--against") ] ->
        Printf.eprintf "%s needs a value\n" Sys.argv.(Array.length Sys.argv - 1);
        exit 2
    | name :: rest -> parse (name :: names) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  let single = List.length requested = 1 in
  let regressions =
    List.fold_left
      (fun acc name ->
        match List.assoc_opt name experiments with
        | Some f ->
            acc + run_instrumented ~trace:!trace ~against:!against ~single name f
        | None ->
            Printf.eprintf "unknown experiment %S (have: %s)\n" name
              (String.concat ", " (List.map fst experiments));
            exit 1)
      0 requested
  in
  if regressions > 0 then begin
    Printf.eprintf "bench: %d metric regression(s) vs baseline\n" regressions;
    exit 1
  end;
  if !smoke_failed then exit 1
