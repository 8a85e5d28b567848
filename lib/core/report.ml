module Pwl = Scnoise_circuit.Pwl
module Vec = Scnoise_linalg.Vec
module Db = Scnoise_util.Db
module Grid = Scnoise_util.Grid
module Table = Scnoise_util.Table

type source_share = { label : string; psd : float; share : float }

type t = {
  title : string;
  stable : bool;
  floquet_radius : float;
  nstates : int;
  variance_avg : float;
  variance_boundary : float;
  rms_uv : float;
  band : (float * float * float) option;
  spectrum : (float * float) array;
  contributions : source_share list;
  reference_freq : float;
}

let analyze ?(samples_per_phase = Covariance.default_samples_per_phase) ?freqs
    ?band ?reference_freq ?(title = "circuit") sys ~output =
  let radius = Pwl.floquet_radius sys in
  let stable = radius < 1.0 in
  let freqs =
    match freqs with
    | Some f -> f
    | None -> Grid.linspace 0.0 (2.0 /. sys.Pwl.period) 33
  in
  let reference_freq =
    match reference_freq with
    | Some f -> f
    | None -> freqs.(min 8 (Array.length freqs - 1))
  in
  if not stable then
    {
      title;
      stable;
      floquet_radius = radius;
      nstates = sys.Pwl.nstates;
      variance_avg = nan;
      variance_boundary = nan;
      rms_uv = nan;
      band = None;
      spectrum = [||];
      contributions = [];
      reference_freq;
    }
  else begin
    let cov = Covariance.sample ~samples_per_phase sys in
    let eng = Psd.of_sampled cov ~output in
    let spectrum =
      Array.map (fun f -> (f, Db.of_power (Psd.psd eng ~f))) freqs
    in
    let band =
      Option.map
        (fun (fmin, fmax) ->
          (fmin, fmax, Psd.integrated_noise eng ~fmin ~fmax))
        band
    in
    let parts =
      Contrib.per_source_psd ~samples_per_phase sys ~output ~f:reference_freq
    in
    let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 parts in
    let contributions =
      parts
      |> List.map (fun (label, psd) ->
             { label; psd; share = (if total > 0.0 then psd /. total else 0.0) })
      |> List.sort (fun a b -> compare b.psd a.psd)
    in
    let var = Psd.variance eng in
    {
      title;
      stable;
      floquet_radius = radius;
      nstates = sys.Pwl.nstates;
      variance_avg = var.Covariance.average;
      variance_boundary = var.Covariance.boundary;
      rms_uv = 1e6 *. sqrt var.Covariance.average;
      band;
      spectrum;
      contributions;
      reference_freq;
    }
  end

let to_string r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "noise report: %s\n" r.title;
  add "  states: %d, stable: %b (Floquet radius %.6f)\n" r.nstates r.stable
    r.floquet_radius;
  if not r.stable then
    add "  circuit has no periodic steady state; no noise figures\n"
  else begin
    add "  output variance: %.6g V^2 (avg), %.6g V^2 (boundary), %.4g uV rms\n"
      r.variance_avg r.variance_boundary r.rms_uv;
    (match r.band with
    | Some (fmin, fmax, v) ->
        add "  band noise [%.6g, %.6g] Hz: %.6g V^2 (%.4g uV rms)\n" fmin fmax
          v
          (1e6 *. sqrt v)
    | None -> ());
    add "  spectrum:\n";
    let t = Table.create [ "    f_Hz"; "psd_dB" ] in
    Array.iter
      (fun (f, db) ->
        Table.add_float_row t ~precision:5 (Printf.sprintf "    %.6g" f) [ db ])
      r.spectrum;
    Buffer.add_string buf (Table.render t);
    add "\n  contributions at %.6g Hz:\n" r.reference_freq;
    let t2 = Table.create [ "    source"; "psd_V2_per_Hz"; "share_%" ] in
    List.iter
      (fun s ->
        Table.add_float_row t2 ~precision:4 ("    " ^ s.label)
          [ s.psd; 100.0 *. s.share ])
      r.contributions;
    Buffer.add_string buf (Table.render t2);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let print r = print_string (to_string r)
