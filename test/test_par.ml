(* The domain pool and the bit-for-bit parity guarantees of the
   parallelised analysis layers: sweeps, Monte-Carlo and covariance
   discretisation must produce identical bits at every job count. *)

module Pool = Scnoise_par.Pool
module Mat = Scnoise_linalg.Mat
module Lu = Scnoise_linalg.Lu
module Sanitize = Scnoise_linalg.Sanitize
module Obs = Scnoise_obs.Obs

let with_pool jobs f =
  let p = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- pool unit tests --- *)

let test_map_empty () =
  with_pool 4 (fun p ->
      Alcotest.(check (array int)) "empty input" [||] (Pool.map p (fun _ x -> x) [||]))

let test_map_single () =
  with_pool 4 (fun p ->
      Alcotest.(check (array int))
        "one item" [| 42 |]
        (Pool.map p (fun i x -> x + i) [| 42 |]))

let test_map_order_many_items () =
  (* many more items than jobs: every index must land in place *)
  let input = Array.init 1000 (fun i -> i) in
  let expect = Array.map (fun i -> (3 * i) + 1) input in
  with_pool 4 (fun p ->
      Alcotest.(check (array int))
        "1000 items / 4 jobs" expect
        (Pool.map p (fun _ x -> (3 * x) + 1) input))

let test_map_more_jobs_than_items () =
  let input = [| 10; 20; 30 |] in
  with_pool 8 (fun p ->
      Alcotest.(check (array int))
        "3 items / 8 jobs" [| 11; 21; 31 |]
        (Pool.map p (fun _ x -> x + 1) input))

let test_serial_pool_spawns_nothing () =
  with_pool 1 (fun p ->
      Alcotest.(check bool) "jobs=1 is serial" true (Pool.run_serially p);
      Alcotest.(check int) "jobs" 1 (Pool.jobs p);
      let r = Pool.map p (fun i x -> i * x) [| 5; 5; 5 |] in
      Alcotest.(check (array int)) "still maps" [| 0; 5; 10 |] r)

let test_parallel_for_disjoint_writes () =
  let n = 513 in
  let out = Array.make n 0 in
  with_pool 4 (fun p ->
      Pool.parallel_for p ~n (fun i -> out.(i) <- i * i));
  Array.iteri
    (fun i v -> if v <> i * i then Alcotest.failf "index %d: %d" i v)
    out

let test_map_reduce_fixed_order () =
  (* the reduce must visit results strictly in index order *)
  let visited = ref [] in
  let total =
    with_pool 4 (fun p ->
        Pool.map_reduce p ~n:100
          ~map:(fun i -> i)
          ~init:0
          ~merge:(fun acc i ->
            visited := i :: !visited;
            acc + i))
  in
  Alcotest.(check int) "sum" 4950 total;
  Alcotest.(check (list int)) "merge order" (List.init 100 (fun i -> i))
    (List.rev !visited)

exception Boom of int

let test_exception_crosses_join () =
  with_pool 4 (fun p ->
      (match Pool.parallel_for p ~n:500 (fun i -> if i = 57 then raise (Boom i)) with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "payload" 57 i);
      (* the pool must stay usable after a poisoned region *)
      let r = Pool.map p (fun _ x -> x * 2) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool survives" [| 2; 4; 6 |] r)

let test_exception_lowest_index_wins () =
  (* single-chunk items so both failures are observed: the re-raised one
     must deterministically be the lowest-indexed *)
  with_pool 2 (fun p ->
      match
        Pool.parallel_for p ~n:2 (fun i ->
            Domain.cpu_relax ();
            raise (Boom i))
      with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest index" 0 i)

let test_nested_region_runs_inline () =
  with_pool 4 (fun p ->
      let inner_sum = Atomic.make 0 in
      Pool.parallel_for p ~n:8 (fun _ ->
          (* a nested submission must not deadlock; it runs serially *)
          Pool.parallel_for p ~n:4 (fun j ->
              ignore (Atomic.fetch_and_add inner_sum j)));
      Alcotest.(check int) "all nested items ran" (8 * 6) (Atomic.get inner_sum))

let test_sanitizer_nonfinite_from_worker () =
  (* SCNOISE_SANITIZE must surface its named error across the join
     without wedging the pool *)
  let before = Sanitize.enabled () in
  Sanitize.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Sanitize.set_enabled before)
    (fun () ->
      with_pool 4 (fun p ->
          let bad = Mat.of_arrays [| [| 1.0; 0.0 |]; [| Float.nan; 1.0 |] |] in
          let good = Mat.identity 2 in
          (match
             Pool.parallel_for p ~n:64 (fun i ->
                 ignore (Lu.factor (if i = 13 then bad else good)))
           with
          | () -> Alcotest.fail "expected Sanitize.Nonfinite"
          | exception Sanitize.Nonfinite _ -> ());
          (* no deadlock, and the pool still accepts work *)
          Pool.parallel_for p ~n:8 (fun i -> ignore (Lu.factor good |> fun _ -> i))))

(* --- span re-homing --- *)

let test_worker_spans_rehomed () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ();
  with_pool 4 (fun p ->
      Obs.with_span "outer" (fun () ->
          Pool.parallel_for p ~n:16 (fun i ->
              Obs.with_span "item" (fun () -> ignore i))));
  Obs.disable ();
  let snap = Obs.snapshot () in
  match snap.Obs.snap_spans with
  | [ outer ] ->
      Alcotest.(check string) "root" "outer" outer.Obs.sp_name;
      (* item spans sit under the per-chunk spans re-homed below outer *)
      let count name =
        Obs.fold_span
          (fun n s -> if s.Obs.sp_name = name then n + 1 else n)
          0 outer
      in
      Alcotest.(check int) "all item spans under outer" 16 (count "item");
      Alcotest.(check bool) "chunk spans recorded" true (count "pool.chunk" > 0)
  | spans -> Alcotest.failf "expected one root span, got %d" (List.length spans)

(* --- bit-for-bit parity of the parallelised analysis layers --- *)

module Psd = Scnoise_core.Psd
module Covariance = Scnoise_core.Covariance
module Vanloan = Scnoise_linalg.Vanloan
module Mc = Scnoise_noise.Monte_carlo
module Grid = Scnoise_util.Grid
module SRC = Scnoise_circuits.Switched_rc
module INT = Scnoise_circuits.Sc_integrator

let check_bits name a b =
  Alcotest.(check int) (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i)))
      then
        Alcotest.failf "%s: index %d differs (%.17g vs %.17g)" name i x b.(i))
    a

let check_mat_bits name m1 m2 =
  if Mat.max_abs_diff m1 m2 <> 0.0 then
    Alcotest.failf "%s: matrices differ (max |delta| = %g)" name
      (Mat.max_abs_diff m1 m2)

let sweep_parity name sys output =
  let eng = Psd.prepare ~samples_per_phase:64 sys ~output in
  let freqs = Grid.linspace 0.0 2.5e5 37 in
  let serial = with_pool 1 (fun p -> Psd.sweep ~pool:p eng freqs) in
  let par = with_pool 4 (fun p -> Psd.sweep ~pool:p eng freqs) in
  check_bits (name ^ " sweep") serial par;
  let sdb = with_pool 1 (fun p -> Psd.sweep_db ~pool:p eng freqs) in
  let pdb = with_pool 4 (fun p -> Psd.sweep_db ~pool:p eng freqs) in
  check_bits (name ^ " sweep_db") sdb pdb

let test_sweep_parity_switched_rc () =
  let b = SRC.build SRC.default in
  sweep_parity "switched_rc" b.SRC.sys b.SRC.output

let test_sweep_parity_integrator () =
  let b = INT.build INT.default in
  sweep_parity "sc_integrator" b.INT.sys b.INT.output

let test_mc_parity () =
  let b = SRC.build SRC.default in
  let freqs = Grid.linspace 1e3 1e5 5 in
  let run jobs =
    with_pool jobs (fun p ->
        Mc.estimate ~seed:97L ~paths:6 ~segments_per_path:4 ~pool:p b.SRC.sys
          ~output:b.SRC.output ~freqs)
  in
  let e1 = run 1 and e4 = run 4 in
  check_bits "mc psd" e1.Mc.psd e4.Mc.psd;
  if
    not
      (Int64.equal
         (Int64.bits_of_float e1.Mc.variance)
         (Int64.bits_of_float e4.Mc.variance))
  then
    Alcotest.failf "mc variance differs (%.17g vs %.17g)" e1.Mc.variance
      e4.Mc.variance

let test_covariance_parity () =
  let b = INT.build INT.default in
  let run jobs =
    with_pool jobs (fun p ->
        Covariance.sample ~samples_per_phase:48 ~pool:p b.INT.sys)
  in
  let s1 = run 1 and s4 = run 4 in
  check_mat_bits "k0" s1.Covariance.k0 s4.Covariance.k0;
  check_mat_bits "phi_period" s1.Covariance.phi_period s4.Covariance.phi_period;
  check_mat_bits "q_period" s1.Covariance.q_period s4.Covariance.q_period;
  let ks4 = Oracle.unroll s4 in
  Array.iteri
    (fun i k -> check_mat_bits (Printf.sprintf "ks[%d]" i) k ks4.(i))
    (Oracle.unroll s1);
  (* and the raw per-interval discretisations *)
  let g1 =
    with_pool 1 (fun p ->
        Covariance.discretized_grid ~samples_per_phase:48 ~pool:p b.INT.sys)
  in
  let g4 =
    with_pool 4 (fun p ->
        Covariance.discretized_grid ~samples_per_phase:48 ~pool:p b.INT.sys)
  in
  Alcotest.(check int) "grid size" (Array.length g1.Covariance.g_disc)
    (Array.length g4.Covariance.g_disc);
  Alcotest.(check (array int)) "operator index" g1.Covariance.g_op
    g4.Covariance.g_op;
  Array.iteri
    (fun i d ->
      check_mat_bits
        (Printf.sprintf "disc[%d].phi" i)
        d.Vanloan.phi g4.Covariance.g_disc.(i).Vanloan.phi;
      check_mat_bits
        (Printf.sprintf "disc[%d].qd" i)
        d.Vanloan.qd g4.Covariance.g_disc.(i).Vanloan.qd)
    g1.Covariance.g_disc

let test_mc_nan_injection_under_jobs () =
  (* A sanitizer trip inside a worker-side Monte-Carlo path must raise
     the named error on the submitting domain, not deadlock. *)
  let before = Sanitize.enabled () in
  Sanitize.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Sanitize.set_enabled before)
    (fun () ->
      with_pool 4 (fun p ->
          let bad = Mat.of_arrays [| [| Float.nan |] |] in
          match
            Pool.map_reduce p ~n:16
              ~map:(fun i ->
                if i = 7 then ignore (Lu.factor bad);
                i)
              ~init:0 ~merge:( + )
          with
          | _ -> Alcotest.fail "expected Sanitize.Nonfinite"
          | exception Sanitize.Nonfinite _ -> ()))

let suite_parity =
  [
    ("sweep jobs=4 == jobs=1 (switched_rc)", `Quick,
     test_sweep_parity_switched_rc);
    ("sweep jobs=4 == jobs=1 (sc_integrator)", `Quick,
     test_sweep_parity_integrator);
    ("monte-carlo jobs=4 == jobs=1, same seed", `Quick, test_mc_parity);
    ("covariance sample jobs=4 == jobs=1", `Quick, test_covariance_parity);
    ("NaN injection under jobs>1 raises Nonfinite", `Quick,
     test_mc_nan_injection_under_jobs);
  ]

let suite_pool =
  [
    ("map: empty input", `Quick, test_map_empty);
    ("map: single item", `Quick, test_map_single);
    ("map: 1000 items over 4 jobs, ordered", `Quick, test_map_order_many_items);
    ("map: more jobs than items", `Quick, test_map_more_jobs_than_items);
    ("jobs=1 bypasses the pool", `Quick, test_serial_pool_spawns_nothing);
    ("parallel_for: disjoint writes", `Quick, test_parallel_for_disjoint_writes);
    ("map_reduce folds in index order", `Quick, test_map_reduce_fixed_order);
    ("exception crosses the join", `Quick, test_exception_crosses_join);
    ("lowest-index exception wins", `Quick, test_exception_lowest_index_wins);
    ("nested regions run inline", `Quick, test_nested_region_runs_inline);
    ("sanitizer Nonfinite from worker", `Quick, test_sanitizer_nonfinite_from_worker);
    ("worker spans re-homed", `Quick, test_worker_spans_rehomed);
  ]

let () =
  Alcotest.run "par" [ ("pool", suite_pool); ("parity", suite_parity) ]
