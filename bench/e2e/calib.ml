(* The machine's current speed, from a fixed kernel the library never
   runs.

   On a shared virtual machine the same request takes from one to two
   times as long from one minute to the next, as neighbours load the
   physical core and its caches; the slowdown does not show as lost CPU
   time.  A dense matrix product, small enough to stay in the L1 cache
   and allocation-free so the collector never sees it, slows down with
   the library's code.  It keeps four independent sums in flight, so it
   competes for the core's execution units as compiled library code
   does: a single chain of dependent adds leaves them to the neighbour
   and under-reports the slowdown.

   The runner times the kernel before and after every chunk of requests
   and, since a neighbour's bursts are shorter than a long request, a
   sampler thread times it every [period] while one interval has run
   for longer than that.  Every time the benchmark reports is rescaled
   to [reference_s], the kernel's time when the baseline machine is
   quiet: reported times are reference milliseconds, which follow the
   code under test and not the neighbours. *)

module Clock = Scnoise_obs.Clock

let n = 32

let a = Array.init (n * n) (fun i -> float_of_int ((i * 7919) mod 97) /. 97.0)
let b = Array.init (n * n) (fun i -> float_of_int ((i * 104729) mod 89) /. 89.0)
let c = Array.make (n * n) 0.0

(* [reps] products c = a b, four columns of c at a time. *)
let kernel reps =
  for _ = 1 to reps do
    for i = 0 to n - 1 do
      for j4 = 0 to (n / 4) - 1 do
        let j = 4 * j4 in
        let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
        for k = 0 to n - 1 do
          let x = Array.unsafe_get a ((i * n) + k) and row = (k * n) + j in
          s0 := !s0 +. (x *. Array.unsafe_get b row);
          s1 := !s1 +. (x *. Array.unsafe_get b (row + 1));
          s2 := !s2 +. (x *. Array.unsafe_get b (row + 2));
          s3 := !s3 +. (x *. Array.unsafe_get b (row + 3))
        done;
        Array.unsafe_set c ((i * n) + j) !s0;
        Array.unsafe_set c ((i * n) + j + 1) !s1;
        Array.unsafe_set c ((i * n) + j + 2) !s2;
        Array.unsafe_set c ((i * n) + j + 3) !s3
      done
    done
  done

let reps = 8

(* Median time of [samples] runs of the kernel, so an interrupt during
   one run does not count. *)
let timed samples =
  let t =
    Array.init samples (fun _ ->
        let t0 = Clock.now () in
        kernel reps;
        Clock.now () -. t0)
  in
  Array.sort compare t;
  t.(samples / 2)

let measure () = timed 5

(* The kernel's time on the 2-vCPU Xeon of baseline/seed.json, quiet. *)
let reference_s = 1.4e-4

(* The factor that turns a wall time into reference seconds, from the
   kernel times measured around and during it. *)
let factor speeds =
  reference_s *. float_of_int (List.length speeds) /. List.fold_left ( +. ) 0.0 speeds

(* ---- the sampler ----

   A thread of the measuring domain: it runs only while the timed code
   yields the domain (every 50 ms at most), so its samples interleave
   with the code and never overlap it.  Each takes about 0.4 ms, which
   stays in the wall time of a long interval (under 1 %). *)

let period = 0.05

let lock = Mutex.create ()
let since = ref infinity  (* start of the armed interval *)
let taken = ref []  (* kernel times sampled during it *)

let sampler stop =
  while not (Atomic.get stop) do
    Thread.delay period;
    if Mutex.protect lock (fun () -> Clock.now () -. !since >= period) then begin
      let t = timed 3 in
      Mutex.protect lock (fun () -> if !since < infinity then taken := t :: !taken)
    end
  done

(* Run [f] with a sampler thread; it stops when [f] returns. *)
let with_sampler f =
  let stop = Atomic.make false in
  let th = Thread.create sampler stop in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th)
    f

(* Run [f] as one armed interval: its result, and the kernel times the
   sampler took while it ran. *)
let during f =
  Mutex.protect lock (fun () ->
      taken := [];
      since := Clock.now ());
  let disarm () =
    Mutex.protect lock (fun () ->
        since := infinity;
        let l = !taken in
        taken := [];
        l)
  in
  match f () with
  | v -> (v, disarm ())
  | exception e ->
      ignore (disarm ());
      raise e
