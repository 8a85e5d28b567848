(* Lock-free log-bucketed histograms.

   A histogram is a fixed array of [int Atomic.t] buckets: recording a
   value is one bucket-index computation plus one atomic fetch-and-add,
   with no allocation and no lock, so histograms can stay always-on in
   the numeric hot paths and be hammered concurrently from every domain
   of the worker pool.  The price is resolution: [Log] mode has two
   buckets per decade, so a reported quantile is the geometric midpoint
   of its bucket and can be off by up to a factor of 10^0.25 (~1.78x).
   That is exactly the granularity the bench gate needs — it flags
   order-of-magnitude drifts, not nanosecond jitter — and [Counts] mode
   (small non-negative integers, e.g. block widths) is exact.

   [Log] covers [1e-10, 1e4): seconds from well under a nanosecond up
   to hours, and equally well dimensionless ratios such as LU rcond
   estimates.  Values below the range (including 0, negatives and NaN)
   land in the underflow bucket; values at or above 1e4 in the overflow
   bucket.  Merging is per-bucket addition, so snapshots taken on
   different domains — or parsed back from two JSON artifacts — combine
   without any cross-domain coordination. *)

type mode = Log | Counts

(* --- Log layout: 2 buckets/decade over [1e-10, 1e4) --- *)

let log_lo_exp = -10.0

let log_decades = 14

let n_log = 2 * log_decades (* 28 regular buckets *)

(* --- Counts layout: exact buckets 0..counts_max-1, then overflow --- *)

let counts_max = 64

let n_buckets = function
  | Log -> n_log + 2 (* + underflow + overflow *)
  | Counts -> counts_max + 1 (* + overflow *)

let index_log v =
  (* [not (v >= min)] also routes NaN to the underflow bucket *)
  if not (v >= 1e-10) then 0
  else if v >= 1e4 then n_log + 1
  else
    let k = int_of_float (2.0 *. (Float.log10 v -. log_lo_exp)) in
    1 + max 0 (min (n_log - 1) k)

let index_counts i = if i < 0 then 0 else if i >= counts_max then counts_max else i

(* Representative value reported for bucket [i]: the geometric midpoint
   in [Log] mode, the exact integer in [Counts] mode.  Underflow and
   overflow report their range edge. *)
let representative mode i =
  match mode with
  | Counts -> float_of_int (min i counts_max)
  | Log ->
      if i = 0 then 1e-10
      else if i > n_log then 1e4
      else Float.exp (Float.log 10.0 *. (log_lo_exp +. ((float_of_int (i - 1) +. 0.5) /. 2.0)))

type t = { h_name : string; h_mode : mode; h_counts : int Atomic.t array }

let create ?(mode = Log) name =
  { h_name = name; h_mode = mode; h_counts = Array.init (n_buckets mode) (fun _ -> Atomic.make 0) }

let name h = h.h_name

let mode h = h.h_mode

let record h v =
  let i = match h.h_mode with Log -> index_log v | Counts -> index_counts (int_of_float v) in
  ignore (Atomic.fetch_and_add h.h_counts.(i) 1)

(* Allocation-free entry point for the integer-valued hot paths (no
   float argument to box on a non-flambda build). *)
let record_int h i =
  let i = match h.h_mode with Counts -> index_counts i | Log -> index_log (float_of_int i) in
  ignore (Atomic.fetch_and_add h.h_counts.(i) 1)

let clear h = Array.iter (fun c -> Atomic.set c 0) h.h_counts

(* --- immutable snapshots: quantiles, merge, (de)serialisable --- *)

type snapshot = { s_mode : mode; s_counts : int array }

let snapshot h = { s_mode = h.h_mode; s_counts = Array.map Atomic.get h.h_counts }

let empty mode = { s_mode = mode; s_counts = Array.make (n_buckets mode) 0 }

let of_counts mode counts =
  if Array.length counts <> n_buckets mode then
    invalid_arg "Hist.of_counts: bucket count mismatch";
  if Array.exists (fun c -> c < 0) counts then
    invalid_arg "Hist.of_counts: negative bucket";
  { s_mode = mode; s_counts = Array.copy counts }

let total s = Array.fold_left ( + ) 0 s.s_counts

(* The q-quantile (q in [0, 1]) as the representative value of the
   smallest bucket whose cumulative count reaches rank ceil(q * total);
   nan on an empty histogram.  q = 1 lands in the highest non-empty
   bucket, so [quantile s 1.0] doubles as the recorded maximum (to
   bucket resolution). *)
let quantile s q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Hist.quantile: q outside [0, 1]";
  let n = total s in
  if n = 0 then Float.nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let cum = ref 0 and found = ref (Array.length s.s_counts - 1) in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !cum >= rank then begin
             found := i;
             raise Exit
           end)
         s.s_counts
     with Exit -> ());
    representative s.s_mode !found
  end

let max_value s = quantile s 1.0

let min_value s =
  if total s = 0 then Float.nan
  else begin
    let found = ref 0 in
    (try
       Array.iteri
         (fun i c ->
           if c > 0 then begin
             found := i;
             raise Exit
           end)
         s.s_counts
     with Exit -> ());
    representative s.s_mode !found
  end

(* Bucket-resolution mean: sum of representative * count. *)
let mean s =
  let n = total s in
  if n = 0 then Float.nan
  else begin
    let acc = ref 0.0 in
    Array.iteri
      (fun i c ->
        if c > 0 then acc := !acc +. (float_of_int c *. representative s.s_mode i))
      s.s_counts;
    !acc /. float_of_int n
  end

(* Per-bucket addition; the domain-safe way to combine histograms
   recorded independently (per worker, per run, per JSON artifact). *)
let merge a b =
  if a.s_mode <> b.s_mode then invalid_arg "Hist.merge: mode mismatch";
  { s_mode = a.s_mode; s_counts = Array.map2 ( + ) a.s_counts b.s_counts }

(* Sparse (index, count) pairs of the non-empty buckets, ascending:
   the JSON wire format (histograms are mostly zeros). *)
let nonzero s =
  let acc = ref [] in
  for i = Array.length s.s_counts - 1 downto 0 do
    if s.s_counts.(i) <> 0 then acc := (i, s.s_counts.(i)) :: !acc
  done;
  !acc

let of_nonzero mode pairs =
  let counts = Array.make (n_buckets mode) 0 in
  List.iter
    (fun (i, c) ->
      if i < 0 || i >= Array.length counts then
        invalid_arg "Hist.of_nonzero: bucket index out of range";
      if c < 0 then invalid_arg "Hist.of_nonzero: negative bucket";
      counts.(i) <- counts.(i) + c)
    pairs;
  { s_mode = mode; s_counts = counts }

let mode_to_string = function Log -> "log" | Counts -> "counts"

let mode_of_string = function
  | "log" -> Some Log
  | "counts" -> Some Counts
  | _ -> None
