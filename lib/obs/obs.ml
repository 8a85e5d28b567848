(* Process-wide instrumentation registry: named counters, accumulating
   timers and nested wall-time spans.

   The registry is domain-safe so the numeric hot paths can run inside
   the [Scnoise_par] worker pool.  Counters are [Atomic.t int]s behind a
   handle — incrementing one is a single atomic fetch-and-add, cheap
   enough to leave permanently enabled in the numeric hot paths (LU
   factorisations, ODE steps, cache probes).  Registration and timer
   accumulation take a global mutex (both are far off the hot path).
   Spans carry real cost (two clock reads plus an allocation per region)
   and therefore no-op unless [enable] has been called, so the default
   build pays one branch per instrumented region.  Span trees are kept
   in domain-local storage: each domain records its own forest, and the
   pool grafts a worker's completed roots back into the submitting
   domain's open frame via {!drain_domain_spans} / {!absorb_spans}.
   Nothing here touches the floating-point data flow: instrumented
   results are bit-identical to uninstrumented ones. *)

let obs_src = Logs.Src.create "scnoise.obs" ~doc:"instrumentation spans"

module Log = (val Logs.src_log obs_src : Logs.LOG)

(* Guards registry tables and timer cells; never held while running user
   code. *)
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* ---- counters ---- *)

type counter = { c_name : string; c_value : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_value = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let incr c = Atomic.incr c.c_value

let add c n = ignore (Atomic.fetch_and_add c.c_value n)

let value c = Atomic.get c.c_value

let counter_name c = c.c_name

(* Look a counter's current value up by name; 0 when never registered. *)
let counter_value name =
  match locked (fun () -> Hashtbl.find_opt counters name) with
  | Some c -> Atomic.get c.c_value
  | None -> 0

(* ---- histograms ---- *)

(* Latency/value distributions; see {!Hist} for the bucket scheme.
   Like counters they are always-on (recording is one atomic add), so
   numeric-health histograms — rcond estimates, pivot growth —
   accumulate even without [enable]. *)
let hists : (string, Hist.t) Hashtbl.t = Hashtbl.create 16

let histogram ?(mode = Hist.Log) name =
  locked (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h ->
          if Hist.mode h <> mode then
            invalid_arg
              (Printf.sprintf "Obs.histogram: %S already registered with a \
                               different mode" name);
          h
      | None ->
          let h = Hist.create ~mode name in
          Hashtbl.add hists name h;
          h)

let hist_record = Hist.record

let hist_record_int = Hist.record_int

(* ---- GC accounting ----

   Spans and [time]d timers capture the calling domain's
   [Gc.minor_words] / promoted-words deltas, turning bytes-per-call
   into always-available telemetry.  The deltas are inclusive (children
   counted in their parents) and include the instrumentation's own
   small bookkeeping allocations. *)

(* (minor_words, promoted_words) of the calling domain, without the
   [Gc.quick_stat] record allocation.  [Gc.minor_words] is used for the
   minor count because on OCaml 5.1 [Gc.counters] omits allocations in
   the current minor-heap chunk; promoted words only advance at minor
   collections, so [Gc.counters] is exact for those. *)
let gc_counters () =
  let _minor, promoted, _major = Gc.counters () in
  (Gc.minor_words (), promoted)

(* ---- accumulating timers ---- *)

type timer = {
  t_name : string;
  t_total : float ref;
  t_count : int ref;
  t_minor : float ref; (* minor words allocated inside [time] bodies *)
  t_promoted : float ref;
}

let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

let timer name =
  locked (fun () ->
      match Hashtbl.find_opt timers name with
      | Some t -> t
      | None ->
          let t =
            {
              t_name = name;
              t_total = ref 0.0;
              t_count = ref 0;
              t_minor = ref 0.0;
              t_promoted = ref 0.0;
            }
          in
          Hashtbl.add timers name t;
          t)

let time t f =
  let m0, p0 = gc_counters () in
  let t0 = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Clock.elapsed t0 in
      let m1, p1 = gc_counters () in
      let dm = m1 -. m0 and dp = p1 -. p0 in
      locked (fun () ->
          t.t_total := !(t.t_total) +. dt;
          t.t_minor := !(t.t_minor) +. dm;
          t.t_promoted := !(t.t_promoted) +. dp;
          Stdlib.incr t.t_count))
    f

let timer_total t = locked (fun () -> !(t.t_total))

let timer_count t = locked (fun () -> !(t.t_count))

let timer_minor_words t = locked (fun () -> !(t.t_minor))

(* Record an externally measured duration (seconds) directly. *)
let timer_record t dt =
  locked (fun () ->
      t.t_total := !(t.t_total) +. dt;
      Stdlib.incr t.t_count)

(* ---- spans ---- *)

type span = {
  sp_name : string;
  sp_start : float; (* seconds, relative to [reset] *)
  sp_duration : float; (* seconds *)
  sp_domain : int; (* [Domain.self] that recorded the span *)
  sp_minor_words : float; (* inclusive GC deltas *)
  sp_promoted_words : float;
  sp_args : (string * float) list; (* free-form labels, e.g. pool job index *)
  sp_children : span list; (* in completion order *)
}

type frame = {
  f_name : string;
  f_start : float;
  f_minor0 : float;
  f_promoted0 : float;
  f_args : (string * float) list;
  mutable f_children : span list; (* reversed *)
}

let enabled = Atomic.make false

let epoch = Atomic.make 0.0

(* Each domain owns a private span context: an open-frame stack and the
   completed roots recorded on that domain.  Worker domains start empty;
   the pool drains them after every parallel region. *)
type span_ctx = { mutable stack : frame list; mutable roots : span list }

let span_ctx_key =
  Domain.DLS.new_key (fun () -> { stack = []; roots = [] })

let ctx () = Domain.DLS.get span_ctx_key

let enable () =
  if not (Atomic.get enabled) then Atomic.set epoch (Clock.now ());
  Atomic.set enabled true

let disable () = Atomic.set enabled false

let is_enabled () = Atomic.get enabled

(* The wall time of [f] split evenly over [parts] samples of [h] (one
   per item of a blocked computation), recorded while telemetry is on;
   otherwise [f] runs without the two clock reads. *)
let timed_parts h ~parts f =
  if not (is_enabled ()) then f ()
  else begin
    let t0 = Clock.now () in
    let r = f () in
    let dt = Clock.elapsed t0 /. float_of_int parts in
    for _ = 1 to parts do
      hist_record h dt
    done;
    r
  end

let with_span ?(src = obs_src) ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let cx = ctx () in
    let m0, p0 = gc_counters () in
    let fr =
      {
        f_name = name;
        f_start = Clock.now () -. Atomic.get epoch;
        f_minor0 = m0;
        f_promoted0 = p0;
        f_args = args;
        f_children = [];
      }
    in
    cx.stack <- fr :: cx.stack;
    Fun.protect
      ~finally:(fun () ->
        let stop = Clock.now () -. Atomic.get epoch in
        match cx.stack with
        | top :: rest when top == fr ->
            cx.stack <- rest;
            let m1, p1 = gc_counters () in
            let dm = m1 -. fr.f_minor0 and dp = p1 -. fr.f_promoted0 in
            let sp =
              {
                sp_name = name;
                sp_start = fr.f_start;
                sp_duration = stop -. fr.f_start;
                sp_domain = (Domain.self () :> int);
                sp_minor_words = dm;
                sp_promoted_words = dp;
                sp_args = fr.f_args;
                sp_children = List.rev fr.f_children;
              }
            in
            (match rest with
            | parent :: _ -> parent.f_children <- sp :: parent.f_children
            | [] -> cx.roots <- sp :: cx.roots);
            let module L = (val Logs.src_log src : Logs.LOG) in
            L.debug (fun m ->
                m "span %s: %.3f ms" name (1000.0 *. sp.sp_duration))
        | _ ->
            (* unbalanced (an enclosing span escaped via exception and
               already popped us); drop the record rather than corrupt
               the tree *)
            ())
      f
  end

(* Completed root spans recorded on the calling domain, oldest first;
   clears them.  The pool calls this on each worker after a parallel
   region so worker spans can be re-homed. *)
let drain_domain_spans () =
  let cx = ctx () in
  let spans = List.rev cx.roots in
  cx.roots <- [];
  spans

(* Graft externally recorded spans into the calling domain's currently
   open frame (or, with no frame open, as additional roots).  Used by
   the pool to attach worker spans under the span enclosing the parallel
   region, preserving submission order. *)
let absorb_spans spans =
  if spans <> [] then begin
    let cx = ctx () in
    match cx.stack with
    | parent :: _ ->
        parent.f_children <- List.rev_append spans parent.f_children
    | [] -> cx.roots <- List.rev_append spans cx.roots
  end

(* ---- reset / snapshot ---- *)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
      Hashtbl.iter (fun _ h -> Hist.clear h) hists;
      Hashtbl.iter
        (fun _ t ->
          t.t_total := 0.0;
          t.t_count := 0;
          t.t_minor := 0.0;
          t.t_promoted := 0.0)
        timers);
  let cx = ctx () in
  cx.stack <- [];
  cx.roots <- [];
  Atomic.set epoch (Clock.now ())

type timer_stat = {
  tm_total : float; (* seconds *)
  tm_count : int;
  tm_minor_words : float;
  tm_promoted_words : float;
}

type snapshot = {
  snap_counters : (string * int) list; (* sorted by name *)
  snap_timers : (string * timer_stat) list; (* sorted by name *)
  snap_hists : (string * Hist.snapshot) list; (* sorted by name *)
  snap_spans : span list; (* completed root spans, in order *)
}

let snapshot () =
  let cs, ts, hs =
    locked (fun () ->
        ( Hashtbl.fold
            (fun name c acc -> (name, Atomic.get c.c_value) :: acc)
            counters []
          |> List.sort compare,
          Hashtbl.fold
            (fun name t acc ->
              ( name,
                {
                  tm_total = !(t.t_total);
                  tm_count = !(t.t_count);
                  tm_minor_words = !(t.t_minor);
                  tm_promoted_words = !(t.t_promoted);
                } )
              :: acc)
            timers []
          |> List.sort compare,
          Hashtbl.fold
            (fun name h acc -> (name, Hist.snapshot h) :: acc)
            hists []
          |> List.sort compare ))
  in
  {
    snap_counters = cs;
    snap_timers = ts;
    snap_hists = hs;
    snap_spans = List.rev (ctx ()).roots;
  }

(* Fold [f] over every span in the forest, parents before children. *)
let rec fold_span f acc sp =
  let acc = f acc sp in
  List.fold_left (fold_span f) acc sp.sp_children

let fold_spans f acc snap = List.fold_left (fold_span f) acc snap.snap_spans
