(* Bounded LRU cache used by the serve tiers (results and prepared
   solvers) and the deck memo.

   Entries sit in a hash table and in a doubly-linked recency list,
   most recent first, so a probe, an insert and an eviction each cost
   one table operation and a few pointer moves.  A key carries its hash,
   computed once by [key]: a deck-memo key is a whole deck text, and a
   request that probes and then records one hashes it once.  A mutex
   makes the cache safe to share between the server loop and direct
   library users (tests drive {!Exec} from several domains).

   Hits/misses/evictions are mirrored into [Obs] counters
   ([serve.cache.<name>.hit] etc.) for the metrics artifacts, and kept
   as per-instance fields for the daemon's [stats] reply (the registry
   counters are process-global, so a fresh cache must not inherit the
   counts of a previous instance). *)

module Obs = Scnoise_obs.Obs

type key = { hash : int; text : string }

let key text = { hash = Hashtbl.hash text; text }

let key_hash k = k.hash

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.hash = b.hash && String.equal a.text b.text

  let hash k = k.hash
end)

type 'a node = {
  k : key;
  mutable value : 'a;
  mutable newer : 'a node option;
  mutable older : 'a node option;
}

type 'a t = {
  name : string;
  cap : int;
  mutex : Mutex.t;
  table : 'a node Tbl.t;
  mutable newest : 'a node option;
  mutable oldest : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  c_hit : Obs.counter;
  c_miss : Obs.counter;
  c_evict : Obs.counter;
}

let create ~name ~cap =
  if cap < 1 then invalid_arg "Cache.create: cap must be >= 1";
  {
    name;
    cap;
    mutex = Mutex.create ();
    table = Tbl.create (2 * cap);
    newest = None;
    oldest = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    c_hit = Obs.counter (Printf.sprintf "serve.cache.%s.hit" name);
    c_miss = Obs.counter (Printf.sprintf "serve.cache.%s.miss" name);
    c_evict = Obs.counter (Printf.sprintf "serve.cache.%s.evict" name);
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let unlink t n =
  (match n.newer with Some m -> m.older <- n.older | None -> t.newest <- n.older);
  (match n.older with Some m -> m.newer <- n.newer | None -> t.oldest <- n.newer);
  n.newer <- None;
  n.older <- None

let push_newest t n =
  n.older <- t.newest;
  (match t.newest with Some m -> m.newer <- Some n | None -> t.oldest <- Some n);
  t.newest <- Some n

let find t k =
  locked t (fun () ->
      match Tbl.find_opt t.table k with
      | Some n ->
          unlink t n;
          push_newest t n;
          t.hits <- t.hits + 1;
          Obs.incr t.c_hit;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          Obs.incr t.c_miss;
          None)

let put t k value =
  locked t (fun () ->
      match Tbl.find_opt t.table k with
      | Some n ->
          n.value <- value;
          unlink t n;
          push_newest t n
      | None -> (
          let n = { k; value; newer = None; older = None } in
          Tbl.add t.table k n;
          push_newest t n;
          (* the new entry is the newest, so a full cache drops another *)
          if Tbl.length t.table > t.cap then
            match t.oldest with
            | Some old ->
                unlink t old;
                Tbl.remove t.table old.k;
                t.evictions <- t.evictions + 1;
                Obs.incr t.c_evict
            | None -> ()))

let length t = locked t (fun () -> Tbl.length t.table)

let cap t = t.cap

let name t = t.name

type stats = { hits : int; misses : int; evictions : int; entries : int; capacity : int }

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Tbl.length t.table;
        capacity = t.cap;
      })
