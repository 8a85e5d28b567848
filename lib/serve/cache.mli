(** Bounded, mutex-guarded LRU cache for the serve tiers and the deck
    memo.

    Probes, inserts and evictions are O(1) (a hash table plus a recency
    list).  Hit/miss/eviction counts feed both the [Obs] registry
    ([serve.cache.<name>.*] counters) and the daemon's [stats] reply. *)

type 'a t

type key
(** A string key with its hash, computed once. *)

val key : string -> key

val key_hash : key -> int
(** The hash {!key} computed. *)

val create : name:string -> cap:int -> 'a t
(** Raises [Invalid_argument] when [cap < 1]. *)

val find : 'a t -> key -> 'a option
(** Probe; refreshes recency on hit. *)

val put : 'a t -> key -> 'a -> unit
(** Insert (or replace), evicting the least-recently-used entry when
    the cache is full. *)

val length : 'a t -> int

val cap : 'a t -> int

val name : 'a t -> string

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val stats : 'a t -> stats
