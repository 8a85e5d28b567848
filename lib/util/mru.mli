(** Small most-recently-used caches of per-domain scratch: a list of at
    most [cap] entries, most recent first. *)

val find :
  'a list ref -> cap:int -> matches:('a -> bool) -> make:(unit -> 'a) -> 'a
(** The entry of the cache that [matches] — moved to the front — or,
    when there is none, a new one from [make], put at the front while
    the least recent entry beyond [cap] is dropped. *)
