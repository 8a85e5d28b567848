(** Request execution with the two-tier content-addressed cache and a
    memo of deck texts in front of it.

    The deck memo ("decks") is keyed by (deck name, exact deck text) and
    holds the canonical hash and the text's own analysis directives.  A
    text enters it on its second successful analysis, so from its third
    request on a repeated text skips parse, elaboration, hashing and
    ERC; a text that fails is never recorded.  Tier 1
    (results) is keyed by (canonical deck hash, op, resolved
    parameters); tier 2 (prepared) retains per-circuit solver state —
    compiled system, observability vector and one prepared engine per
    samples-per-phase, which psd, variance and transfer requests share
    — so warm requests skip straight to the frequency loop.  [check]
    requests always elaborate their own text (carets) and keep a
    position-free verdict per hash in tier 1.  Decks pass the CLI's
    gate and parameters resolve as in the CLI (both through {!Front}),
    and the numeric paths call the same library entry points, making
    served results bit-identical to direct `scnoise` runs.

    Executors never raise out of {!handle}: failures become structured
    error replies with the stable codes documented in {!Protocol}. *)

type t

val default_cache_entries : int

val create : ?cache_entries:int -> unit -> t
(** [cache_entries] bounds the tier-1 result cache and the deck memo;
    the tier-2 solver cache holds a quarter of that (at least one). *)

val handle : t -> Protocol.envelope -> Scnoise_obs.Json.t
(** Execute one envelope and return the reply.  Requests run one at a
    time under a mutex (each request is internally parallel across the
    shared domain pool); batches execute their requests in order. *)

val handle_string : t -> string -> Scnoise_obs.Json.t
(** Parse a frame payload and {!handle} it; malformed payloads yield a
    [protocol] error reply. *)

val stopping : t -> bool
(** True once a [shutdown] request was served (or {!request_stop} was
    called); the server drains and exits. *)

val request_stop : t -> unit
