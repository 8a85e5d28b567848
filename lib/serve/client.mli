(** Blocking client for the daemon protocol (used by `scnoise bench
    serve` and the test suite). *)

type t

val connect :
  ?attempts:int -> ?retry_delay_s:float -> Server.addr -> (t, string) result
(** Retries connection refusals (the daemon may still be starting);
    defaults: 50 attempts, 50 ms apart. *)

val close : t -> unit

val rpc : t -> Scnoise_obs.Json.t -> (Scnoise_obs.Json.t, string) result
(** Send one request frame, wait for its reply frame. *)

val rpc_string : t -> string -> (string, string) result
(** Same with raw payloads (tests exercise malformed JSON). *)

val send_raw : t -> string -> unit
(** Raw bytes, bypassing framing — for protocol-abuse tests. *)

val recv : t -> (string, string) result
(** Wait for one reply frame without sending anything — pairs with
    {!send_raw} when the raw bytes already provoke a reply. *)
