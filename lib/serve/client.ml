(* Blocking client for the daemon protocol — what the tests and the
   e2e `serve-mix` workload speak.  One request, one reply; no
   pipelining needed because the daemon executes requests sequentially
   anyway. *)

module Json = Scnoise_obs.Json
module P = Protocol

type t = { fd : Unix.file_descr; mutable open_ : bool }

let addr_of = function
  | Server.Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Server.Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.PF_INET, Unix.ADDR_INET (ip, port))

(* The daemon may still be binding its socket when the first client
   arrives (bench forks it, tests spawn it in a domain), so connection
   refusals retry with a short backoff. *)
let connect ?(attempts = 50) ?(retry_delay_s = 0.05) addr =
  let domain, sockaddr = addr_of addr in
  let rec go n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> Ok { fd; open_ = true }
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | ECONNRESET), _, _)
      when n > 1 ->
        Unix.close fd;
        Unix.sleepf retry_delay_s;
        go (n - 1)
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Unix.error_message e)
  in
  go (max 1 attempts)

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Raw bytes on the wire, bypassing framing — lets the tests send
   deliberately broken frames. *)
let send_raw t s = write_all t.fd s

let read_exactly fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    match Unix.read fd buf !off (n - !off) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  if !eof then Error "connection closed by daemon" else Ok (Bytes.to_string buf)

let read_reply t =
  match read_exactly t.fd P.header_len with
  | Error _ as e -> e
  | Ok header ->
      let len = P.decode_len header 0 in
      read_exactly t.fd len

let rpc_string t payload =
  match write_all t.fd (P.encode_frame payload) with
  | () -> read_reply t
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let recv t =
  match read_reply t with
  | r -> r
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let rpc t json =
  match rpc_string t (Json.to_string json) with
  | Error _ as e -> e
  | Ok s -> (
      match Json.of_string s with
      | j -> Ok j
      | exception Json.Parse_error msg ->
          Error ("malformed reply from daemon: " ^ msg))
