(* Minimal JSON tree, printer and parser — just enough for the metrics
   exporter and its round-trip tests, so the library stays free of
   external dependencies.  Numbers are floats (ints print without a
   fractional part); non-finite floats print as null, which keeps every
   emitted document standard-compliant. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- printing ---- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C formatter [Printf]'s float conversions end in, called without
   interpreting a format: the bytes are [Printf.sprintf]'s for finite
   floats *)
external format_float : string -> float -> string = "caml_format_float"

let number_string x =
  if Float.is_integer x && abs_float x < 1e15 then format_float "%.0f" x
  else format_float "%.17g" x

let rec emit buf indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
      if Float.is_nan x || x = infinity || x = neg_infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (number_string x)
  | Str s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          emit buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          escape_string buf k;
          Buffer.add_string buf ": ";
          emit buf (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf 0 v;
  Buffer.contents buf

(* ---- parsing ---- *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> fail cur (Printf.sprintf "expected %c, got %c" c got)
  | None -> fail cur (Printf.sprintf "expected %c, got end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

(* Exactly four hex digits; [int_of_string "0x.."] alone would also
   accept OCaml underscores. *)
let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
  let hex = String.sub cur.src cur.pos 4 in
  String.iter
    (function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
      | _ -> fail cur (Printf.sprintf "bad \\u escape %S" hex))
    hex;
  cur.pos <- cur.pos + 4;
  int_of_string ("0x" ^ hex)

(* UTF-8 encode a code point (already surrogate-combined). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body cur =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let code = parse_hex4 cur in
                (* Surrogate pairs combine into one supplementary code
                   point; unpaired surrogates are malformed JSON. *)
                let code =
                  if code >= 0xD800 && code <= 0xDBFF then begin
                    if
                      cur.pos + 2 > String.length cur.src
                      || cur.src.[cur.pos] <> '\\'
                      || cur.src.[cur.pos + 1] <> 'u'
                    then fail cur "unpaired high surrogate";
                    cur.pos <- cur.pos + 2;
                    let low = parse_hex4 cur in
                    if low < 0xDC00 || low > 0xDFFF then
                      fail cur "unpaired high surrogate";
                    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                  end
                  else if code >= 0xDC00 && code <= 0xDFFF then
                    fail cur "unpaired low surrogate"
                  else code
                in
                add_utf8 buf code
            | c -> fail cur (Printf.sprintf "bad escape \\%c" c));
            go ())
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek cur with
    | Some c when is_num_char c ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> Num x
  | Some _ ->
      (* e.g. "1e999": grammatical JSON whose value overflows; a metrics
         document carrying it is corrupt, so refuse rather than read
         back infinity *)
      fail cur (Printf.sprintf "number out of range %S" s)
  | None -> fail cur (Printf.sprintf "bad number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' ->
      advance cur;
      Str (parse_string_body cur)
  | Some '{' -> parse_obj cur
  | Some '[' -> parse_list cur
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

and parse_obj cur =
  expect cur '{';
  skip_ws cur;
  if peek cur = Some '}' then begin
    advance cur;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec field () =
      skip_ws cur;
      expect cur '"';
      let k = parse_string_body cur in
      skip_ws cur;
      expect cur ':';
      let v = parse_value cur in
      fields := (k, v) :: !fields;
      skip_ws cur;
      match peek cur with
      | Some ',' ->
          advance cur;
          field ()
      | Some '}' -> advance cur
      | _ -> fail cur "expected , or } in object"
    in
    field ();
    Obj (List.rev !fields)
  end

and parse_list cur =
  expect cur '[';
  skip_ws cur;
  if peek cur = Some ']' then begin
    advance cur;
    List []
  end
  else begin
    let items = ref [] in
    let rec item () =
      let v = parse_value cur in
      items := v :: !items;
      skip_ws cur;
      match peek cur with
      | Some ',' ->
          advance cur;
          item ()
      | Some ']' -> advance cur
      | _ -> fail cur "expected , or ] in array"
    in
    item ();
    List (List.rev !items)
  end

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

(* ---- accessors (used by the importer) ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_exn = function
  | Num x -> x
  | _ -> raise (Parse_error "expected number")

let to_string_exn = function
  | Str s -> s
  | _ -> raise (Parse_error "expected string")

let to_list_exn = function
  | List items -> items
  | _ -> raise (Parse_error "expected array")

let to_obj_exn = function
  | Obj fields -> fields
  | _ -> raise (Parse_error "expected object")
