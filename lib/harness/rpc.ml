(* ndetect-rpc/1: JSON documents in length-prefixed frames. The codec is
   hand-rolled (mirroring bin/validate_trace's reader) so the harness
   stays dependency-free; exactness of the round trip is pinned by the
   qcheck properties in test/test_serve.ml. *)

let protocol = "ndetect-rpc/1"

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
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
  Buffer.contents buf

(* Floats must survive the round trip ("%.17g" is exact for doubles) and
   still parse as JSON: infinities and NaN have no JSON spelling, so they
   are clamped to null (the protocol never sends them on purpose). *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

exception Bad of string

(* Real frames nest a few levels deep. Without a bound, a frame of
   nothing but '[' recurses once per byte: a 16 MiB one grows the
   stack by gigabytes on the connection thread, which holds the
   runtime lock the whole daemon shares. *)
let max_depth = 256

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let code =
            (hex_digit s.[!pos + 1] lsl 12)
            lor (hex_digit s.[!pos + 2] lsl 8)
            lor (hex_digit s.[!pos + 3] lsl 4)
            lor hex_digit s.[!pos + 4]
          in
          (* The encoder only \u-escapes control bytes; other code
             points would need UTF-8 expansion this protocol never
             produces. *)
          if code > 0xFF then fail "unsupported \\u escape"
          else Buffer.add_char buf (Char.chr code);
          advance ();
          advance ();
          advance ();
          advance ()
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_integral =
      not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text)
    in
    if is_integral then
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some ('{' | '[') when depth >= max_depth -> fail "nesting too deep"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_string s =
  match parse s with v -> Ok v | exception Bad msg -> Error msg

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

(* Framing. *)

let max_frame = 16 * 1024 * 1024

let frame j =
  let payload = to_string j in
  Printf.sprintf "%d\n%s" (String.length payload) payload

let write_frame oc j =
  output_string oc (frame j);
  flush oc

let read_payload ic =
  match input_line ic with
  | exception End_of_file -> Error "eof"
  | line -> (
    match int_of_string_opt (String.trim line) with
    | Some len when len >= 0 && len <= max_frame -> (
      match really_input_string ic len with
      | exception End_of_file -> Error "truncated frame"
      | payload -> Ok payload)
    | Some _ -> Error "frame too large"
    | None -> Error (Printf.sprintf "bad frame length %S" line))

let read_frame ic = Result.bind (read_payload ic) of_string
