(* Schema validator for the driver's --trace JSONL export, run as part
   of `dune runtest` against a freshly emitted file so the emitter and
   this checker cannot drift apart (the same arrangement as the bench
   --json validator). Exit 0 iff every line is a well-formed JSON object
   and the stream matches the ndetect-trace/1 schema:

     line 1          {"type":"meta","schema":"ndetect-trace/1",...}
     per span        {"type":"begin","id":N,"parent":N|null,"name":S,"ts":T}
                     {"type":"end","id":N,"name":S,"ts":T,"dur":D}
     last (optional) {"type":"counters","ts":T,"values":{...}}

   with: unique begin ids, parents begun earlier, every end matching an
   open begin of the same name with dur >= 0, and no span left open at
   end of file. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad of string

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
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'u' ->
          advance ();
          advance ();
          advance ();
          advance ();
          Buffer.add_char buf '?'
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
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
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
          let v = parse_value () in
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
          let v = parse_value () in
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
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj key =
  match obj with
  | Obj members -> List.assoc_opt key members
  | _ -> None

let check cond msg = if not cond then raise (Bad msg)

let num what = function
  | Some (Num f) -> f
  | Some _ -> raise (Bad (what ^ " must be a number"))
  | None -> raise (Bad (what ^ " missing"))

let nonempty_string what = function
  | Some (Str s) when s <> "" -> s
  | Some (Str _) -> raise (Bad (what ^ " must be non-empty"))
  | Some _ -> raise (Bad (what ^ " must be a string"))
  | None -> raise (Bad (what ^ " missing"))

(* Span ids open on some domain, each with its name. Begins on worker
   domains interleave with the main domain's, so this is a set, not a
   stack. *)
let open_spans : (int, string) Hashtbl.t = Hashtbl.create 256
let begun : (int, unit) Hashtbl.t = Hashtbl.create 256

let validate_record lineno doc =
  let where what = Printf.sprintf "line %d: %s" lineno what in
  match field doc "type" with
  | Some (Str "meta") ->
    check (lineno = 1) (where "meta must be the first line");
    check
      (field doc "schema" = Some (Str "ndetect-trace/1"))
      (where "schema must be \"ndetect-trace/1\"")
  | Some (Str "begin") ->
    check (lineno > 1) (where "record before meta");
    let id = int_of_float (num (where "id") (field doc "id")) in
    let name = nonempty_string (where "name") (field doc "name") in
    let ts = num (where "ts") (field doc "ts") in
    check (ts >= 0.0) (where "ts must be >= 0");
    check (not (Hashtbl.mem begun id)) (where "duplicate span id");
    (match field doc "parent" with
    | Some Null -> ()
    | Some (Num p) ->
      check
        (Hashtbl.mem begun (int_of_float p))
        (where "parent never began")
    | Some _ -> raise (Bad (where "parent must be a number or null"))
    | None -> raise (Bad (where "parent missing")));
    (match field doc "args" with
    | None | Some (Obj _) -> ()
    | Some _ -> raise (Bad (where "args must be an object")));
    Hashtbl.replace begun id ();
    Hashtbl.replace open_spans id name
  | Some (Str "end") ->
    check (lineno > 1) (where "record before meta");
    let id = int_of_float (num (where "id") (field doc "id")) in
    let name = nonempty_string (where "name") (field doc "name") in
    ignore (num (where "ts") (field doc "ts"));
    let dur = num (where "dur") (field doc "dur") in
    check (dur >= 0.0) (where "dur must be >= 0");
    (match Hashtbl.find_opt open_spans id with
    | None -> raise (Bad (where "end without matching open begin"))
    | Some begun_name ->
      check (begun_name = name) (where "end name differs from begin");
      Hashtbl.remove open_spans id)
  | Some (Str "counters") -> (
    check (lineno > 1) (where "record before meta");
    ignore (num (where "ts") (field doc "ts"));
    match field doc "values" with
    | Some (Obj values) ->
      List.iter
        (fun (name, v) ->
          check (name <> "") (where "empty counter name");
          match v with
          | Num f ->
            (* Counters only ever count up and gauges hold sizes:
               nothing here may go negative. *)
            check (f >= 0.0) (where ("counter " ^ name ^ " negative"))
          | _ -> raise (Bad (where ("counter " ^ name ^ " not a number"))))
        values;
      (* The mmap accounting pair travels together: bytes without hits
         (or the reverse) means the emitter dropped one. *)
      let has name =
        match List.assoc_opt name values with
        | Some (Num f) -> f > 0.0
        | _ -> false
      in
      check
        (not (has "table.mmap_hits" <> has "table.mmap_bytes"))
        (where "table.mmap_hits and table.mmap_bytes must move together");
      (* Stem accounting travels together: a traced region has at least
         one member fault, and traced faults only come from traced
         regions. *)
      check
        (not (has "sim.stem_regions" <> has "sim.cpt_faults"))
        (where "sim.stem_regions and sim.cpt_faults must move together");
      (* Estimation accounting travels together: samples are only ever
         drawn from strata, and a sampled scan always draws. *)
      check
        (not (has "est.samples_drawn" <> has "est.strata"))
        (where "est.samples_drawn and est.strata must move together");
      (* Daemon accounting: every dedup join is a joined *request*, so
         joins never appear without the request counter and never
         exceed it. *)
      let num name =
        match List.assoc_opt name values with
        | Some (Num f) -> Some f
        | _ -> None
      in
      (match num "serve.dedup_joins" with
      | Some joins when joins > 0.0 -> (
        match num "serve.requests" with
        | Some requests ->
          check (joins <= requests)
            (where "serve.dedup_joins must not exceed serve.requests")
        | None ->
          raise (Bad (where "serve.dedup_joins without serve.requests")))
      | _ -> ())
    | _ -> raise (Bad (where "values missing or not an object")))
  | Some (Str other) -> raise (Bad (where ("unknown record type " ^ other)))
  | Some _ -> raise (Bad (where "type must be a string"))
  | None -> raise (Bad (where "type missing"))

let validate_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if line <> "" then validate_record !lineno (parse line)
         done
       with End_of_file -> ());
      check (!lineno >= 1) "empty trace (no meta line)";
      if Hashtbl.length open_spans > 0 then
        raise
          (Bad
             (Printf.sprintf "%d span(s) still open at end of file"
                (Hashtbl.length open_spans))))

let () =
  match Array.to_list Sys.argv with
  | [ _; path ] -> (
    match validate_file path with
    | () -> Printf.printf "validate-trace: %s ok\n" path
    | exception Bad msg ->
      Printf.eprintf "validate-trace: %s: %s\n" path msg;
      exit 1
    | exception Sys_error msg ->
      Printf.eprintf "validate-trace: %s\n" msg;
      exit 1)
  | _ ->
    prerr_endline "usage: validate_trace FILE";
    exit 2
