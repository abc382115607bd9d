(* Tests for the request/response core (Api), the ndetect-rpc/1 codec
   and the in-process analysis daemon (Serve). The daemon tests drive a
   real Unix-domain socket but stay in-process via Serve.start/stop —
   never Supervise.request_termination, whose flag is sticky and would
   poison every later supervised test in this binary. *)

module Api = Ndetect_harness.Api
module Rpc = Ndetect_harness.Rpc
module Parallel = Ndetect_util.Parallel
module Serve = Ndetect_harness.Serve
module Driver = Ndetect_harness.Driver
module Supervise = Ndetect_util.Supervise
module Telemetry = Ndetect_util.Telemetry

(* rpc codec: qcheck round trips *)

let json_gen =
  let open QCheck.Gen in
  let any_byte_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 24) in
  let finite_float =
    map
      (fun (f, integral) -> if integral then Float.round f else f)
      (pair (float_range (-1e9) 1e9) bool)
  in
  let scalar =
    oneof
      [
        return Rpc.Null;
        map (fun b -> Rpc.Bool b) bool;
        map (fun n -> Rpc.Int n)
          (frequency
             [ (4, small_signed_int); (1, oneofl [ min_int; max_int; 0 ]) ]);
        map (fun f -> Rpc.Float f) finite_float;
        map (fun s -> Rpc.Str s) any_byte_string;
      ]
  in
  let rec doc depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map (fun l -> Rpc.List l) (list_size (int_bound 4) (doc (depth - 1)))
          );
          ( 1,
            map
              (fun kvs -> Rpc.Obj kvs)
              (list_size (int_bound 4)
                 (pair any_byte_string (doc (depth - 1)))) );
        ]
  in
  doc 3

let json_arbitrary = QCheck.make ~print:Rpc.to_string json_gen

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"rpc json round trip" json_arbitrary
    (fun j -> Rpc.of_string (Rpc.to_string j) = Ok j)

let prop_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"rpc string escaping round trip"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 64)))
    (fun s -> Rpc.of_string ("\"" ^ Rpc.escape s ^ "\"") = Ok (Rpc.Str s))

(* Frames written back to back must read back as the same sequence of
   documents, regardless of payload contents (embedded newlines in
   escaped strings must never split a frame), then hit a clean EOF
   error. *)
let prop_framing_roundtrip =
  QCheck.Test.make ~count:100 ~name:"rpc framing round trip"
    (QCheck.make
       ~print:(fun docs -> String.concat " | " (List.map Rpc.to_string docs))
       QCheck.Gen.(list_size (int_range 1 5) json_gen))
    (fun docs ->
      let path = Filename.temp_file "ndetect-rpc" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          List.iter (fun d -> output_string oc (Rpc.frame d)) docs;
          close_out oc;
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let read_back =
                List.map (fun _ -> Rpc.read_frame ic) docs
              in
              read_back = List.map (fun d -> Ok d) docs
              && Result.is_error (Rpc.read_frame ic))))

let test_rpc_rejects_oversized_frame () =
  let path = Filename.temp_file "ndetect-rpc" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Printf.fprintf oc "%d\n" (Rpc.max_frame + 1);
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "oversized frame rejected" true
            (Result.is_error (Rpc.read_frame ic))))

(* Nesting is bounded, so a frame of nothing but '[' is rejected at
   once instead of recursing (and growing the stack) once per byte. *)
let test_rpc_rejects_deep_nesting () =
  let arrays depth = String.make depth '[' ^ String.make depth ']' in
  let objects depth =
    String.concat "" (List.init depth (fun _ -> "{\"a\":"))
    ^ "0" ^ String.make depth '}'
  in
  let rejected doc =
    match Rpc.of_string doc with
    | Ok _ -> false
    | Error m -> Helpers.contains_substring m "nesting too deep at byte"
  in
  Alcotest.(check bool) "arrays max_depth deep accepted" true
    (Result.is_ok (Rpc.of_string (arrays Rpc.max_depth)));
  Alcotest.(check bool) "objects max_depth deep accepted" true
    (Result.is_ok (Rpc.of_string (objects Rpc.max_depth)));
  Alcotest.(check bool) "one array deeper rejected" true
    (rejected (arrays (Rpc.max_depth + 1)));
  Alcotest.(check bool) "one object deeper rejected" true
    (rejected (objects (Rpc.max_depth + 1)));
  let frame = String.make (4 * 1024 * 1024) '[' in
  let t0 = Unix.gettimeofday () in
  let frame_rejected = rejected frame in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "4 MiB of '[' rejected" true frame_rejected;
  if elapsed >= 0.1 then
    Alcotest.failf "4 MiB of '[' took %.3f s to reject" elapsed

(* request encoding *)

let full_request =
  Api.Request.make
    ~sections:[ Api.Request.Worst; Api.Request.Average; Api.Request.Average_def2 ]
    ~k:7 ~k2:3 ~nmax:4 ~seed:9 ~domains:2 ~cache_dir:"/tmp/tables" ~deadline:2.5 ~label:"lion"
    (Api.Request.Suite "lion")

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Api.Request.of_json (Api.Request.to_json req) with
      | Error m -> Alcotest.fail ("round trip: " ^ m)
      | Ok back ->
        Alcotest.(check bool)
          ("request round trips: " ^ req.Api.Request.label)
          true (back = req))
    [
      full_request;
      Api.Request.make ~label:"defaults" (Api.Request.Suite "mc");
      Api.Request.make ~label:"inline"
        (Api.Request.Inline_bench "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n");
      Api.Request.make ~label:"file" (Api.Request.File "x.bench");
      Api.Request.make ~label:"sampled"
        ~universe:
          (Api.Request.Sampled
             { Api.Estimate.Spec.samples = 500; strata = 8; confidence = 0.9 })
        (Api.Request.Suite "mc");
    ]

(* The universe field round-trips for every validly constructible spec,
   not just hand-picked ones (the daemon's dedup fingerprint is the
   encoded request, so any encode/decode asymmetry would split or
   alias cache entries). *)
let prop_universe_roundtrip =
  QCheck.Test.make ~count:200 ~name:"request universe JSON round trip"
    (QCheck.make
       ~print:(fun (samples, strata, conf_mil) ->
         Printf.sprintf "samples=%d strata=%d confidence=%d/1000" samples
           strata conf_mil)
       QCheck.Gen.(
         triple (int_range 1 5000) (int_range 1 64) (int_range 1 999)))
    (fun (samples, strata, conf_mil) ->
      let universe =
        match
          Api.Estimate.Spec.make ~strata
            ~confidence:(float_of_int conf_mil /. 1000.0)
            ~samples ()
        with
        | Ok spec -> Api.Request.Sampled spec
        | Error _ -> Api.Request.Exhaustive
      in
      let req =
        Api.Request.make ~label:"prop" ~universe (Api.Request.Suite "mc")
      in
      match Api.Request.of_json (Api.Request.to_json req) with
      | Ok back -> back = req
      | Error _ -> false)

let test_request_of_json_errors () =
  Alcotest.(check bool) "non-object rejected" true
    (Result.is_error (Api.Request.of_json (Rpc.Str "nope")));
  Alcotest.(check bool) "bad section rejected" true
    (Result.is_error
       (Api.Request.of_json
          (Rpc.Obj
             [
               ("label", Rpc.Str "x");
               ("source", Rpc.Obj [ ("suite", Rpc.Str "lion") ]);
               ("sections", Rpc.List [ Rpc.Str "table9" ]);
             ])));
  let with_universe u =
    Api.Request.of_json
      (Rpc.Obj
         [
           ("label", Rpc.Str "x");
           ( "source",
             Rpc.Obj
               [ ("kind", Rpc.Str "suite"); ("value", Rpc.Str "lion") ] );
           ("universe", u);
         ])
  in
  (* The error cases below must fail on the universe field, not on an
     accidentally malformed envelope. *)
  (match with_universe Rpc.Null with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "envelope itself rejected: %s" m);
  let universe_error u =
    match with_universe u with
    | Ok _ -> false
    | Error m -> Helpers.contains_substring m "universe"
  in
  Alcotest.(check bool) "invalid sampled universe rejected" true
    (universe_error
       (Rpc.Obj
          [
            ("samples", Rpc.Int 0); ("strata", Rpc.Int 4);
            ("confidence", Rpc.Float 0.95);
          ]));
  Alcotest.(check bool) "confidence 1.0 rejected" true
    (universe_error
       (Rpc.Obj
          [
            ("samples", Rpc.Int 100); ("strata", Rpc.Int 4);
            ("confidence", Rpc.Float 1.0);
          ]));
  (* Old encoders omit the field entirely; both spellings of "not
     sampled" must decode to Exhaustive. *)
  (match with_universe Rpc.Null with
  | Ok req ->
    Alcotest.(check bool) "null universe is exhaustive" true
      (req.Api.Request.universe = Api.Request.Exhaustive)
  | Error m -> Alcotest.fail m)

(* Requests from clients older than the one-kernel runtime may carry
   "kernel_backend" and "sim_strategy". Absent, null, or naming what
   always runs ("c", "stem") decodes to the same request; anything
   else is a structured error naming the field, never an exception. *)
let test_request_retired_fields () =
  let base = Api.Request.make ~label:"x" (Api.Request.Suite "lion") in
  let with_field name v =
    match Api.Request.to_json base with
    | Rpc.Obj fields -> Rpc.Obj (fields @ [ (name, v) ])
    | _ -> Alcotest.fail "request encodes to an object"
  in
  let decode doc =
    try Api.Request.of_json doc
    with exn -> Alcotest.failf "of_json raised %s" (Printexc.to_string exn)
  in
  List.iter
    (fun (name, v) ->
      match decode (with_field name v) with
      | Ok req ->
        Alcotest.(check bool)
          (Printf.sprintf "%s=%s decodes to the plain request" name
             (Rpc.to_string v))
          true (req = base)
      | Error m -> Alcotest.failf "%s=%s rejected: %s" name (Rpc.to_string v) m)
    [
      ("kernel_backend", Rpc.Null);
      ("kernel_backend", Rpc.Str "c");
      ("sim_strategy", Rpc.Null);
      ("sim_strategy", Rpc.Str "stem");
    ];
  (match decode (Api.Request.to_json base) with
  | Ok req -> Alcotest.(check bool) "absent fields" true (req = base)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun (name, v) ->
      match decode (with_field name v) with
      | Ok _ ->
        Alcotest.failf "%s=%s accepted" name (Rpc.to_string v)
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s=%s error names the field" name
             (Rpc.to_string v))
          true
          (Helpers.contains_substring m name))
    [
      ("kernel_backend", Rpc.Str "swar");
      ("kernel_backend", Rpc.Str "stem");
      ("kernel_backend", Rpc.Int 42);
      ("sim_strategy", Rpc.Str "cone");
      ("sim_strategy", Rpc.Str "c");
      ("sim_strategy", Rpc.Int 42);
    ]

let test_section_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("section name round trips: " ^ Api.Request.section_name s)
        true
        (Api.Request.section_of_name (Api.Request.section_name s) = Some s))
    [ Api.Request.Worst; Api.Request.Average; Api.Request.Average_def2 ];
  Alcotest.(check bool) "unknown section name" true
    (Api.Request.section_of_name "table9" = None)

(* Byte-mutation fuzz: valid request and response frames, truncated,
   overwritten and bit-flipped, must decode to Ok or Error through
   every decoder a daemon or client runs on untrusted bytes — never an
   exception. *)
let seed_frames =
  let request req =
    Rpc.Obj
      [ ("type", Rpc.Str "request"); ("request", Api.Request.to_json req) ]
  in
  List.map Rpc.frame
    [
      request full_request;
      request (Api.Request.make ~label:"defaults" (Api.Request.Suite "mc"));
      request
        (Api.Request.make ~label:"inline"
           (Api.Request.Inline_bench "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"));
      request
        (Api.Request.make ~label:"sampled"
           ~universe:
             (Api.Request.Sampled
                { Api.Estimate.Spec.samples = 500; strata = 8; confidence = 0.9 })
           (Api.Request.Suite "mc"));
      Rpc.Obj [ ("type", Rpc.Str "stats") ];
      Rpc.Obj
        [
          ("type", Rpc.Str "hello"); ("protocol", Rpc.Str Rpc.protocol);
          ("server", Rpc.Str "ndetect serve");
        ];
      Rpc.Obj
        [
          ("type", Rpc.Str "trace");
          ("line", Rpc.Str "{\"type\":\"begin\",\"name\":\"table.build\"}");
        ];
      Rpc.Obj
        [
          ("type", Rpc.Str "failure"); ("label", Rpc.Str "lion");
          ("reason", Rpc.Str "timed out after 0.4s");
          ("spans", Rpc.List [ Rpc.Str "table.sim"; Rpc.Str "analyze" ]);
        ];
      Rpc.Obj
        [
          ("type", Rpc.Str "done");
          ("render", Rpc.Str "Table 2\n  lion\t100.00  -1.5e-3\n");
          ("failures", Rpc.Int 0);
          ( "counters",
            Rpc.Obj [ ("table.builds", Rpc.Int 1); ("serve.requests", Rpc.Int 7) ]
          );
        ];
      Rpc.Obj [ ("type", Rpc.Str "overloaded"); ("queue", Rpc.Int 16) ];
      Rpc.Obj [ ("type", Rpc.Str "error"); ("message", Rpc.Str "bad \"x\"") ];
    ]

type mutation = Truncate of int | Overwrite of int * char | Flip of int * int

let apply_mutation frame = function
  | Truncate at -> String.sub frame 0 (at mod (String.length frame + 1))
  | Overwrite (at, c) when frame <> "" ->
    String.mapi (fun i d -> if i = at mod String.length frame then c else d) frame
  | Flip (at, bit) when frame <> "" ->
    String.mapi
      (fun i d ->
        if i = at mod String.length frame then
          Char.chr (Char.code d lxor (1 lsl bit))
        else d)
      frame
  | Overwrite _ | Flip _ -> frame

let mutated_frame_gen =
  let open QCheck.Gen in
  let mutation =
    frequency
      [
        (1, map (fun at -> Truncate at) nat);
        (2, map2 (fun at c -> Overwrite (at, c)) nat char);
        (3, map2 (fun at bit -> Flip (at, bit)) nat (int_bound 7));
      ]
  in
  map2
    (fun frame mutations -> List.fold_left apply_mutation frame mutations)
    (oneofl seed_frames)
    (list_size (int_range 1 4) mutation)

(* A frame through the channel reader, as the daemon and the client
   read it. The frames are small, so one pipe buffer holds each. *)
let read_frame_of_string bytes =
  let r, w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      Fun.protect
        ~finally:(fun () -> Unix.close w)
        (fun () ->
          ignore (Unix.write_substring w bytes 0 (String.length bytes)));
      Rpc.read_frame ic)

(* The property holds unless a decoder raises (qcheck reports the
   exception with the offending bytes). *)
let prop_mutated_frames_decode =
  QCheck.Test.make ~count:400 ~name:"rpc decoders survive byte mutation"
    (QCheck.make ~print:(Printf.sprintf "%S") mutated_frame_gen)
    (fun bytes ->
      ignore (read_frame_of_string bytes : (Rpc.json, string) result);
      let payload =
        match String.index_opt bytes '\n' with
        | Some i -> String.sub bytes (i + 1) (String.length bytes - i - 1)
        | None -> bytes
      in
      (match Rpc.of_string payload with
      | Ok doc ->
        let request = Option.value ~default:doc (Rpc.member "request" doc) in
        ignore (Api.Request.of_json request : (Api.Request.t, string) result)
      | Error _ -> ());
      true)

(* options -> request lowering *)

let test_options_to_request () =
  let options =
    {
      Driver.default_options with
      k = 11;
      k2 = 5;
      seed = 3;
      timeout_per_circuit = Some 1.5;
      table_cache = Some "tc";
    }
  in
  let lower ?(options = options) only =
    Driver.Options.to_request { options with only }
      ~source:(Api.Request.Suite "lion") ~label:"lion"
  in
  (match lower "table2" with
  | Error m -> Alcotest.fail m
  | Ok req ->
    Alcotest.(check bool) "table2 is worst" true
      (req.Api.Request.sections = [ Api.Request.Worst ]);
    Alcotest.(check int) "k carried" 11 req.Api.Request.k;
    Alcotest.(check int) "k2 carried" 5 req.Api.Request.k2;
    Alcotest.(check int) "seed carried" 3 req.Api.Request.seed;
    Alcotest.(check bool) "deadline carried" true
      (req.Api.Request.deadline = Some 1.5);
    Alcotest.(check (option string)) "cache carried" (Some "tc")
      req.Api.Request.cache_dir);
  (match lower "table5" with
  | Ok req ->
    Alcotest.(check bool) "table5 is average" true
      (req.Api.Request.sections = [ Api.Request.Average ])
  | Error m -> Alcotest.fail m);
  (match lower "table6" with
  | Ok req ->
    Alcotest.(check bool) "table6 is def2" true
      (req.Api.Request.sections = [ Api.Request.Average_def2 ])
  | Error m -> Alcotest.fail m);
  (match lower "all" with
  | Ok req ->
    Alcotest.(check bool) "all three sections" true
      (req.Api.Request.sections
      = [ Api.Request.Worst; Api.Request.Average; Api.Request.Average_def2 ])
  | Error m -> Alcotest.fail m);
  List.iter
    (fun only ->
      Alcotest.(check bool)
        (only ^ " has no request form")
        true
        (Result.is_error (lower only)))
    [ "table1"; "table4"; "figure2" ];
  (match lower "all" with
  | Ok req ->
    Alcotest.(check bool) "the tables lower to an exhaustive universe" true
      (req.Api.Request.universe = Api.Request.Exhaustive)
  | Error m -> Alcotest.fail m);
  (* The lowering ends in [Api.Request.validate]. *)
  Alcotest.(check bool) "out-of-bounds k rejected" true
    (lower ~options:{ options with k = 0 } "table5"
    = Error "request field \"k\" must be >= 1")

(* [Api.Request.validate] is the one owner of the request bounds: each
   one rejects its field, and the daemon's decoder ends in it, so a
   request the CLI rejects is rejected by the daemon with the same
   message. *)
let test_request_validate () =
  let base = Api.Request.make ~label:"lion" (Api.Request.Suite "lion") in
  let sampled samples strata confidence =
    Api.Request.Sampled { Api.Estimate.Spec.samples; strata; confidence }
  in
  (match Api.Request.validate base with
  | Ok req -> Alcotest.(check bool) "valid request unchanged" true (req = base)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun (field, req) ->
      match Api.Request.validate req with
      | Ok _ -> Alcotest.failf "%s: out-of-bounds request accepted" field
      | Error m ->
        Alcotest.(check bool)
          (field ^ " error names the field")
          true
          (Helpers.contains_substring m
             (Printf.sprintf "request field %S" field));
        Alcotest.(check bool)
          (field ^ ": of_json (to_json r) = validate r")
          true
          (Api.Request.of_json (Api.Request.to_json req) = Error m))
    [
      ("k", { base with k = 0 });
      ("k", { base with k = -3 });
      ("k2", { base with k2 = 0 });
      ("nmax", { base with nmax = 0 });
      ("domains", { base with domains = Some 0 });
      ("domains", { base with domains = Some (Parallel.max_domains + 1) });
      ("domains", { base with domains = Some 1000 });
      ("deadline", { base with deadline = Some 0.0 });
      ("deadline", { base with deadline = Some (-1.5) });
      ("universe", { base with universe = sampled 0 1 0.95 });
      ("universe", { base with universe = sampled 3 8 0.95 });
      ("universe", { base with universe = sampled 10 2 1.0 });
    ];
  (* The smallest in-bounds values pass both. *)
  let edge =
    {
      base with
      k = 1;
      k2 = 1;
      nmax = 1;
      domains = Some 1;
      deadline = Some 0.001;
      universe = sampled 1 1 0.5;
    }
  in
  Alcotest.(check bool) "edge values validate" true
    (Api.Request.validate edge = Ok edge);
  Alcotest.(check bool) "edge values decode" true
    (Api.Request.of_json (Api.Request.to_json edge) = Ok edge);
  (* The cap is accepted, and validating runs nothing. *)
  let cap = { base with domains = Some Parallel.max_domains } in
  Alcotest.(check bool) "domains cap validates" true
    (Api.Request.validate cap = Ok cap)

(* in-process daemon *)

let fresh_dir () =
  let dir = Filename.temp_file "ndetect-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  Array.iter
    (fun entry -> try Sys.remove (Filename.concat dir entry) with _ -> ())
    (Sys.readdir dir);
  try Unix.rmdir dir with _ -> ()

let with_server ?(cache = false) ?(queue_capacity = 16) f =
  let dir = fresh_dir () in
  let cache_dir =
    if cache then begin
      let c = Filename.concat dir "tables" in
      Unix.mkdir c 0o755;
      Some c
    end
    else None
  in
  let config =
    {
      (Serve.default_config ~socket:(Filename.concat dir "s")) with
      Serve.cache_dir;
      queue_capacity;
      quiet = true;
    }
  in
  match Serve.start config with
  | Error m ->
    rm_rf dir;
    Alcotest.fail ("server start: " ^ m)
  | Ok t ->
    Fun.protect
      ~finally:(fun () ->
        Supervise.set_injection [];
        Serve.stop t;
        Option.iter rm_rf cache_dir;
        rm_rf dir)
      (fun () -> f config.Serve.socket)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (match Rpc.read_frame ic with
  | Ok hello ->
    Alcotest.(check (option string)) "hello speaks the protocol"
      (Some Rpc.protocol)
      (Option.bind (Rpc.member "protocol" hello) Rpc.to_str)
  | Error m -> Alcotest.fail ("hello: " ^ m));
  (fd, ic, oc)

let disconnect (fd, _, oc) =
  (try flush oc with _ -> ());
  try Unix.close fd with _ -> ()

let send_request (_, _, oc) req =
  Rpc.write_frame oc
    (Rpc.Obj
       [ ("type", Rpc.Str "request"); ("request", Api.Request.to_json req) ])

type reply = {
  render : string;
  remote_failures : int;
  trace : string list;
  failure_spans : string list list;
      (* one entry per failure frame: its open-span stack *)
  overloaded : bool;
}

let read_reply (_, ic, _) =
  let trace = ref [] in
  let failure_spans = ref [] in
  let rec loop () =
    match Rpc.read_frame ic with
    | Error m -> Alcotest.fail ("reply: " ^ m)
    | Ok j -> (
      match Option.bind (Rpc.member "type" j) Rpc.to_str with
      | Some "trace" ->
        (match Option.bind (Rpc.member "line" j) Rpc.to_str with
        | Some line -> trace := line :: !trace
        | None -> ());
        loop ()
      | Some "failure" ->
        let spans =
          match Rpc.member "spans" j with
          | Some (Rpc.List l) -> List.filter_map Rpc.to_str l
          | _ -> []
        in
        failure_spans := spans :: !failure_spans;
        loop ()
      | Some "done" ->
        {
          render =
            Option.value ~default:""
              (Option.bind (Rpc.member "render" j) Rpc.to_str);
          remote_failures =
            Option.value ~default:0
              (Option.bind (Rpc.member "failures" j) Rpc.to_int);
          trace = List.rev !trace;
          failure_spans = List.rev !failure_spans;
          overloaded = false;
        }
      | Some "overloaded" ->
        {
          render = "";
          remote_failures = 0;
          trace = [];
          failure_spans = [];
          overloaded = true;
        }
      | Some "error" ->
        Alcotest.fail
          ("server error: "
          ^ Option.value ~default:"?"
              (Option.bind (Rpc.member "message" j) Rpc.to_str))
      | Some _ | None -> loop ())
  in
  loop ()

let one_shot socket req =
  let conn = connect socket in
  Fun.protect
    ~finally:(fun () -> disconnect conn)
    (fun () ->
      send_request conn req;
      read_reply conn)

let has_span trace needle =
  List.exists (fun line -> Helpers.contains_substring line needle) trace

let span_count trace =
  List.length
    (List.filter
       (fun line -> Helpers.contains_substring line "\"type\":\"begin\"")
       trace)

let quick_request ?deadline ?cache_dir label =
  Api.Request.make ~sections:[ Api.Request.Worst ] ~nmax:3 ?deadline
    ?cache_dir ~label (Api.Request.Suite "lion")

(* The core acceptance property: the daemon's render is byte-identical
   to running the same request locally, because both print
   Api.Response.render of the same value. *)
let test_serve_matches_local_run () =
  with_server (fun socket ->
      let req =
        Api.Request.make
          ~sections:[ Api.Request.Worst; Api.Request.Average ]
          ~k:5 ~nmax:3 ~label:"lion" (Api.Request.Suite "lion")
      in
      let reply = one_shot socket req in
      match Api.run req with
      | Error m -> Alcotest.fail m
      | Ok local ->
        Alcotest.(check string) "daemon render byte-identical to local"
          (Api.Response.render local) reply.render;
        Alcotest.(check int) "clean run" 0 reply.remote_failures;
        Alcotest.(check bool) "trace streamed" true (span_count reply.trace > 0))

(* A request naming a retired kernel gets an error frame on its
   connection; the daemon keeps serving, and the next plain request on
   the same connection is answered. *)
let test_serve_retired_field_is_an_error_frame () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> disconnect conn)
        (fun () ->
          let _, ic, oc = conn in
          let req = quick_request "lion" in
          let fields =
            match Api.Request.to_json req with
            | Rpc.Obj fields -> fields
            | _ -> Alcotest.fail "request encodes to an object"
          in
          Rpc.write_frame oc
            (Rpc.Obj
               [
                 ("type", Rpc.Str "request");
                 ( "request",
                   Rpc.Obj (fields @ [ ("kernel_backend", Rpc.Str "swar") ])
                 );
               ]);
          (match Rpc.read_frame ic with
          | Error m -> Alcotest.fail ("reply: " ^ m)
          | Ok j ->
            Alcotest.(check (option string))
              "error frame" (Some "error")
              (Option.bind (Rpc.member "type" j) Rpc.to_str);
            Alcotest.(check bool) "message names the field" true
              (Helpers.contains_substring
                 (Option.value ~default:""
                    (Option.bind (Rpc.member "message" j) Rpc.to_str))
                 "kernel_backend"));
          send_request conn req;
          let reply = read_reply conn in
          Alcotest.(check int) "next request answered" 0 reply.remote_failures;
          Alcotest.(check bool) "with a render" true (reply.render <> "")))

(* A frame nested past Rpc.max_depth gets an error frame, not a stalled
   daemon or a dropped connection; the next plain request on the same
   connection is answered. *)
let test_serve_deep_frame_is_an_error_frame () =
  with_server (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> disconnect conn)
        (fun () ->
          let _, ic, oc = conn in
          let payload = String.make (4 * 1024 * 1024) '[' in
          Printf.fprintf oc "%d\n%s%!" (String.length payload) payload;
          (match Rpc.read_frame ic with
          | Error m -> Alcotest.fail ("reply: " ^ m)
          | Ok j ->
            Alcotest.(check (option string))
              "error frame" (Some "error")
              (Option.bind (Rpc.member "type" j) Rpc.to_str);
            Alcotest.(check bool) "message says nesting" true
              (Helpers.contains_substring
                 (Option.value ~default:""
                    (Option.bind (Rpc.member "message" j) Rpc.to_str))
                 "nesting too deep"));
          send_request conn (quick_request "lion");
          let reply = read_reply conn in
          Alcotest.(check int) "next request answered" 0 reply.remote_failures;
          Alcotest.(check bool) "with a render" true (reply.render <> "")))

let test_serve_stats_frame () =
  with_server (fun socket ->
      ignore (one_shot socket (quick_request "lion"));
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> disconnect conn)
        (fun () ->
          let _, ic, oc = conn in
          Rpc.write_frame oc (Rpc.Obj [ ("type", Rpc.Str "stats") ]);
          match Rpc.read_frame ic with
          | Error m -> Alcotest.fail m
          | Ok j ->
            let counters =
              match Rpc.member "counters" j with
              | Some (Rpc.Obj members) -> members
              | _ -> Alcotest.fail "stats frame has no counters object"
            in
            Alcotest.(check bool) "requests counted" true
              (match List.assoc_opt "serve.requests" counters with
              | Some (Rpc.Int n) -> n >= 1
              | _ -> false)))

(* Two identical requests in flight: the second joins the first's
   computation. Exactly one of the two traces carries spans; the
   joiner's is the schema-valid empty document. *)
let test_serve_dedups_concurrent_identical_requests () =
  with_server ~cache:true (fun socket ->
      (match Supervise.parse_injection_spec "stall=analyze:lion:0.6" with
      | Ok plan -> Supervise.set_injection plan
      | Error m -> Alcotest.fail m);
      let joins_before = Telemetry.counter_value "serve.dedup_joins" in
      let req = quick_request "lion" in
      let a = connect socket and b = connect socket in
      Fun.protect
        ~finally:(fun () ->
          Supervise.set_injection [];
          disconnect a;
          disconnect b)
        (fun () ->
          send_request a req;
          send_request b req;
          let ra = read_reply a and rb = read_reply b in
          Alcotest.(check string) "joiner got the owner's answer" ra.render
            rb.render;
          Alcotest.(check int) "both clean" 0
            (ra.remote_failures + rb.remote_failures);
          Alcotest.(check int) "one dedup join counted" (joins_before + 1)
            (Telemetry.counter_value "serve.dedup_joins");
          let spans = List.sort compare [ span_count ra.trace; span_count rb.trace ] in
          Alcotest.(check bool) "exactly one computation traced" true
            (List.hd spans = 0 && List.nth spans 1 > 0)))

(* Deadline from admission: a stalled unit comes back as a structured
   timeout row; the daemon survives and answers the next request. *)
let test_serve_deadline_is_structured () =
  with_server (fun socket ->
      (match Supervise.parse_injection_spec "stall=analyze:dl:10" with
      | Ok plan -> Supervise.set_injection plan
      | Error m -> Alcotest.fail m);
      let reply =
        Fun.protect
          ~finally:(fun () -> Supervise.set_injection [])
          (fun () ->
            one_shot socket
              {
                (quick_request ~deadline:0.4 "dl") with
                Api.Request.source = Api.Request.Suite "lion";
              })
      in
      Alcotest.(check int) "one failure row" 1 reply.remote_failures;
      Alcotest.(check bool) "render names the timeout" true
        (Helpers.contains_substring reply.render "timed out");
      (* The failure frame carries the span stack that was open when
         the deadline unwound — the budget went into the analysis. *)
      (match reply.failure_spans with
      | [ spans ] ->
        Alcotest.(check bool) "timeout reports its open span stack" true
          (List.exists
             (fun s -> Helpers.contains_substring s "analyze")
             spans)
      | other ->
        Alcotest.fail
          (Printf.sprintf "expected 1 failure frame, got %d"
             (List.length other)));
      (* The daemon is still alive and clean for the next request. *)
      let after = one_shot socket (quick_request "lion") in
      Alcotest.(check int) "daemon survived the timeout" 0
        after.remote_failures)

(* Clean-then-warm: with a cache directory, the second identical
   (sequential, so not deduplicated) request answers from the resident
   table — its trace has no simulation or build spans at all. *)
let test_serve_warm_request_simulates_nothing () =
  with_server ~cache:true (fun socket ->
      let req = quick_request "lion" in
      let cold = one_shot socket req in
      let warm = one_shot socket req in
      Alcotest.(check string) "warm answer identical" cold.render warm.render;
      Alcotest.(check bool) "cold run built the table" true
        (has_span cold.trace "\"name\":\"table.build\"");
      Alcotest.(check bool) "warm run still traced" true
        (span_count warm.trace > 0);
      List.iter
        (fun forbidden ->
          Alcotest.(check bool)
            (forbidden ^ " absent from warm trace")
            true
            (not (has_span warm.trace forbidden)))
        [ "\"name\":\"table.build\""; "\"name\":\"table.sim" ])

(* A full admission queue answers overloaded immediately instead of
   queueing unbounded work. *)
let test_serve_overload_is_structured () =
  with_server ~queue_capacity:1 (fun socket ->
      (match Supervise.parse_injection_spec "stall=analyze:ov:1.2" with
      | Ok plan -> Supervise.set_injection plan
      | Error m -> Alcotest.fail m);
      let a = connect socket and b = connect socket and c = connect socket in
      Fun.protect
        ~finally:(fun () ->
          Supervise.set_injection [];
          disconnect a;
          disconnect b;
          disconnect c)
        (fun () ->
          send_request a (quick_request "ov");
          (* Let the executor dequeue the stalled request so the queue
             is empty, then fill it and overflow it with two distinct
             requests (identical ones would dedup, not queue). Their
             connection threads race, so either may be the one shed —
             but with a stalled executor and a one-slot queue, exactly
             one of them must be. *)
          Unix.sleepf 0.3;
          send_request b (quick_request "ov-b");
          send_request c (quick_request "ov-c");
          let rb = read_reply b in
          let rc = read_reply c in
          let ra = read_reply a in
          Alcotest.(check bool) "exactly one request shed" true
            (rb.overloaded <> rc.overloaded);
          let admitted = if rb.overloaded then rc else rb in
          Alcotest.(check int) "queued and running requests answered" 0
            (ra.remote_failures + admitted.remote_failures);
          Alcotest.(check bool) "overload counted" true
            (Telemetry.counter_value "serve.overloaded" >= 1)))

let () =
  Alcotest.run "serve"
    [
      ( "rpc",
        [
          Helpers.qcheck prop_json_roundtrip;
          Helpers.qcheck prop_escape_roundtrip;
          Helpers.qcheck prop_framing_roundtrip;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_rpc_rejects_oversized_frame;
          Alcotest.test_case "deep nesting rejected" `Quick
            test_rpc_rejects_deep_nesting;
        ] );
      ( "request",
        [
          Alcotest.test_case "json round trip" `Quick test_request_roundtrip;
          Helpers.qcheck prop_universe_roundtrip;
          Alcotest.test_case "of_json errors" `Quick
            test_request_of_json_errors;
          Alcotest.test_case "retired runtime fields" `Quick
            test_request_retired_fields;
          Helpers.qcheck prop_mutated_frames_decode;
          Alcotest.test_case "section names" `Quick test_section_names;
          Alcotest.test_case "validate bounds" `Quick test_request_validate;
          Alcotest.test_case "options lowering" `Quick
            test_options_to_request;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "matches local run" `Quick
            test_serve_matches_local_run;
          Alcotest.test_case "stats frame" `Quick test_serve_stats_frame;
          Alcotest.test_case "retired runtime field is an error frame" `Quick
            test_serve_retired_field_is_an_error_frame;
          Alcotest.test_case "deep frame is an error frame" `Quick
            test_serve_deep_frame_is_an_error_frame;
          Alcotest.test_case "dedups concurrent identical requests" `Quick
            test_serve_dedups_concurrent_identical_requests;
          Alcotest.test_case "deadline is a structured row" `Quick
            test_serve_deadline_is_structured;
          Alcotest.test_case "warm request simulates nothing" `Quick
            test_serve_warm_request_simulates_nothing;
          Alcotest.test_case "overload is structured" `Quick
            test_serve_overload_is_structured;
        ] );
    ]
