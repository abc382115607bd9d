module Netlist = Ndetect_circuit.Netlist
module Detection_table = Ndetect_core.Detection_table
module Analysis = Ndetect_core.Analysis
module Procedure1 = Ndetect_core.Procedure1
module Average_case = Ndetect_core.Average_case
module Estimate = Ndetect_estimate.Estimate
module Registry = Ndetect_suite.Registry
module Paper_tables = Ndetect_report.Paper_tables
module Supervise = Ndetect_util.Supervise
module Telemetry = Ndetect_util.Telemetry
module Cancel = Ndetect_util.Cancel
module Parallel = Ndetect_util.Parallel
module Encode = Ndetect_synth.Encode
module Kiss2 = Ndetect_netparse.Kiss2
module Bench_format = Ndetect_netparse.Bench_format
module Fsm_synth = Ndetect_synth.Fsm_synth
module Multilevel = Ndetect_synth.Multilevel

module Request = struct
  type source = Suite of string | File of string | Inline_bench of string

  type section = Worst | Average | Average_def2

  type universe = Exhaustive | Sampled of Estimate.Spec.t

  type t = {
    label : string;
    source : source;
    sections : section list;
    universe : universe;
    k : int;
    k2 : int;
    nmax : int;
    seed : int;
    scheme : Encode.scheme;
    domains : int option;
    cache_dir : string option;
    deadline : float option;
  }

  let make ?(sections = [ Worst ]) ?(universe = Exhaustive) ?(k = 1000)
      ?(k2 = 200) ?(nmax = 10) ?(seed = 1) ?(scheme = Encode.Binary) ?domains
      ?cache_dir ?deadline ~label source =
    {
      label;
      source;
      sections;
      universe;
      k;
      k2;
      nmax;
      seed;
      scheme;
      domains;
      cache_dir;
      deadline;
    }

  let section_name = function
    | Worst -> "worst"
    | Average -> "average"
    | Average_def2 -> "average_def2"

  let section_of_name = function
    | "worst" -> Some Worst
    | "average" -> Some Average
    | "average_def2" -> Some Average_def2
    | _ -> None

  let source_to_json = function
    | Suite name -> Rpc.Obj [ ("kind", Rpc.Str "suite"); ("value", Rpc.Str name) ]
    | File path -> Rpc.Obj [ ("kind", Rpc.Str "file"); ("value", Rpc.Str path) ]
    | Inline_bench text ->
      Rpc.Obj [ ("kind", Rpc.Str "inline_bench"); ("value", Rpc.Str text) ]

  let opt_str = function None -> Rpc.Null | Some s -> Rpc.Str s
  let opt_int = function None -> Rpc.Null | Some n -> Rpc.Int n
  let opt_float = function None -> Rpc.Null | Some f -> Rpc.Float f

  (* The field order is fixed and every field is always present (Null
     when off): [to_json] doubles as the daemon's dedup fingerprint, so
     equal requests must produce equal documents. *)
  let to_json t =
    Rpc.Obj
      [
        ("label", Rpc.Str t.label);
        ("source", source_to_json t.source);
        ("sections",
         Rpc.List
           (List.map (fun s -> Rpc.Str (section_name s)) t.sections));
        ("k", Rpc.Int t.k);
        ("k2", Rpc.Int t.k2);
        ("nmax", Rpc.Int t.nmax);
        ("seed", Rpc.Int t.seed);
        ("scheme", Rpc.Str (Encode.to_string t.scheme));
        ("domains", opt_int t.domains);
        ("cache_dir", opt_str t.cache_dir);
        ("deadline", opt_float t.deadline);
        (* Null for the exhaustive default, so every pre-sampling
           fingerprint is unchanged. *)
        ("universe",
         match t.universe with
         | Exhaustive -> Rpc.Null
         | Sampled spec ->
           Rpc.Obj
             [
               ("samples", Rpc.Int spec.Estimate.Spec.samples);
               ("strata", Rpc.Int spec.Estimate.Spec.strata);
               ("confidence", Rpc.Float spec.Estimate.Spec.confidence);
             ]);
      ]

  (* The one owner of the request bounds: the daemon ([of_json]), the
     CLI and the reproduction driver all reject through here. *)
  let validate t =
    let at_least_one field n =
      if n >= 1 then Ok ()
      else Error (Printf.sprintf "request field %S must be >= 1" field)
    in
    let ( let* ) = Result.bind in
    let* () = at_least_one "k" t.k in
    let* () = at_least_one "k2" t.k2 in
    let* () = at_least_one "nmax" t.nmax in
    let* () =
      match t.domains with
      | Some d when d > Parallel.max_domains ->
        Error
          (Printf.sprintf "request field \"domains\" must be <= %d"
             Parallel.max_domains)
      | Some d -> at_least_one "domains" d
      | None -> Ok ()
    in
    let* () =
      match t.deadline with
      | Some d when not (d > 0.0) ->
        Error "request field \"deadline\" must be a positive number"
      | Some _ | None -> Ok ()
    in
    match t.universe with
    | Exhaustive -> Ok t
    | Sampled spec -> (
      match Estimate.Spec.validate spec with
      | Ok _ -> Ok t
      | Error msg -> Error ("request field \"universe\": " ^ msg))

  let of_json j =
    let ( let* ) = Result.bind in
    let field name = Rpc.member name j in
    let str_field name =
      match field name with
      | Some (Rpc.Str s) -> Ok s
      | Some _ -> Error (Printf.sprintf "request field %S must be a string" name)
      | None -> Error (Printf.sprintf "request field %S is required" name)
    in
    let int_field name default =
      match field name with
      | Some v -> (
        match Rpc.to_int v with
        | Some n -> Ok n
        | None ->
          Error (Printf.sprintf "request field %S must be an integer" name))
      | None -> Ok default
    in
    let opt_str_field name =
      match field name with
      | Some (Rpc.Str s) -> Ok (Some s)
      | Some Rpc.Null | None -> Ok None
      | Some _ ->
        Error (Printf.sprintf "request field %S must be a string or null" name)
    in
    let legacy_field name ~runs =
      match field name with
      | Some Rpc.Null | None -> Ok ()
      | Some (Rpc.Str s) when String.equal s runs -> Ok ()
      | Some v ->
        Error
          (Printf.sprintf "request field %S: only %S is supported, got %s" name
             runs (Rpc.to_string v))
    in
    let* label = str_field "label" in
    let* source =
      match field "source" with
      | None -> Error "request field \"source\" is required"
      | Some src -> (
        match
          ( Option.bind (Rpc.member "kind" src) Rpc.to_str,
            Option.bind (Rpc.member "value" src) Rpc.to_str )
        with
        | Some "suite", Some v -> Ok (Suite v)
        | Some "file", Some v -> Ok (File v)
        | Some "inline_bench", Some v -> Ok (Inline_bench v)
        | Some kind, Some _ ->
          Error (Printf.sprintf "unknown source kind %S" kind)
        | _ -> Error "source must carry string fields \"kind\" and \"value\"")
    in
    let* sections =
      match field "sections" with
      | None -> Ok [ Worst ]
      | Some (Rpc.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Option.bind (Rpc.to_str item) section_of_name with
            | Some s -> Ok (s :: acc)
            | None ->
              Error
                (Printf.sprintf "unknown section %s (worst, average or \
                                 average_def2)"
                   (Rpc.to_string item)))
          (Ok []) items
        |> Result.map List.rev
      | Some _ -> Error "request field \"sections\" must be a list"
    in
    let* k = int_field "k" 1000 in
    let* k2 = int_field "k2" 200 in
    let* nmax = int_field "nmax" 10 in
    let* seed = int_field "seed" 1 in
    let* scheme =
      match field "scheme" with
      | None -> Ok Encode.Binary
      | Some (Rpc.Str s) -> (
        match Encode.of_string s with
        | Some scheme -> Ok scheme
        | None -> Error (Printf.sprintf "unknown encoding %S" s))
      | Some _ -> Error "request field \"scheme\" must be a string"
    in
    let* domains =
      match field "domains" with
      | Some Rpc.Null | None -> Ok None
      | Some v -> (
        match Rpc.to_int v with
        | Some n -> Ok (Some n)
        | None -> Error "request field \"domains\" must be an integer or null")
    in
    (* Clients from before the one-kernel runtime may still name the
       kernel and the simulation strategy; only the ones that run are
       accepted. *)
    let* () = legacy_field "kernel_backend" ~runs:"c" in
    let* () = legacy_field "sim_strategy" ~runs:"stem" in
    let* cache_dir = opt_str_field "cache_dir" in
    let* deadline =
      match field "deadline" with
      | Some Rpc.Null | None -> Ok None
      | Some (Rpc.Float f) -> Ok (Some f)
      | Some (Rpc.Int n) -> Ok (Some (float_of_int n))
      | Some _ -> Error "request field \"deadline\" must be a number or null"
    in
    let* universe =
      match field "universe" with
      | Some Rpc.Null | None -> Ok Exhaustive
      | Some (Rpc.Obj _ as u) -> (
        let int_of name =
          match Option.bind (Rpc.member name u) Rpc.to_int with
          | Some n -> Ok n
          | None ->
            Error
              (Printf.sprintf "universe field %S must be an integer" name)
        in
        let* samples = int_of "samples" in
        let* strata = int_of "strata" in
        let* confidence =
          match Rpc.member "confidence" u with
          | Some (Rpc.Float f) -> Ok f
          | Some (Rpc.Int n) -> Ok (float_of_int n)
          | _ -> Error "universe field \"confidence\" must be a number"
        in
        Ok (Sampled { Estimate.Spec.samples; strata; confidence }))
      | Some _ -> Error "request field \"universe\" must be an object or null"
    in
    validate
      {
        label;
        source;
        sections;
        universe;
        k;
        k2;
        nmax;
        seed;
        scheme;
        domains;
        cache_dir;
        deadline;
      }
end

module Response = struct
  type section_rows =
    | Worst_rows of Paper_tables.table_entry list
    | Est_rows of {
        confidence : float;
        entries : Paper_tables.est_entry list;
      }
    | Average_rows of {
        nmax : int;
        k : int;
        rows : Paper_tables.average_row list option;
      }
    | Def2_rows of {
        nmax : int;
        k2 : int;
        rows :
          (string * int * Average_case.row * Average_case.row) list option;
      }

  type t = {
    label : string;
    sections : (Request.section * section_rows) list;
    failures : (string * Supervise.failure) list;
    counters : (string * int) list;
  }

  let render_section rows =
    let b = Buffer.create 128 in
    (match rows with
    | Worst_rows entries ->
      Buffer.add_string b "== worst-case ==\n";
      Buffer.add_string b (Paper_tables.table2_entries entries)
    | Est_rows { confidence; entries } ->
      Buffer.add_string b "== worst-case (sampled) ==\n";
      Buffer.add_string b (Paper_tables.est_entries ~confidence entries)
    | Average_rows { nmax; k; rows } -> (
      Printf.bprintf b "== average-case (K = %d) ==\n" k;
      match rows with
      | None -> Buffer.add_string b "(not computed)\n"
      | Some [] ->
        Printf.bprintf b "(no faults need more than %d detections)\n" nmax
      | Some rows -> Buffer.add_string b (Paper_tables.table5 ~nmax rows))
    | Def2_rows { nmax; k2; rows } -> (
      Printf.bprintf b "== definition 1 vs definition 2 (K = %d) ==\n" k2;
      match rows with
      | None -> Buffer.add_string b "(not computed)\n"
      | Some [] ->
        Printf.bprintf b "(no faults need more than %d detections)\n" nmax
      | Some rows -> Buffer.add_string b (Paper_tables.table6 ~nmax rows)));
    Buffer.contents b

  let render t =
    let b = Buffer.create 512 in
    Printf.bprintf b "circuit: %s\n" t.label;
    List.iter (fun (_, rows) -> Buffer.add_string b (render_section rows))
      t.sections;
    List.iter
      (fun (label, failure) ->
        Printf.bprintf b "(%s: %s)\n" label (Supervise.describe failure))
      t.failures;
    Buffer.contents b
end

let source_of_spec spec =
  match Registry.find spec with
  | Some _ -> Request.Suite spec
  | None -> Request.File spec

(* The CLI's historical circuit-argument resolution, moved here so the
   daemon resolves sources identically: suite name, else file by
   extension (.kiss2 / .pla / .blif, default .bench). *)
let load_source ?(scheme = Encode.Binary) source =
  let friendly ~file = function
    | Ok v -> Ok v
    | Error (`Parse d) ->
      Error (Ndetect_netparse.Diagnostic.to_string ~file d)
    | Error (`Io message) -> Error (Printf.sprintf "%s: %s" file message)
  in
  match source with
  | Request.Inline_bench text -> (
    match Bench_format.parse_result text with
    | Ok net -> Ok net
    | Error (`Parse d) ->
      Error (Ndetect_netparse.Diagnostic.to_string ~file:"<inline>" d))
  | Request.Suite name -> (
    match Registry.find name with
    | Some entry -> Ok (Registry.circuit ~scheme entry)
    | None ->
      Error
        (Printf.sprintf
           "%s is not a suite circuit; try `ndetect list`" name))
  | Request.File spec ->
    if not (Sys.file_exists spec) then
      Error
        (Printf.sprintf
           "%s is neither a suite circuit nor a file; try `ndetect list`"
           spec)
    else if Filename.check_suffix spec ".kiss2" then
      friendly ~file:spec (Kiss2.parse_file_result spec)
      |> Result.map (fun fsm ->
             Multilevel.decompose (Fsm_synth.synthesize ~scheme fsm))
    else if Filename.check_suffix spec ".pla" then
      friendly ~file:spec (Ndetect_netparse.Pla.parse_file_result spec)
      |> Result.map Ndetect_synth.Pla_synth.synthesize
    else if Filename.check_suffix spec ".blif" then
      friendly ~file:spec (Ndetect_netparse.Blif.parse_file_result spec)
    else friendly ~file:spec (Bench_format.parse_file_result spec)

let table_builder ~cache_dir =
  Option.map
    (fun dir -> fun ~cancel net -> Table_cache.table ~dir ~cancel net)
    cache_dir

(* What the [analyze] unit produced: the exhaustive analysis or the
   sampled estimate. Either way the average-case sections run Procedure 1
   over the unit's detection table (sampled tables run it unchanged —
   the universe is simply the sample). *)
type computed = Exact of Analysis.t | Sampled_est of Estimate.t

let run ?build (req : Request.t) =
  match load_source ~scheme:req.scheme req.source with
  | Error message -> Error message
  | Ok net ->
    let before = Telemetry.counters () in
    let failures = ref [] in
    let name = req.Request.label in
    (* Same supervised-unit shape (and injection sites) as the
       reproduction driver, so --inject specs written against the
       driver hit the service path unchanged. *)
    let supervised ~label ~site f =
      let result =
        Supervise.run ?deadline:req.Request.deadline
          (fun cancel ->
            Telemetry.with_span label
              ~args:[ ("site", site) ]
              (fun () ->
                Supervise.inject ~cancel site;
                f cancel))
      in
      (match result with
      | Error failure -> failures := (label, failure) :: !failures
      | Ok _ -> ());
      result
    in
    let build =
      match build with
      | Some _ as b -> b
      | None -> table_builder ~cache_dir:req.Request.cache_dir
    in
    let analysis =
      lazy
        (supervised ~label:("analyze " ^ name) ~site:("analyze:" ^ name)
           (fun cancel ->
             match req.Request.universe with
             | Request.Exhaustive ->
               Exact (Analysis.analyze ?build ~cancel ~name net)
             | Request.Sampled spec ->
               (* The sampled table depends on spec and seed, not just
                  the netlist, so it never goes through the table
                  cache — the build is cheap by construction. *)
               Sampled_est
                 (Estimate.analyze ~cancel ~spec ~seed:req.Request.seed
                    ~name net)))
    in
    (* The hard-fault population is shared by both average sections;
       computing it is cheap once the analysis exists. *)
    let hard =
      lazy
        (match Lazy.force analysis with
        | Error _ -> None
        | Ok (Exact a) ->
          Some
            (a.Analysis.table, Analysis.hard_faults a ~nmax:req.Request.nmax)
        | Ok (Sampled_est e) ->
          Some (Estimate.table e, Estimate.hard_faults e ~nmax:req.Request.nmax))
    in
    let procedure1 ~set_count mode table hard cancel =
      Procedure1.run ~cancel ?domains:req.Request.domains
        ~report_faults:hard table
        {
          Procedure1.seed = req.Request.seed;
          set_count;
          nmax = req.Request.nmax;
          mode;
        }
    in
    let section_rows = function
      | Request.Worst -> (
        match Lazy.force analysis with
        | Ok (Exact a) ->
          Response.Worst_rows [ Paper_tables.Row a.Analysis.summary ]
        | Ok (Sampled_est e) ->
          Response.Est_rows
            {
              confidence = (Estimate.spec e).Estimate.Spec.confidence;
              entries = [ Paper_tables.Est_row (Estimate.summary e) ];
            }
        | Error failure -> (
          let reason = Supervise.describe failure in
          match req.Request.universe with
          | Request.Exhaustive ->
            Response.Worst_rows
              [ Paper_tables.Failed_row { circuit = name; reason } ]
          | Request.Sampled spec ->
            Response.Est_rows
              {
                confidence = spec.Estimate.Spec.confidence;
                entries =
                  [ Paper_tables.Est_failed_row { circuit = name; reason } ];
              }))
      | Request.Average -> (
        let nmax = req.Request.nmax and k = req.Request.k in
        match Lazy.force hard with
        | None -> Response.Average_rows { nmax; k; rows = None }
        | Some (_, [||]) -> Response.Average_rows { nmax; k; rows = Some [] }
        | Some (table, hard) -> (
          match
            supervised ~label:("procedure1 " ^ name)
              ~site:("table5:" ^ name)
              (procedure1 ~set_count:k Procedure1.Definition1 table hard)
          with
          | Error _ -> Response.Average_rows { nmax; k; rows = None }
          | Ok outcome ->
            Response.Average_rows
              {
                nmax;
                k;
                rows =
                  Some
                    [
                      {
                        Paper_tables.circuit = name;
                        hard_faults = Array.length hard;
                        row = Average_case.summarize outcome ~n:nmax;
                      };
                    ];
              }))
      | Request.Average_def2 -> (
        let nmax = req.Request.nmax and k2 = req.Request.k2 in
        match Lazy.force hard with
        | None -> Response.Def2_rows { nmax; k2; rows = None }
        | Some (_, [||]) -> Response.Def2_rows { nmax; k2; rows = Some [] }
        | Some (table, hard) -> (
          match
            supervised
              ~label:("procedure1-def2 " ^ name)
              ~site:("table6:" ^ name)
              (fun cancel ->
                let def1 =
                  procedure1 ~set_count:k2 Procedure1.Definition1 table hard
                    cancel
                in
                let def2 =
                  procedure1 ~set_count:k2 Procedure1.Definition2 table hard
                    cancel
                in
                (def1, def2))
          with
          | Error _ -> Response.Def2_rows { nmax; k2; rows = None }
          | Ok (def1, def2) ->
            Response.Def2_rows
              {
                nmax;
                k2;
                rows =
                  Some
                    [
                      ( name,
                        Array.length hard,
                        Average_case.summarize def1 ~n:nmax,
                        Average_case.summarize def2 ~n:nmax );
                    ];
              }))
    in
    let sections =
      List.map (fun s -> (s, section_rows s)) req.Request.sections
    in
    Ok
      {
        Response.label = name;
        sections;
        failures = List.rev !failures;
        counters = Telemetry.delta ~before ~after:(Telemetry.counters ());
      }
