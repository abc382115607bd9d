module Analysis = Ndetect_core.Analysis
module Detection_table = Ndetect_core.Detection_table
module Procedure1 = Ndetect_core.Procedure1
module Registry = Ndetect_suite.Registry
module Example = Ndetect_suite.Example
module Paper_tables = Ndetect_report.Paper_tables
module Bitvec = Ndetect_util.Bitvec
module Supervise = Ndetect_util.Supervise
module Telemetry = Ndetect_util.Telemetry

type options = {
  tier : Registry.tier;
  k : int;
  k2 : int;
  seed : int;
  only : string;
  quiet : bool;
  csv_dir : string option;
  checkpoint_dir : string option;
  resume : bool;
  timeout_per_circuit : float option;
  inject : string option;
  domains : int option;
  table_cache : string option;
  trace : string option;
  metrics : bool;
}

let default_options =
  {
    tier = Registry.Medium;
    k = 1000;
    k2 = 200;
    seed = 1;
    only = "all";
    quiet = false;
    csv_dir = None;
    checkpoint_dir = None;
    resume = false;
    timeout_per_circuit = None;
    inject = None;
    domains = None;
    table_cache = None;
    trace = None;
    metrics = false;
  }

module Options = struct
  type nonrec t = options

  let to_request t ~source ~label =
    let sections =
      match t.only with
      | "table2" | "table3" -> Ok [ Api.Request.Worst ]
      | "table5" -> Ok [ Api.Request.Average ]
      | "table6" -> Ok [ Api.Request.Average_def2 ]
      | "all" ->
        Ok [ Api.Request.Worst; Api.Request.Average; Api.Request.Average_def2 ]
      | other ->
        Error
          (Printf.sprintf
             "--only %s has no per-circuit request form (expected table2, \
              table3, table5, table6 or all)"
             other)
    in
    Result.bind sections (fun sections ->
        Api.Request.validate
          (Api.Request.make ~sections ~k:t.k ~k2:t.k2 ~seed:t.seed
             ?domains:t.domains ?cache_dir:t.table_cache
             ?deadline:t.timeout_per_circuit ~label source))
end

let usage =
  "usage: reproduce [--tier small|medium|large] [--k N] [--k2 N] [--seed N]\n\
  \                 [--only table1..table6|figure2|all] [--quiet] [--csv DIR]\n\
  \                 [--checkpoint DIR] [--resume] [--timeout-per-circuit SECS]\n\
  \                 [--inject SPEC] [--domains N] [--table-cache DIR]\n\
  \                 [--trace FILE] [--metrics]"

let value_flags =
  [
    "--tier"; "--k"; "--k2"; "--seed"; "--only"; "--csv"; "--checkpoint";
    "--timeout-per-circuit"; "--inject"; "--domains"; "--table-cache";
    "--trace";
  ]

(* The flag grammar is written with [failwith] (every arm wants to abort
   with a message); [parse_args_result] catches that at the boundary. *)
let parse_args_exn args =
  let int_value flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      failwith (Printf.sprintf "%s expects an integer, got %S\n%s" flag v usage)
  in
  let seconds_value flag v =
    match float_of_string_opt v with
    | Some s -> s
    | None ->
      failwith
        (Printf.sprintf "%s expects a number of seconds, got %S\n%s" flag v
           usage)
  in
  let rec go opts = function
    | [] -> opts
    | "--tier" :: v :: rest ->
      let tier =
        match Registry.tier_of_string v with
        | Some tier -> tier
        | None ->
          failwith
            (Printf.sprintf "unknown tier %S (small, medium or large)" v)
      in
      go { opts with tier } rest
    | "--k" :: v :: rest -> go { opts with k = int_value "--k" v } rest
    | "--k2" :: v :: rest -> go { opts with k2 = int_value "--k2" v } rest
    | "--seed" :: v :: rest ->
      go { opts with seed = int_value "--seed" v } rest
    | "--only" :: v :: rest ->
      go { opts with only = String.lowercase_ascii v } rest
    | "--quiet" :: rest -> go { opts with quiet = true } rest
    | "--csv" :: dir :: rest -> go { opts with csv_dir = Some dir } rest
    | "--checkpoint" :: dir :: rest ->
      go { opts with checkpoint_dir = Some dir } rest
    | "--resume" :: rest -> go { opts with resume = true } rest
    | "--timeout-per-circuit" :: v :: rest ->
      go
        {
          opts with
          timeout_per_circuit =
            Some (seconds_value "--timeout-per-circuit" v);
        }
        rest
    | "--inject" :: spec :: rest -> (
      match Supervise.parse_injection_spec spec with
      | Ok _ -> go { opts with inject = Some spec } rest
      | Error message -> failwith (Printf.sprintf "--inject: %s" message))
    | "--domains" :: v :: rest ->
      go { opts with domains = Some (int_value "--domains" v) } rest
    | "--table-cache" :: dir :: rest ->
      go { opts with table_cache = Some dir } rest
    | "--trace" :: file :: rest -> go { opts with trace = Some file } rest
    | "--metrics" :: rest -> go { opts with metrics = true } rest
    | [ flag ] when List.mem flag value_flags ->
      failwith (Printf.sprintf "%s requires a value\n%s" flag usage)
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S\n%s" arg usage)
  in
  let opts = go default_options args in
  (* Cross-flag validation: combinations each flag parser accepts in
     isolation but that would silently do the wrong thing as a whole —
     a resume with nothing to resume from, or a run selecting no
     section. *)
  if opts.resume && opts.checkpoint_dir = None then
    failwith (Printf.sprintf "--resume requires --checkpoint DIR\n%s" usage);
  let sections =
    [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "figure2";
      "all" ]
  in
  if not (List.mem opts.only sections) then
    failwith
      (Printf.sprintf "--only: unknown section %S (expected %s)\n%s" opts.only
         (String.concat ", " sections) usage);
  (* The numeric bounds are the request's ({!Api.Request.validate}),
     checked whatever the sections; its error names the request field,
     which is the flag's name but for the timeout. *)
  (match
     Options.to_request { opts with only = "all" }
       ~source:(Api.Request.Suite "") ~label:""
   with
  | Ok _ -> ()
  | Error message ->
    let flag =
      match Scanf.sscanf_opt message "request field %S" Fun.id with
      | Some "deadline" -> "--timeout-per-circuit"
      | Some field -> "--" ^ field
      | None -> "reproduce"
    in
    failwith (Printf.sprintf "%s: %s\n%s" flag message usage));
  opts

let parse_args_result args =
  match parse_args_exn args with
  | opts -> Ok opts
  | exception Failure message -> Error message

type t = {
  options : options;
  request : Api.Request.t option;
      (* Every suite circuit's request, label and source aside; [None]
         when the selected sections need no suite circuit. *)
  responses : (string, Api.Response.t) Hashtbl.t;  (* by circuit *)
  checkpoint : Checkpoint.t option;
  mutable failures : (string * Supervise.failure) list;  (* newest first *)
  mutable example : Analysis.t option;
  mutable trace_sink : Telemetry.Jsonl.t option;
  mutable memory_sink : Telemetry.Memory.t option;
  mutable unit_metrics : (string * (string * int) list) list;  (* newest first *)
}

(* Figure 2 reads the worst-case summaries Table 2 does; Tables 1 and 4
   are the Figure 1 example and need no suite circuit. *)
let request_of_options options =
  match options.only with
  | "table1" | "table4" -> None
  | only -> (
    let only = if only = "figure2" then "table2" else only in
    match
      Options.to_request { options with only }
        ~source:(Api.Request.Suite "") ~label:""
    with
    | Error message -> failwith message
    | Ok req -> Some req)

let create options =
  (match options.inject with
  | None -> Supervise.set_injection []
  | Some spec -> (
    match Supervise.parse_injection_spec spec with
    | Ok plan -> Supervise.set_injection plan
    | Error message -> failwith (Printf.sprintf "--inject: %s" message)));
  let request = request_of_options options in
  let checkpoint =
    Option.map
      (fun dir ->
        Checkpoint.create ~dir
          ~stamp:
            {
              Checkpoint.version = Checkpoint.version;
              seed = options.seed;
              tier = Registry.tier_name options.tier;
              k = options.k;
              k2 = options.k2;
            })
      options.checkpoint_dir
  in
  (* Fail fast on an unusable --csv target rather than crashing after
     the (possibly hours-long) run when the first table is written. *)
  Option.iter
    (fun dir ->
      Fs.mkdir_recursive dir;
      if not (Sys.is_directory dir) then
        failwith (Printf.sprintf "csv path %s is not a directory" dir))
    options.csv_dir;
  (* Sinks are attached for the driver's lifetime and released by
     {!finish} (run_all calls it): --trace streams every span to the
     JSONL file, --metrics additionally keeps the span tree in memory
     for the final profile table. *)
  let trace_sink =
    Option.map (fun path -> Telemetry.Jsonl.attach ~path) options.trace
  in
  let memory_sink =
    if options.metrics then Some (Telemetry.Memory.attach ()) else None
  in
  {
    options;
    request;
    responses = Hashtbl.create 64;
    checkpoint;
    failures = [];
    example = None;
    trace_sink;
    memory_sink;
    unit_metrics = [];
  }

let failures t = List.rev t.failures

let unit_metrics t = List.rev t.unit_metrics

(* A failed write outside any supervised unit (a checkpoint entry, the
   trace file) is recorded like a crashed unit, under [label]. *)
let record_failure t label ?backtrace e =
  t.failures <-
    (label, Supervise.Crashed (Ndetect_util.Error.of_exn ?backtrace e))
    :: t.failures

let finish t =
  (match Option.iter Telemetry.Jsonl.detach t.trace_sink with
  | () -> ()
  | exception (Sys_error _ as e) ->
    record_failure t ("trace " ^ Option.value t.options.trace ~default:"") e);
  t.trace_sink <- None;
  Option.iter Telemetry.Memory.detach t.memory_sink;
  t.memory_sink <- None

(* Checkpoint plumbing. Entries are only read back under --resume; a
   plain --checkpoint run starts from scratch but still persists. *)
let load_ck t key =
  match t.checkpoint with
  | Some ck when t.options.resume -> Checkpoint.load ck ~key
  | Some _ | None -> None

(* A failed write (an unusable directory, a full disk, the
   "checkpoint:store" injection site) costs only the entry: it is
   recorded as a ["checkpoint <circuit>"] failure and the run goes on
   with the computed response. *)
let store_ck t ~circuit key payload =
  Option.iter
    (fun ck ->
      match Checkpoint.store ck ~key payload with
      | () -> ()
      | exception
          ((Sys_error _ | Unix.Unix_error _ | Ndetect_util.Error.Injected_fault _)
           as e) ->
        let backtrace = Printexc.get_raw_backtrace () in
        record_failure t ("checkpoint " ^ circuit) ~backtrace e)
    t.checkpoint

(* A circuit's one [Api.run] of the run, kept for every table that reads
   it. A failure-free response is checkpointed under the circuit and its
   section list, so a resumed run renders it without recomputation and
   recomputes only the circuits that failed. *)
let response t entry =
  Option.map
    (fun template ->
      let name = entry.Registry.name in
      match Hashtbl.find_opt t.responses name with
      | Some r -> r
      | None ->
        let req =
          { template with Api.Request.label = name; source = Api.Request.Suite name }
        in
        let key =
          name ^ "-"
          ^ String.concat "+"
              (List.map Api.Request.section_name req.Api.Request.sections)
        in
        let r =
          match load_ck t key with
          | Some r -> r
          | None ->
            let t0 = Unix.gettimeofday () in
            (* A suite source always loads. *)
            let r =
              match Api.run req with
              | Ok r -> r
              | Error message -> failwith (name ^ ": " ^ message)
            in
            if not t.options.quiet then
              Printf.printf "[%s: %.2fs]\n%!" name (Unix.gettimeofday () -. t0);
            if t.options.metrics then
              t.unit_metrics <- (name, r.Api.Response.counters) :: t.unit_metrics;
            t.failures <- List.rev_append r.Api.Response.failures t.failures;
            if r.Api.Response.failures = [] then store_ck t ~circuit:name key r;
            r
        in
        Hashtbl.replace t.responses name r;
        r)
    t.request

let responses t = List.filter_map (response t) (Registry.of_tier t.options.tier)

let section r s = List.assoc_opt s r.Api.Response.sections

let worst_of r =
  match section r Api.Request.Worst with
  | Some (Api.Response.Worst_rows entries) -> entries
  | Some _ | None -> []

let example_analysis t =
  match t.example with
  | Some a -> a
  | None ->
    let a =
      Analysis.analyze
        ?build:(Api.table_builder ~cache_dir:t.options.table_cache)
        ~name:"example" (Example.circuit ())
    in
    t.example <- Some a;
    a

let find_bridge table (victim, vv, aggressor, av) =
  Detection_table.find_untargeted table ~victim ~victim_value:vv ~aggressor
    ~aggressor_value:av

let run_table1 t =
  let a = example_analysis t in
  match find_bridge a.Analysis.table Example.g0 with
  | None -> "example bridge g0 not found (unexpected)\n"
  | Some gj -> Paper_tables.table1 a ~gj

let worst_entries t = List.concat_map worst_of (responses t)
let run_table2 t = Paper_tables.table2_entries (worst_entries t)
let run_table3 t = Paper_tables.table3_entries (worst_entries t)
let table2_csv t = Paper_tables.table2_csv_entries (worst_entries t)
let table3_csv t = Paper_tables.table3_csv_entries (worst_entries t)

(* Faults with nmin >= 11, unbounded ones included: the Table 3 column
   that picks Figure 2's subject. *)
let hard_count (s : Analysis.worst_summary) =
  match List.find_opt (fun (n0, _, _) -> n0 = 11) s.Analysis.count_at_least with
  | Some (_, count, _) -> count
  | None -> 0

(* Figure 2 plots dvram when the tier has it (the paper's subject), else
   the first analyzed circuit with the most nmin >= 11 faults, cut at 100
   when any of them reaches it. *)
let figure2 t =
  let entries = Registry.of_tier t.options.tier in
  let row e = Option.bind (response t e) (fun r -> List.nth_opt (worst_of r) 0) in
  let hardest =
    match
      List.find_opt (fun e -> String.equal e.Registry.name "dvram") entries
    with
    | Some e -> row e
    | None ->
      List.fold_left
        (fun acc e ->
          match (row e, acc) with
          | Some (Paper_tables.Row s), Some (Paper_tables.Row best)
            when hard_count best >= hard_count s ->
            acc
          | (Some (Paper_tables.Row _) as candidate), _ -> candidate
          | _ -> acc)
        None entries
  in
  match hardest with
  | None -> ("(no circuits in tier)\n", None)
  | Some (Paper_tables.Failed_row { circuit; reason }) ->
    (Printf.sprintf "circuit: %s (%s)\n" circuit reason, None)
  | Some (Paper_tables.Row s) ->
    let hist = s.Analysis.hard_histogram in
    let min_value =
      if List.exists (fun (v, _) -> v >= 100) hist then 100 else 11
    in
    let hist = List.filter (fun (v, _) -> v >= min_value) hist in
    ( Printf.sprintf "circuit: %s\n%s" s.Analysis.circuit
        (Paper_tables.figure2_of_histogram hist ~min_value),
      Some ("figure2.csv", Paper_tables.figure2_csv_of_histogram hist) )

let run_figure2 t = fst (figure2 t)

let run_table4 t =
  let a = example_analysis t in
  let config =
    {
      Procedure1.seed = t.options.seed;
      set_count = 10;
      nmax = 2;
      mode = Procedure1.Definition1;
    }
  in
  let outcome =
    Procedure1.run ?domains:t.options.domains a.Analysis.table config
  in
  let g6_line =
    match find_bridge a.Analysis.table Example.g6 with
    | None -> ""
    | Some gj ->
      Printf.sprintf
        "g6 = %s, T(g6) = %s: d(1,g6) = %d, d(2,g6) = %d (of K = 10)\n"
        (Detection_table.untargeted_label a.Analysis.table gj)
        (Format.asprintf "%a" Bitvec.pp
           (Detection_table.untargeted_set a.Analysis.table gj))
        (Procedure1.detected_count outcome ~n:1 ~gj)
        (Procedure1.detected_count outcome ~n:2 ~gj)
  in
  Paper_tables.table4 outcome ^ g6_line

(* Tables 5 and 6 gather one section across the tier. [Some []] (no hard
   faults) is not listed; an uncomputed section becomes a
   [(circuit: reason)] footer naming the unit that failed — the
   circuit's analysis, else the section's own Procedure-1 unit
   ([unit_label], as [Api.run] labels it). *)
let average_section t ~unit_label ~rows_of ~render ~csv =
  let rows, failed =
    List.fold_right
      (fun r (rows, failed) ->
        match rows_of r with
        | Some more -> (more @ rows, failed)
        | None -> (
          let name = r.Api.Response.label in
          let failure prefix =
            List.assoc_opt (prefix ^ " " ^ name) r.Api.Response.failures
          in
          match (failure "analyze", failure unit_label) with
          | Some f, _ | None, Some f -> (rows, (name, f) :: failed)
          | None, None -> (rows, failed)))
      (responses t) ([], [])
  in
  let footer =
    String.concat ""
      (List.map
         (fun (circuit, failure) ->
           Printf.sprintf "(%s: %s)\n" circuit (Supervise.describe failure))
         failed)
  in
  match rows with
  | [] -> ("(no circuits with nmin >= 11 faults)\n" ^ footer, None)
  | rows -> (render ~nmax:10 rows ^ footer, Some (csv rows))

let table5 t =
  average_section t ~unit_label:"procedure1"
    ~rows_of:(fun r ->
      match section r Api.Request.Average with
      | Some (Api.Response.Average_rows { rows; _ }) -> rows
      | Some _ | None -> None)
    ~render:Paper_tables.table5
    ~csv:(fun rows -> ("table5.csv", Paper_tables.table5_csv rows))

let table6 t =
  average_section t ~unit_label:"procedure1-def2"
    ~rows_of:(fun r ->
      match section r Api.Request.Average_def2 with
      | Some (Api.Response.Def2_rows { rows; _ }) -> rows
      | Some _ | None -> None)
    ~render:Paper_tables.table6
    ~csv:(fun rows -> ("table6.csv", Paper_tables.table6_csv rows))

let run_table5 t = fst (table5 t)
let run_table6 t = fst (table6 t)

let write_csv t ~name content =
  match t.options.csv_dir with
  | None -> ()
  | Some dir ->
    Fs.mkdir_recursive dir;
    let path = Filename.concat dir name in
    Fs.write_atomic ~path content;
    if not t.options.quiet then Printf.printf "[wrote %s]\n%!" path

(* The --metrics report: per-circuit-request counter deltas (only the
   counters the request moved), the process-wide totals, and — from the
   in-memory sink — the aggregated span profile. *)
let print_metrics t =
  print_string "== Telemetry ==\n\n";
  List.iter
    (fun (label, delta) ->
      Printf.printf "%s:\n" label;
      if delta = [] then print_string "  (no counter activity)\n"
      else
        List.iter (fun (name, v) -> Printf.printf "  %-28s %d\n" name v) delta)
    (unit_metrics t);
  print_string "totals:\n";
  List.iter
    (fun (name, v) -> Printf.printf "  %-28s %d\n" name v)
    (Telemetry.counters ());
  Option.iter
    (fun sink -> Printf.printf "\n%s" (Telemetry.Memory.render sink))
    t.memory_sink;
  flush stdout

let run_all t =
  let emit what title render =
    if t.options.only = "all" || t.options.only = what then begin
      let text, csv = render () in
      Printf.printf "== %s ==\n\n%s\n%!" title text;
      Option.iter (fun (name, content) -> write_csv t ~name content) csv
    end
  in
  emit "table1" "Table 1 (worked example, Figure 1 circuit)" (fun () ->
      (run_table1 t, None));
  emit "table4" "Table 4 (K = 10 random test sets for the example circuit)"
    (fun () -> (run_table4 t, None));
  emit "table2" "Table 2 (worst-case percentages, small n)" (fun () ->
      (run_table2 t, Some ("table2.csv", table2_csv t)));
  emit "table3" "Table 3 (worst-case counts, large n)" (fun () ->
      (run_table3 t, Some ("table3.csv", table3_csv t)));
  emit "figure2" "Figure 2 (distribution of nmin for the hardest circuit)"
    (fun () -> figure2 t);
  emit "table5"
    (Printf.sprintf "Table 5 (average-case probabilities, K = %d)" t.options.k)
    (fun () -> table5 t);
  emit "table6"
    (Printf.sprintf "Table 6 (Definition 1 vs Definition 2, K = %d)"
       t.options.k2)
    (fun () -> table6 t);
  if t.options.metrics then print_metrics t;
  finish t;
  if failures t <> [] then begin
    Printf.eprintf "%d unit(s) failed:\n" (List.length (failures t));
    List.iter
      (fun (label, failure) ->
        Printf.eprintf "  %s: %s\n" label (Supervise.describe failure))
      (failures t);
    flush stderr
  end

let main args =
  match parse_args_result args with
  | Error message ->
    prerr_endline message;
    2
  | Ok options -> (
    match create options with
    | exception Failure message ->
      prerr_endline message;
      2
    | exception ((Sys_error _ | Unix.Unix_error _) as e) ->
      (* An unusable --trace file or --checkpoint directory. *)
      prerr_endline (Ndetect_util.Error.to_string (Ndetect_util.Error.of_exn e));
      2
    | t ->
      (* On SIGTERM the in-flight supervised unit unwinds at its next
         poll point and every remaining unit returns Skipped; finished
         circuits were checkpointed atomically as they completed, so
         there is nothing else to flush. *)
      Supervise.install_sigterm ();
      run_all t;
      if Supervise.terminating () then Supervise.sigterm_exit_code
      else if failures t <> [] then 3
      else 0)
