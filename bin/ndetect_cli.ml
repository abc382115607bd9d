(* ndetect: command-line interface to the n-detection analysis library.

   Subcommands: list, analyze, average, atpg, tables, check, synth,
   dot, evaluate, partition, transition, equiv, scoap, serve,
   client. *)

module Netlist = Ndetect_circuit.Netlist
module Dot = Ndetect_circuit.Dot
module Bench_format = Ndetect_netparse.Bench_format
module Kiss2 = Ndetect_netparse.Kiss2
module Encode = Ndetect_synth.Encode
module Fsm_synth = Ndetect_synth.Fsm_synth
module Multilevel = Ndetect_synth.Multilevel
module Stuck = Ndetect_faults.Stuck
module Analysis = Ndetect_core.Analysis
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Average_case = Ndetect_core.Average_case
module Registry = Ndetect_suite.Registry
module Paper_tables = Ndetect_report.Paper_tables
module Ascii_table = Ndetect_report.Ascii_table
module Ndet_atpg = Ndetect_tgen.Ndet_atpg
module Driver = Ndetect_harness.Driver
module Api = Ndetect_harness.Api
module Rpc = Ndetect_harness.Rpc
module Serve = Ndetect_harness.Serve
module Telemetry = Ndetect_util.Telemetry
module Campaign = Ndetect_check.Campaign
module Ref_estimate = Ndetect_check.Ref_estimate
module Supervise = Ndetect_util.Supervise
open Cmdliner

(* A circuit argument is a suite name or a .bench / .kiss2 / .pla /
   .blif file (chosen by extension; anything else parses as .bench).
   Resolution lives in {!Api.load_source} — shared with the daemon —
   so a malformed or unreadable file reports filename and line instead
   of an uncaught exception. *)
let load_circuit ?scheme spec =
  Api.load_source ?scheme (Api.source_of_spec spec)

let circuit_arg =
  let doc =
    "Circuit to analyze: a suite benchmark name (see $(b,ndetect list)) or \
     a netlist/FSM file (.bench, .kiss2, .pla, .blif)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let scheme_arg =
  let parse s =
    match Encode.of_string s with
    | Some scheme -> Ok scheme
    | None -> Error (`Msg (Printf.sprintf "unknown encoding %s" s))
  in
  let print ppf s = Format.pp_print_string ppf (Encode.to_string s) in
  let scheme_conv = Arg.conv (parse, print) in
  Arg.(
    value
    & opt scheme_conv Encode.Binary
    & info [ "encoding" ] ~docv:"SCHEME"
        ~doc:"State encoding: binary, gray or one-hot.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* list *)

let list_cmd =
  let run () =
    let rows =
      List.map
        (fun e ->
          let dims =
            match e.Registry.source with
            | Registry.Kiss2_text _ -> "classic (embedded KISS2)"
            | Registry.Bench_text _ -> "combinational (embedded .bench)"
            | Registry.Synthetic { inputs; outputs; states; products } ->
              Printf.sprintf "i=%d o=%d s=%d p=%d" inputs outputs states
                products
          in
          [
            e.Registry.name; Registry.tier_name e.Registry.tier;
            string_of_int (Registry.pi_count e); dims;
          ])
        Registry.all
    in
    print_string
      (Ascii_table.render
         ~header:[ "circuit"; "tier"; "PI"; "dimensions" ]
         ~align:
           [ Ascii_table.Left; Ascii_table.Left; Ascii_table.Right;
             Ascii_table.Left ]
         rows)
  in
  let doc = "List the embedded benchmark suite." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* analyze / average / client build their [Api.Request.t] straight from
   the typed flags and check it with [Api.Request.validate], the rule the
   serve daemon applies to the same request. analyze and average then
   funnel through [Api.run], like bin/reproduce and the daemon (whose
   answers are byte-identical by construction). *)

let usage_error message =
  prerr_endline message;
  exit 2

(* A count the library rejects below 1 (with an Invalid_argument), as a
   usage error naming the flag, before any work starts. *)
let require_positive flag n =
  if n < 1 then
    usage_error (Printf.sprintf "%s expects an integer >= 1, got %d" flag n)

(* [validate]'s error names a request field; [flags] maps each field to
   the flag that set it, so the usage error names what the user
   typed. *)
let validate_or_exit ~flags req =
  match Api.Request.validate req with
  | Ok req -> req
  | Error message -> (
    match
      Option.bind
        (Scanf.sscanf_opt message "request field %S" Fun.id)
        (fun field -> List.assoc_opt field flags)
    with
    | Some flag -> usage_error (flag ^ ": " ^ message)
    | None -> usage_error message)

let run_request_exit req =
  match Api.run req with
  | Error message ->
    prerr_endline message;
    exit 1
  | Ok resp ->
    print_string (Api.Response.render resp);
    if resp.Api.Response.failures <> [] then exit 3

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Wall-clock budget per supervised unit.")

let table_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "table-cache" ] ~docv:"DIR"
        ~doc:"Detection-table cache directory.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N" ~doc:"Procedure-1 worker domains.")

(* Sampled-universe mode, shared by analyze/average/client
   through [universe_of_flags]. *)
let samples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "samples" ] ~docv:"N"
        ~doc:
          "Estimate from N stratified random vectors (with confidence \
           intervals) instead of enumerating all 2^PI.")

let strata_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "strata" ] ~docv:"N"
        ~doc:"Sampling strata (requires --samples; default 16).")

let confidence_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "confidence" ] ~docv:"P"
        ~doc:
          "Interval confidence, strictly between 0 and 1 (requires \
           --samples; default 0.95).")

(* The universe the three sampled-mode flags denote; the bounds on the
   spec are [Estimate.Spec.make]'s. *)
let universe_of_flags samples strata confidence =
  match samples with
  | None ->
    if strata <> None then usage_error "--strata requires --samples"
    else if confidence <> None then
      usage_error "--confidence requires --samples"
    else Api.Request.Exhaustive
  | Some samples -> (
    match Api.Estimate.Spec.make ?strata ?confidence ~samples () with
    | Ok spec -> Api.Request.Sampled spec
    | Error message -> usage_error ("--samples: " ^ message))

let analyze_run spec scheme timeout cache_dir domains samples strata
    confidence =
  let universe = universe_of_flags samples strata confidence in
  Api.Request.make ~universe ~scheme ?domains ?cache_dir ?deadline:timeout
    ~label:spec (Api.source_of_spec spec)
  |> validate_or_exit
       ~flags:[ ("deadline", "--timeout"); ("domains", "--domains") ]
  |> run_request_exit

let analyze_cmd =
  let doc = "Worst-case analysis: guaranteed bridging-fault coverage vs n." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const analyze_run $ circuit_arg $ scheme_arg $ timeout_arg
      $ table_cache_arg $ domains_arg $ samples_arg $ strata_arg
      $ confidence_arg)

(* average *)

let average_run spec scheme k nmax def2 seed timeout cache_dir domains
    samples strata confidence =
  let universe = universe_of_flags samples strata confidence in
  (* --sets is K for the section it runs; the other count keeps its
     default. *)
  let section, k, k2, k_field =
    if def2 then (Api.Request.Average_def2, None, Some k, "k2")
    else (Api.Request.Average, Some k, None, "k")
  in
  Api.Request.make ~sections:[ section ] ~universe ?k ?k2 ~nmax ~seed ~scheme
    ?domains ?cache_dir ?deadline:timeout ~label:spec
    (Api.source_of_spec spec)
  |> validate_or_exit
       ~flags:
         [ (k_field, "--sets"); ("nmax", "--nmax"); ("deadline", "--timeout");
           ("domains", "--domains") ]
  |> run_request_exit

let average_cmd =
  let k =
    Arg.(
      value & opt int 1000
      & info [ "k"; "sets" ] ~docv:"K" ~doc:"Number of random test sets.")
  in
  let nmax =
    Arg.(
      value & opt int 10
      & info [ "nmax" ] ~docv:"N" ~doc:"Largest number of detections.")
  in
  let def2 =
    Arg.(
      value & flag
      & info [ "def2" ]
          ~doc:
            "Compare Definition 1 against Definition 2 \
             (pairwise-different tests).")
  in
  let doc =
    "Average-case analysis: probability that an arbitrary n-detection test \
     set detects each hard fault (Procedure 1)."
  in
  Cmd.v
    (Cmd.info "average" ~doc)
    Term.(
      const average_run $ circuit_arg $ scheme_arg $ k $ nmax $ def2
      $ seed_arg $ timeout_arg $ table_cache_arg $ domains_arg
      $ samples_arg $ strata_arg $ confidence_arg)

(* atpg *)

let atpg_run spec scheme n seed =
  require_positive "-n" n;
  match load_circuit ~scheme spec with
  | Error message ->
    prerr_endline message;
    exit 1
  | Ok net ->
    let faults = Stuck.collapse net in
    let report = Ndet_atpg.generate ~seed net ~n faults in
    Printf.printf "generated %d tests for %d collapsed faults (n = %d)\n"
      (Array.length report.Ndet_atpg.tests)
      (Array.length faults) n;
    let count flags =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 flags
    in
    Printf.printf "untestable: %d, aborted: %d\n"
      (count report.Ndet_atpg.untestable)
      (count report.Ndet_atpg.aborted);
    Array.iteri
      (fun i v -> Printf.printf "t%-3d %d\n" i v)
      report.Ndet_atpg.tests

let atpg_cmd =
  let n =
    Arg.(
      value & opt int 1
      & info [ "n" ] ~docv:"N" ~doc:"Detections required per fault.")
  in
  let doc = "Generate an n-detection test set with PODEM." in
  Cmd.v
    (Cmd.info "atpg" ~doc)
    Term.(const atpg_run $ circuit_arg $ scheme_arg $ n $ seed_arg)

(* evaluate *)

(* Test vectors, one per line: a decimal vector value or a 0/1 bit string
   (MSB first, input order). Blank lines and '#' comments are skipped. *)
let read_vectors net path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let pi = Netlist.input_count net in
      let vectors = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           incr lineno;
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             let v =
               if String.length line = pi
                  && String.for_all (fun c -> c = '0' || c = '1') line
               then
                 String.fold_left
                   (fun acc c -> (acc lsl 1) lor if c = '1' then 1 else 0)
                   0 line
               else
                 match int_of_string_opt line with
                 | Some v when v >= 0 && (pi >= 62 || v < 1 lsl pi) -> v
                 | Some _ | None ->
                   failwith
                     (Printf.sprintf "%s:%d: bad vector %S" path !lineno line)
             in
             vectors := v :: !vectors
         done
       with End_of_file -> ());
      Array.of_list (List.rev !vectors))

let evaluate_run spec scheme vectors_path n def2 =
  require_positive "-n" n;
  match load_circuit ~scheme spec with
  | Error message ->
    prerr_endline message;
    exit 1
  | Ok net ->
    let vectors = read_vectors net vectors_path in
    if Array.length vectors = 0 then begin
      prerr_endline "no vectors in file";
      exit 1
    end;
    let ev = Ndetect_core.Test_eval.evaluate net ~vectors in
    let module Test_eval = Ndetect_core.Test_eval in
    Printf.printf "vectors: %d (after deduplication)\n"
      (Array.length (Test_eval.vectors ev));
    Printf.printf "stuck-at coverage:  %.2f%% of %d collapsed faults\n"
      (Test_eval.stuck_coverage ev)
      (Test_eval.target_count ev);
    Printf.printf "bridging coverage:  %.2f%% of %d four-way faults\n"
      (Test_eval.bridge_coverage ev)
      (Test_eval.untargeted_count ev);
    Printf.printf "n-detection check (n = %d, %s): %s\n" n
      (if def2 then "Definition 2" else "Definition 1")
      (if Test_eval.is_n_detection ev ~n ~def2 then "PASS" else "FAIL");
    let counts =
      if def2 then Test_eval.detections_def2 ev
      else Test_eval.detections_def1 ev
    in
    let histogram = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        let key = min c n in
        Hashtbl.replace histogram key
          (1 + Option.value (Hashtbl.find_opt histogram key) ~default:0))
      counts;
    Printf.printf "detections per target fault (capped at n):\n";
    for c = 0 to n do
      match Hashtbl.find_opt histogram c with
      | Some k ->
        Printf.printf "  %s%d detections: %d faults\n"
          (if c = n then ">= " else "")
          c k
      | None -> ()
    done;
    let dl = Ndetect_core.Defect_level.compute net ~vectors in
    Printf.printf
      "defect-level model: escape probability %.4f (q = 0.4), weakest site \
       observed %d times\n"
      (Ndetect_core.Defect_level.escape_probability dl)
      (Ndetect_core.Defect_level.min_observations dl)

let evaluate_cmd =
  let vectors_path =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"VECTORS"
          ~doc:"File of test vectors (decimal values or 0/1 strings).")
  in
  let n =
    Arg.(
      value & opt int 1
      & info [ "n" ] ~docv:"N" ~doc:"Check for n detections per fault.")
  in
  let def2 =
    Arg.(
      value & flag
      & info [ "def2" ] ~doc:"Count detections under Definition 2.")
  in
  let doc =
    "Evaluate an explicit test set: fault coverage, per-fault detection \
     counts, defect-level estimate. Works for circuits too large for the \
     exhaustive analysis."
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc)
    Term.(
      const evaluate_run $ circuit_arg $ scheme_arg $ vectors_path $ n $ def2)

(* partition *)

let partition_run spec scheme max_inputs =
  require_positive "--max-inputs" max_inputs;
  match load_circuit ~scheme spec with
  | Error message ->
    prerr_endline message;
    exit 1
  | Ok net ->
    let module Partition = Ndetect_core.Partition in
    let results = Partition.analyze ~max_inputs ~name:spec net in
    Printf.printf "%d blocks analyzed (max support %d)\n\n"
      (List.length results) max_inputs;
    List.iter
      (fun (block, a) ->
        let s = a.Analysis.summary in
        Printf.printf
          "%-14s outputs=%-3d support=%-3d |F|=%-5d |G|=%-6d max nmin=%s\n"
          s.Analysis.circuit
          (Array.length block.Partition.outputs)
          (Array.length block.Partition.support)
          s.Analysis.target_faults s.Analysis.untargeted_faults
          (match s.Analysis.max_finite_nmin with
          | Some m -> string_of_int m
          | None -> "-"))
      results;
    print_newline ();
    let combined = Partition.combined_summary ~name:(spec ^ "-combined") results in
    print_string (Paper_tables.table2 [ combined ])

let partition_cmd =
  let max_inputs =
    Arg.(
      value & opt int 14
      & info [ "max-inputs" ] ~docv:"N"
          ~doc:"Largest input support per block.")
  in
  let doc =
    "Partition a circuit into output cones and run the worst-case analysis \
     per block (the paper's Section 4 recipe for large designs)."
  in
  Cmd.v
    (Cmd.info "partition" ~doc)
    Term.(const partition_run $ circuit_arg $ scheme_arg $ max_inputs)

(* equiv *)

let equiv_run spec1 spec2 scheme =
  match load_circuit ~scheme spec1, load_circuit ~scheme spec2 with
  | Error m, _ | _, Error m ->
    prerr_endline m;
    exit 1
  | Ok left, Ok right ->
    let result = Ndetect_circuit.Equiv.check left right in
    Format.printf "%a@." Ndetect_circuit.Equiv.pp_result result;
    (match result with
    | Ndetect_circuit.Equiv.Equivalent -> ()
    | Ndetect_circuit.Equiv.Counterexample _
    | Ndetect_circuit.Equiv.Interface_mismatch _ ->
      exit 1)

let equiv_cmd =
  let spec2 =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CIRCUIT2" ~doc:"Second circuit.")
  in
  let doc = "Exhaustive combinational equivalence check of two circuits." in
  Cmd.v
    (Cmd.info "equiv" ~doc)
    Term.(const equiv_run $ circuit_arg $ spec2 $ scheme_arg)

(* scoap *)

let scoap_run spec scheme worst_count =
  match load_circuit ~scheme spec with
  | Error message ->
    prerr_endline message;
    exit 1
  | Ok net ->
    let module Scoap = Ndetect_circuit.Scoap in
    let module Line = Ndetect_circuit.Line in
    let s = Scoap.compute net in
    let lines = Line.enumerate net in
    let rows =
      Array.to_list lines
      |> List.map (fun line ->
           let driver = Line.driver net line in
           let eff v = Scoap.fault_effort s line ~value:v in
           ( max (eff false) (eff true),
             [
               Line.to_string net line;
               string_of_int (Scoap.cc0 s driver);
               string_of_int (Scoap.cc1 s driver);
               string_of_int (Scoap.line_co s line);
               string_of_int (eff false);
               string_of_int (eff true);
             ] ))
      |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
    in
    let rows =
      (if worst_count > 0 then List.filteri (fun i _ -> i < worst_count) rows
       else rows)
      |> List.map snd
    in
    Printf.printf "SCOAP testability (worst lines first):\n";
    print_string
      (Ascii_table.render
         ~header:[ "line"; "cc0"; "cc1"; "co"; "effort sa0"; "effort sa1" ]
         rows)

let scoap_cmd =
  let worst =
    Arg.(
      value & opt int 20
      & info [ "worst" ] ~docv:"N"
          ~doc:"Show only the N hardest lines (0 = all).")
  in
  let doc = "SCOAP controllability/observability report." in
  Cmd.v
    (Cmd.info "scoap" ~doc)
    Term.(const scoap_run $ circuit_arg $ scheme_arg $ worst)

(* transition *)

let transition_run spec scheme =
  match load_circuit ~scheme spec with
  | Error message ->
    prerr_endline message;
    exit 1
  | Ok net ->
    let module Transition_analysis = Ndetect_core.Transition_analysis in
    let stuck = Analysis.analyze ~name:spec net in
    let transition = Transition_analysis.compute net in
    Printf.printf
      "targets: %d transition faults (vs %d stuck-at); %d untargeted \
       bridging faults\n\n"
      (Transition_analysis.target_count transition)
      stuck.Analysis.summary.Analysis.target_faults
      (Transition_analysis.untargeted_count transition);
    let thresholds = [ 1; 2; 5; 10; 100; 1000; 10000 ] in
    let row label value = label :: List.map value thresholds in
    print_string
      (Ascii_table.render
         ~header:("guaranteed %" :: List.map string_of_int thresholds)
         [
           row "stuck-at n-detect" (fun n ->
               Printf.sprintf "%.2f"
                 (Worst_case.percent_below stuck.Analysis.worst n));
           row "transition n-detect" (fun n ->
               Printf.sprintf "%.2f"
                 (Transition_analysis.percent_below transition n));
         ]);
    match
      ( Worst_case.max_finite_nmin stuck.Analysis.worst,
        Transition_analysis.max_finite_nmin transition )
    with
    | Some s, Some t ->
      Printf.printf
        "\nfull guarantee: n = %d (stuck-at) vs n = %d (transition)\n" s t
    | _ -> ()

let transition_cmd =
  let doc =
    "Worst-case analysis with transition-fault (two-pattern) n-detection \
     targets."
  in
  Cmd.v
    (Cmd.info "transition" ~doc)
    Term.(const transition_run $ circuit_arg $ scheme_arg)

(* tables *)

(* `ndetect tables` is bin/reproduce: the arguments after [tables] go to
   [Driver.main] verbatim (see the dispatch at the bottom), so the flag
   grammar, validation and exit codes cannot diverge. Cmdliner would
   not do: it reads a one-letter name such as [k] as [-k], and then
   prefix-matches [--k] to [--k2]. This entry lists the subcommand in
   --help and accepts the flags after a [--]. *)
let tables_cmd =
  let args =
    Arg.(value & pos_all string [] & info [] ~docv:"FLAG" ~doc:"As reproduce.")
  in
  let doc = "Reproduce the paper's tables and figures (reproduce's flags)." in
  Cmd.v
    (Cmd.info "tables" ~doc)
    Term.(const (fun args -> Stdlib.exit (Driver.main args)) $ args)

(* check *)

let check_run circuits seed max_pi mutate estimate samples confidence =
  if estimate then begin
    (* Calibration mode: sampled intervals against the exhaustive
       oracle; --mutate biases the sampler instead of flipping a table
       bit, and must likewise be caught. *)
    let report =
      try
        Ref_estimate.run ~mutate ~samples
          ?confidence:
            (match confidence with c when c > 0.0 -> Some c | _ -> None)
          ~trials:circuits ~seed ~max_pi ()
      with Invalid_argument message ->
        prerr_endline message;
        exit 2
    in
    print_string (Ref_estimate.render report);
    let caught = Ref_estimate.failed report in
    if mutate && not caught then begin
      prerr_endline
        "check --estimate --mutate: the biased sampler was NOT caught \
         (checker is broken)";
      exit 1
    end;
    if (not mutate) && caught then exit 1
  end
  else begin
    (* The paper's small-tier circuits first, then the random campaign;
       --mutate must be caught by both. The campaign's bounds are checked
       before the sweep, not after it. *)
    require_positive "--circuits" circuits;
    if max_pi < 1 || max_pi > Campaign.max_pi_limit then
      usage_error
        (Printf.sprintf "--max-pi expects an integer in 1..%d, got %d"
           Campaign.max_pi_limit max_pi);
    let suite = Campaign.check_suite ~mutate () in
    print_string (Campaign.render_suite suite);
    let report =
      try Campaign.run ~mutate ~circuits ~seed ~max_pi ()
      with Invalid_argument message ->
        prerr_endline message;
        exit 2
    in
    print_string (Campaign.render report);
    let suite_divergent = suite.Campaign.divergent <> [] in
    let divergent = report.Campaign.failures <> [] in
    if mutate && not (suite_divergent && divergent) then begin
      prerr_endline
        (Printf.sprintf
           "check --mutate: the injected bug was NOT caught by the %s \
            (checker is broken)"
           (if suite_divergent then "random campaign" else "small-tier check"));
      exit 1
    end;
    if (not mutate) && (suite_divergent || divergent) then exit 1
  end

let check_cmd =
  let circuits =
    Arg.(
      value & opt int 200
      & info [ "circuits" ] ~docv:"N" ~doc:"Random circuits to cross-check.")
  in
  let max_pi =
    Arg.(
      value & opt int 6
      & info [ "max-pi" ] ~docv:"N"
          ~doc:"Largest primary-input count (the oracle is exhaustive).")
  in
  let mutate =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Self-test: flip one bit of one optimized detection set per \
             circuit, small-tier and random alike (or bias the sampler \
             under $(b,--estimate)), and require the checker to report \
             it.")
  in
  let estimate =
    Arg.(
      value & flag
      & info [ "estimate" ]
          ~doc:
            "Calibration mode: check that exhaustive N(f)/nmin(g) fall \
             inside the sampled confidence intervals at the nominal rate.")
  in
  let samples =
    Arg.(
      value & opt int 400
      & info [ "samples" ] ~docv:"N"
          ~doc:"Sample size per circuit (with $(b,--estimate)).")
  in
  let confidence =
    Arg.(
      value & opt float 0.0
      & info [ "confidence" ] ~docv:"P"
          ~doc:
            "Interval confidence (with $(b,--estimate); 0 keeps the \
             default 0.95).")
  in
  let doc =
    "Differential check: rebuild every small-tier circuit's detection \
     table against per-fault simulation and a reference popcount kernel, \
     then run the optimized analyses and a brute-force reference side by \
     side on random circuits, diff every table cell, and shrink any \
     divergence to a minimal reproducer."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const check_run $ circuits $ seed_arg $ max_pi $ mutate $ estimate
      $ samples $ confidence)

(* synth *)

let synth_run file scheme out format =
  match Kiss2.parse_file_result file with
  | Error (`Parse d) ->
    prerr_endline (Ndetect_netparse.Diagnostic.to_string ~file d);
    exit 1
  | Error (`Io message) ->
    Printf.eprintf "%s: %s\n" file message;
    exit 1
  | Ok fsm ->
    let net = Multilevel.decompose (Fsm_synth.synthesize ~scheme fsm) in
    let text =
      match format with
      | "bench" -> Bench_format.print net
      | "blif" -> Ndetect_netparse.Blif.print net ()
      | "verilog" -> Ndetect_netparse.Verilog.print net
      | other ->
        Printf.eprintf "unknown format %s (bench, blif, verilog)\n" other;
        exit 2
    in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "wrote %s (%a)@." path Netlist.pp_stats
        (Netlist.stats net)
    | None -> print_string text)

let synth_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.kiss2" ~doc:"KISS2 FSM description.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let format =
    Arg.(
      value & opt string "bench"
      & info [ "format" ] ~docv:"FMT" ~doc:"bench, blif or verilog.")
  in
  let doc = "Synthesize an FSM's combinational logic to a netlist." in
  Cmd.v
    (Cmd.info "synth" ~doc)
    Term.(const synth_run $ file $ scheme_arg $ out $ format)

(* dot *)

let dot_run spec scheme out =
  match load_circuit ~scheme spec with
  | Error message ->
    prerr_endline message;
    exit 1
  | Ok net ->
    (match out with
    | Some path ->
      Dot.write_file net ~path;
      Printf.printf "wrote %s\n" path
    | None -> print_string (Dot.to_dot net))

let dot_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .dot path.")
  in
  let doc = "Export a circuit as Graphviz DOT." in
  Cmd.v
    (Cmd.info "dot" ~doc)
    Term.(const dot_run $ circuit_arg $ scheme_arg $ out)

(* serve / client *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path (keep it short: the OS caps \
           sockaddr_un at ~104 bytes).")

let serve_run socket cache_dir queue_capacity resident_mb trace quiet inject =
  (match inject with
  | None -> ()
  | Some spec -> (
    match Supervise.parse_injection_spec spec with
    | Ok plan -> Supervise.set_injection plan
    | Error message ->
      prerr_endline message;
      exit 2));
  Supervise.install_sigterm ();
  let sink = Option.map (fun path -> Telemetry.Jsonl.attach ~path) trace in
  let config =
    {
      (Serve.default_config ~socket) with
      Serve.cache_dir;
      queue_capacity;
      resident_budget = resident_mb * 1024 * 1024;
      quiet;
    }
  in
  let code = Serve.run config in
  match Option.iter Telemetry.Jsonl.detach sink with
  | () -> exit code
  | exception Sys_error message ->
    prerr_endline
      (Printf.sprintf "trace %s: %s" (Option.value trace ~default:"") message);
    exit (if code = 0 then 3 else code)

let serve_cmd =
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "table-cache" ] ~docv:"DIR"
          ~doc:
            "Detection-table cache directory; also backs the resident \
             table store.")
  in
  let queue =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity; further requests get a structured \
             overloaded response.")
  in
  let resident_mb =
    Arg.(
      value & opt int 256
      & info [ "resident-mb" ] ~docv:"MB"
          ~doc:"Resident detection-table budget (LRU-evicted past it).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Stream the daemon's own ndetect-trace/1 telemetry to FILE \
             (sealed with the counters footer on shutdown).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress lifecycle lines.")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:"Fault-injection plan (for tests), as in reproduce.")
  in
  let doc =
    "Run the batched analysis daemon: ndetect-rpc/1 over a Unix-domain \
     socket, request deduplication, bounded admission, resident \
     detection tables, per-request telemetry streaming. SIGTERM drains \
     and exits 0."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"when the daemon cannot listen on its socket."
    :: Cmd.Exit.info 2 ~doc:"on a malformed $(b,--inject) plan."
    :: Cmd.Exit.info 3
         ~doc:
           "when the daemon drained but its $(b,--trace) file could not be \
            written (stderr names it as $(i,trace FILE)); the telemetry is \
            lost, the answers served were not affected."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~exits)
    Term.(
      const serve_run $ socket_arg $ cache_dir $ queue $ resident_mb $ trace
      $ quiet $ inject)

let frame_type j = Option.bind (Rpc.member "type" j) Rpc.to_str

let read_hello ic =
  match Rpc.read_frame ic with
  | Error m -> Error ("hello: " ^ m)
  | Ok j when frame_type j = Some "hello" -> (
    match Option.bind (Rpc.member "protocol" j) Rpc.to_str with
    | Some p when String.equal p Rpc.protocol -> Ok ()
    | Some p ->
      Error
        (Printf.sprintf "protocol mismatch: server speaks %s, this client %s"
           p Rpc.protocol)
    | None -> Error "hello frame carries no protocol")
  | Ok _ -> Error "expected a hello frame"

type client_result = {
  render : string;
  remote_failures : int;
  remote_trace : string list;
}

let read_result ic =
  let trace = ref [] in
  let rec loop () =
    match Rpc.read_frame ic with
    | Error m -> Error ("connection lost: " ^ m)
    | Ok j -> (
      match frame_type j with
      | Some "trace" ->
        (match Option.bind (Rpc.member "line" j) Rpc.to_str with
        | Some line -> trace := line :: !trace
        | None -> ());
        loop ()
      | Some "row" | Some "failure" ->
        (* Incremental frames; the final render carries everything. *)
        loop ()
      | Some "done" ->
        Ok
          {
            render =
              Option.value
                (Option.bind (Rpc.member "render" j) Rpc.to_str)
                ~default:"";
            remote_failures =
              Option.value
                (Option.bind (Rpc.member "failures" j) Rpc.to_int)
                ~default:0;
            remote_trace = List.rev !trace;
          }
      | Some "error" ->
        Error
          (Option.value
             (Option.bind (Rpc.member "message" j) Rpc.to_str)
             ~default:"server error")
      | Some "overloaded" ->
        Error "server overloaded (admission queue full); retry later"
      | Some _ | None -> loop ())
  in
  loop ()

(* A .bench file is shipped inline (the daemon need not share a
   filesystem with the client); suite names and the formats needing
   synthesis resolve server-side. *)
let client_source spec =
  match Api.source_of_spec spec with
  | Api.Request.File path
    when Sys.file_exists path
         && not
              (List.exists
                 (Filename.check_suffix path)
                 [ ".kiss2"; ".pla"; ".blif" ]) ->
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Api.Request.Inline_bench text
  | source -> source

let client_run socket stats spec sections k k2 nmax seed deadline domains
    count trace samples strata confidence =
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "cannot connect to %s: %s\n" socket
        (Unix.error_message err);
      exit 1
  in
  let hello_or_die ic =
    match read_hello ic with
    | Ok () -> ()
    | Error m ->
      prerr_endline m;
      exit 1
  in
  if stats then begin
    let ic, oc = connect () in
    hello_or_die ic;
    Rpc.write_frame oc (Rpc.Obj [ ("type", Rpc.Str "stats") ]);
    match Rpc.read_frame ic with
    | Error m ->
      prerr_endline m;
      exit 1
    | Ok j -> (
      match Rpc.member "counters" j with
      | Some (Rpc.Obj members) ->
        List.iter
          (fun (name, v) ->
            match Rpc.to_int v with
            | Some n -> Printf.printf "%-28s %d\n" name n
            | None -> ())
          members
      | _ ->
        prerr_endline "malformed stats frame";
        exit 1)
  end
  else begin
    let spec =
      match spec with
      | Some s -> s
      | None ->
        prerr_endline "client: a CIRCUIT argument is required (or --stats)";
        exit 2
    in
    let sections =
      List.map
        (fun name ->
          match Api.Request.section_of_name (String.trim name) with
          | Some s -> s
          | None ->
            Printf.eprintf
              "unknown section %s (worst, average or average_def2)\n" name;
            exit 2)
        (String.split_on_char ',' sections)
    in
    let universe = universe_of_flags samples strata confidence in
    let req =
      Api.Request.make ~sections ~k ~k2 ~nmax ~seed ?deadline ?domains
        ~universe ~label:spec (client_source spec)
      |> validate_or_exit
           ~flags:
             [ ("k", "--sets"); ("k2", "--k2"); ("nmax", "--nmax");
               ("deadline", "--deadline"); ("domains", "--domains") ]
    in
    let rj = Api.Request.to_json req in
    (* All requests go out before any response is read, so --count 2
       genuinely puts two identical requests in flight at once — the
       daemon answers the duplicate by joining it to the first
       computation (one table build, serve.dedup_joins >= 1). *)
    let conns = List.init count (fun _ -> connect ()) in
    List.iter (fun (ic, _) -> hello_or_die ic) conns;
    List.iter
      (fun (_, oc) ->
        Rpc.write_frame oc
          (Rpc.Obj [ ("type", Rpc.Str "request"); ("request", rj) ]))
      conns;
    let results =
      List.mapi
        (fun i (ic, _) ->
          match read_result ic with
          | Ok r -> r
          | Error m ->
            Printf.eprintf "request %d: %s\n" (i + 1) m;
            exit 1)
        conns
    in
    (match trace with
    | None -> ()
    | Some prefix ->
      List.iteri
        (fun i r ->
          let path =
            if count = 1 then prefix
            else Printf.sprintf "%s.%d" prefix (i + 1)
          in
          let oc = open_out path in
          List.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n')
            r.remote_trace;
          close_out oc)
        results);
    let first = List.hd results in
    print_string first.render;
    List.iteri
      (fun i r ->
        if i > 0 && not (String.equal r.render first.render) then begin
          Printf.eprintf "request %d: render diverged from request 1\n"
            (i + 1);
          exit 1
        end)
      results;
    if List.exists (fun r -> r.remote_failures > 0) results then exit 3
  end

let client_cmd =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the daemon's counters instead of sending a request.")
  in
  let spec =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"CIRCUIT"
          ~doc:
            "Suite benchmark name or netlist file (.bench content is \
             shipped inline).")
  in
  let sections =
    Arg.(
      value & opt string "worst"
      & info [ "sections" ] ~docv:"LIST"
          ~doc:
            "Comma-separated sections: worst, average, average_def2.")
  in
  let k =
    Arg.(
      value & opt int 1000
      & info [ "k"; "sets" ] ~docv:"K" ~doc:"Test sets for average.")
  in
  let k2 =
    Arg.(
      value & opt int 200
      & info [ "k2" ] ~docv:"K" ~doc:"Test sets for average_def2.")
  in
  let nmax =
    Arg.(
      value & opt int 10
      & info [ "nmax" ] ~docv:"N" ~doc:"Largest number of detections.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Per-request budget, counted from admission (queue time \
             included).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N" ~doc:"Procedure-1 worker domains.")
  in
  let count =
    Arg.(
      value & opt int 1
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Send the same request over N concurrent connections \
             (exercises the daemon's deduplication).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write each response's streamed ndetect-trace/1 document to \
             FILE (FILE.i per connection when --count > 1).")
  in
  let doc =
    "Send an analysis request to a running $(b,ndetect serve) daemon and \
     print the response (byte-identical to the local CLI's answer for \
     the same request)."
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const client_run $ socket_arg $ stats $ spec $ sections $ k $ k2
      $ nmax $ seed_arg $ deadline $ domains $ count $ trace $ samples_arg
      $ strata_arg $ confidence_arg)

let main_cmd =
  let doc =
    "worst-case and average-case analysis of n-detection test sets \
     (Pomeranz & Reddy, DATE 2005)"
  in
  Cmd.group
    (Cmd.info "ndetect" ~version:"1.0.0" ~doc)
    [
      list_cmd; analyze_cmd; average_cmd; atpg_cmd; tables_cmd; check_cmd;
      synth_cmd; dot_cmd; evaluate_cmd; partition_cmd; transition_cmd;
      equiv_cmd; scoap_cmd; serve_cmd; client_cmd;
    ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "tables" :: args -> exit (Driver.main args)
  | _ -> exit (Cmd.eval main_cmd)
