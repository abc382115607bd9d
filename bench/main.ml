(* Benchmark harness.

   Running `dune exec bench/main.exe` runs one Bechamel micro-benchmark
   per paper artifact (Tables 1-6, Figure 2) plus ablation benches for
   the design choices called out in DESIGN.md (fault collapsing on/off,
   state encodings, bit-parallel vs naive fault simulation). The paper's
   tables themselves are printed by bin/reproduce; the end-to-end
   workload benchmark lives in e2ebench/.

   Options: --quota-ms N to bound the per-bench measurement budget, and
   --json FILE to append a machine-readable record of every estimate
   (see BENCH_*.json at the repository root for the recorded
   trajectory). *)

open Bechamel
open Toolkit
module Analysis = Ndetect_core.Analysis
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Registry = Ndetect_suite.Registry
module Example = Ndetect_suite.Example
module Encode = Ndetect_synth.Encode
module Fsm_synth = Ndetect_synth.Fsm_synth
module Multilevel = Ndetect_synth.Multilevel
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Naive = Ndetect_sim.Naive

let circuit name = Registry.circuit (Option.get (Registry.find name))

(* Pre-built workloads shared by the timed closures; construction cost is
   excluded from the measurements. *)
let example_table = lazy (Detection_table.build (Example.circuit ()))
let mc_net = lazy (circuit "mc")
let mc_table = lazy (Detection_table.build (Lazy.force mc_net))
let dk27_net = lazy (circuit "dk27")
let dk27_table = lazy (Detection_table.build (Lazy.force dk27_net))
let dk27_good = lazy (Good.compute (Lazy.force dk27_net))
let bbtas_table = lazy (Detection_table.build (circuit "bbtas"))
let ex4_analysis = lazy (Analysis.analyze ~name:"ex4" (circuit "ex4"))

(* One benchmark per paper artifact. Each closure runs the computation
   that regenerates the artifact's data, on a suite circuit small enough
   for a micro-benchmark. *)

let bench_table1 =
  Test.make ~name:"table1-worst-case-example"
    (Staged.stage (fun () ->
         let table = Lazy.force example_table in
         let worst = Worst_case.compute table in
         ignore (Detection_table.overlapping_targets table ~gj:0);
         ignore (Worst_case.nmin worst 0)))

let bench_table2 =
  Test.make ~name:"table2-worst-case-small-n(mc)"
    (Staged.stage (fun () ->
         let worst = Worst_case.compute (Lazy.force mc_table) in
         ignore
           (List.map (Worst_case.percent_below worst) [ 1; 2; 3; 4; 5; 10 ])))

let bench_table3 =
  Test.make ~name:"table3-worst-case-large-n(dk27)"
    (Staged.stage (fun () ->
         let worst = Worst_case.compute (Lazy.force dk27_table) in
         ignore (List.map (Worst_case.count_at_least worst) [ 100; 20; 11 ])))

let bench_figure2 =
  Test.make ~name:"figure2-nmin-distribution(ex4)"
    (Staged.stage (fun () ->
         let a = Lazy.force ex4_analysis in
         ignore (Worst_case.histogram a.Analysis.worst ~min_value:11)))

let bench_table4 =
  Test.make ~name:"table4-procedure1-example(K=10,n=2)"
    (Staged.stage (fun () ->
         ignore
           (Procedure1.run (Lazy.force example_table)
              {
                Procedure1.seed = 1;
                set_count = 10;
                nmax = 2;
                mode = Procedure1.Definition1;
              })))

let bench_table5 =
  Test.make ~name:"table5-average-case(bbtas,K=50)"
    (Staged.stage (fun () ->
         ignore
           (Procedure1.run (Lazy.force bbtas_table)
              {
                Procedure1.seed = 1;
                set_count = 50;
                nmax = 10;
                mode = Procedure1.Definition1;
              })))

(* Ablations (DESIGN.md section 5). *)

let bench_ablation_collapse_on =
  Test.make ~name:"ablation-collapse-on(mc)"
    (Staged.stage (fun () ->
         ignore (Detection_table.build ~collapse:true (Lazy.force mc_net))))

let bench_ablation_collapse_off =
  Test.make ~name:"ablation-collapse-off(mc)"
    (Staged.stage (fun () ->
         ignore (Detection_table.build ~collapse:false (Lazy.force mc_net))))

let lion_fsm = lazy (Registry.fsm (Option.get (Registry.find "lion")))

let bench_encoding scheme =
  Test.make
    ~name:
      (Printf.sprintf "ablation-encoding-%s(lion)" (Encode.to_string scheme))
    (Staged.stage (fun () ->
         let net = Fsm_synth.synthesize ~scheme (Lazy.force lion_fsm) in
         let net = Multilevel.decompose net in
         let table = Detection_table.build net in
         ignore (Worst_case.compute table)))

let bench_sim_parallel =
  Test.make ~name:"sim-bitparallel-stuck(dk27)"
    (Staged.stage (fun () ->
         let good = Lazy.force dk27_good in
         let faults = Stuck.collapse (Lazy.force dk27_net) in
         ignore (Fault_sim.stuck_detection_set good faults.(0))))

let bench_sim_naive =
  Test.make ~name:"sim-naive-stuck(dk27)"
    (Staged.stage (fun () ->
         let net = Lazy.force dk27_net in
         let faults = Stuck.collapse net in
         ignore (Naive.stuck_detection_set net faults.(0))))

(* Sampled-universe table build: mc analyzed from 200 stratified
   random vectors instead of the full 2^PI enumeration.
   Small circuits make sampling a constant-factor loss (the sample
   exceeds the universe); the payoff column is the wide-PI netlist in
   BENCH_PR10.json, where enumeration is infeasible. *)
let sampled_spec =
  lazy
    (match
       Ndetect_estimate.Estimate.Spec.make ~samples:200 ~strata:8 ()
     with
    | Ok spec -> spec
    | Error message -> failwith message)

let bench_table_build_sampled =
  Test.make ~name:"table-build-sampled(mc)"
    (Staged.stage (fun () ->
         ignore
           (Ndetect_estimate.Estimate.analyze ~spec:(Lazy.force sampled_spec)
              ~seed:1 ~name:"mc" (Lazy.force mc_net))))

let bench_bridge_sim =
  Test.make ~name:"sim-bridge-enumerate+simulate(mc)"
    (Staged.stage (fun () ->
         let net = Lazy.force mc_net in
         let good = Good.compute net in
         ignore (Fault_sim.bridge_detection_sets good (Bridge.enumerate net))))

let bench_untargeted_model model name =
  Test.make ~name:(Printf.sprintf "ablation-untargeted-%s(mc)" name)
    (Staged.stage (fun () ->
         let table = Detection_table.build ~model (Lazy.force mc_net) in
         ignore (Worst_case.compute table)))

let bench_transition =
  Test.make ~name:"extension-transition-analysis(mc)"
    (Staged.stage (fun () ->
         ignore (Ndetect_core.Transition_analysis.compute (Lazy.force mc_net))))

let bench_defect_level =
  Test.make ~name:"extension-defect-level(mc,32 tests)"
    (Staged.stage (fun () ->
         let net = Lazy.force mc_net in
         let vectors = Array.init 32 (fun i -> i * 7 mod 256) in
         let dl = Ndetect_core.Defect_level.compute net ~vectors in
         ignore (Ndetect_core.Defect_level.defect_level dl)))

let bench_dictionary =
  Test.make ~name:"extension-diagnosis-dictionary(mc,16 tests)"
    (Staged.stage (fun () ->
         let net = Lazy.force mc_net in
         let faults = Stuck.collapse net in
         let vectors = Array.init 16 (fun i -> i * 2) in
         ignore (Ndetect_diag.Dictionary.build net ~vectors ~faults)))

let bench_partition =
  Test.make ~name:"extension-partition-analysis(mc)"
    (Staged.stage (fun () ->
         ignore
           (Ndetect_core.Partition.analyze ~max_inputs:4 ~name:"mc"
              (Lazy.force mc_net))))

module Table_cache = Ndetect_harness.Table_cache

(* Table cache: cold = fault-simulate and persist, warm = restore from
   disk through the zero-copy mmap path. Their ratio is the speedup
   --table-cache buys per circuit. *)

let make_cache_dir net table =
  let dir = Filename.temp_file "ndetect-bench-cache" "" in
  Sys.remove dir;
  Ndetect_harness.Fs.mkdir_recursive dir;
  (* Seed the entry so the warm bench hits regardless of ordering. *)
  Table_cache.store ~dir ~key:(Table_cache.key net) table;
  dir

let cache_dir = lazy (make_cache_dir (Lazy.force mc_net) (Lazy.force mc_table))

(* The mmap payoff scales with the words section, so the warm load
   also runs on a large-universe circuit (log: universe 16384, ~13 MB
   table) where detection-set words dominate the file — mc's 32-vector
   universe is all metadata. The build sits inside the lazy so the
   (large) table becomes garbage as soon as the directory is written —
   a live multi-megabyte table would tax every GC in the whole suite. *)
let log_net = lazy (circuit "log")

let log_cache_dir =
  lazy
    (let net = Lazy.force log_net in
     make_cache_dir net (Detection_table.build net))

let bench_table_cache_cold =
  Test.make ~name:"table-cache-cold(mc)"
    (Staged.stage (fun () ->
         let dir = Lazy.force cache_dir in
         let net = Lazy.force mc_net in
         Table_cache.store ~dir ~key:(Table_cache.key net)
           (Detection_table.build net)))

let bench_table_cache_warm_mmap =
  Test.make ~name:"table-cache-warm-mmap(mc)"
    (Staged.stage (fun () ->
         let dir = Lazy.force cache_dir in
         let net = Lazy.force mc_net in
         match Table_cache.load ~dir ~key:(Table_cache.key net) net with
         | Some _ -> ()
         | None -> failwith "table-cache-warm-mmap: expected a hit"))

let bench_table_cache_warm_mmap_log =
  Test.make ~name:"table-cache-warm-mmap(log)"
    (Staged.stage (fun () ->
         let dir = Lazy.force log_cache_dir in
         let net = Lazy.force log_net in
         match Table_cache.load ~dir ~key:(Table_cache.key net) net with
         | Some _ -> ()
         | None -> failwith "table-cache-warm-mmap(log): expected a hit"))

let all_benches =
  Test.make_grouped ~name:"ndetect"
    [
      bench_table1;
      bench_table2;
      bench_table3;
      bench_figure2;
      bench_table4;
      bench_table5;
      bench_ablation_collapse_on;
      bench_ablation_collapse_off;
      bench_encoding Encode.Binary;
      bench_encoding Encode.Gray;
      bench_encoding Encode.One_hot;
      bench_sim_parallel;
      bench_sim_naive;
      bench_table_build_sampled;
      bench_bridge_sim;
      bench_untargeted_model Detection_table.Four_way "four-way";
      bench_untargeted_model
        (Detection_table.Wired Ndetect_faults.Wired.Wired_and)
        "wired-and";
      bench_untargeted_model
        (Detection_table.Wired Ndetect_faults.Wired.Wired_or)
        "wired-or";
      bench_transition;
      bench_defect_level;
      bench_dictionary;
      bench_partition;
      bench_table_cache_cold;
      bench_table_cache_warm_mmap;
      bench_table_cache_warm_mmap_log;
    ]

let run_perf ~quota_ms () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances =
    Instance.[ minor_allocated; major_allocated; monotonic_clock ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (float_of_int quota_ms /. 1000.0))
      ~stabilize:true ~compaction:false ()
  in
  (* Seed the warm-cache directories (and the circuit tables they
     embed) outside the measured window: the first iteration of a warm
     bench must not absorb a multi-second lazy table build. Compact
     afterwards so the transient seeding garbage cannot tax the
     measured benches. *)
  ignore (Sys.opaque_identity (Lazy.force cache_dir));
  ignore (Sys.opaque_identity (Lazy.force log_cache_dir));
  Gc.compact ();
  let raw_results = Benchmark.all cfg instances all_benches in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window
    ~predictor:Measure.run results

open Notty_unix

let print_perf results =
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ minor_allocated; major_allocated; monotonic_clock ];
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  img (window, results) |> eol |> output_image

(* Machine-readable export: one record per benchmark with the OLS
   per-run estimate of every measured instance. The schema is validated
   as part of `dune runtest` (bench/validate_bench_json.ml), so the
   emitter cannot rot silently. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6f" f else "null"

(* [results] maps measure label -> (benchmark name -> OLS result); the
   per-run estimate is the coefficient of the [run] predictor. *)
let estimate_of results ~label ~name =
  match Hashtbl.find_opt results label with
  | None -> None
  | Some by_name -> (
    match Hashtbl.find_opt by_name name with
    | None -> None
    | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> Some (e, Analyze.OLS.r_square ols)
      | Some [] | None -> None))

let bench_names results =
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> []
  | Some by_name ->
    Hashtbl.fold (fun name _ acc -> name :: acc) by_name []
    |> List.sort String.compare

let perf_json ~quota_ms results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"ndetect-bench/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"quota_ms\": %d,\n" quota_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"domains_available\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"benchmarks\": [";
  let field label name key =
    match estimate_of results ~label ~name with
    | None -> Printf.sprintf "\"%s\": null" key
    | Some (e, _) -> Printf.sprintf "\"%s\": %s" key (json_float e)
  in
  let clock_label = Measure.label Instance.monotonic_clock in
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {\n";
      Buffer.add_string buf
        (Printf.sprintf "      \"name\": \"%s\",\n" (json_escape name));
      Buffer.add_string buf
        (Printf.sprintf "      %s,\n"
           (field clock_label name "monotonic_clock_ns_per_run"));
      Buffer.add_string buf
        (Printf.sprintf "      %s,\n"
           (field
              (Measure.label Instance.minor_allocated)
              name "minor_allocated_per_run"));
      Buffer.add_string buf
        (Printf.sprintf "      %s,\n"
           (field
              (Measure.label Instance.major_allocated)
              name "major_allocated_per_run"));
      let r2 =
        match estimate_of results ~label:clock_label ~name with
        | Some (_, Some r2) -> json_float r2
        | Some (_, None) | None -> "null"
      in
      Buffer.add_string buf (Printf.sprintf "      \"r_square\": %s\n" r2);
      Buffer.add_string buf "    }")
    (bench_names results);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write_json ~path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  Printf.printf "[wrote %s]\n%!" path

let bench_usage = "usage: main [--json FILE] [--quota-ms N]"

let bad_usage message =
  prerr_endline message;
  prerr_endline bench_usage;
  exit 2

let () =
  let rec parse (json, quota_ms) = function
    | [] -> (json, quota_ms)
    | [ "--json" ] -> bad_usage "--json requires a value"
    | "--json" :: file :: tl -> parse (Some file, quota_ms) tl
    | [ "--quota-ms" ] -> bad_usage "--quota-ms requires a value"
    | "--quota-ms" :: v :: tl -> (
      match int_of_string_opt v with
      | Some q when q > 0 -> parse (json, q) tl
      | Some _ | None ->
        bad_usage
          (Printf.sprintf "--quota-ms expects a positive integer, got %S" v))
    | a :: _ -> bad_usage (Printf.sprintf "unknown argument %S" a)
  in
  let json, quota_ms = parse (None, 500) (List.tl (Array.to_list Sys.argv)) in
  print_endline "=== Performance: one bench per table/figure + ablations ===";
  print_newline ();
  let results = run_perf ~quota_ms () in
  print_perf results;
  Option.iter (fun path -> write_json ~path (perf_json ~quota_ms results)) json
