(* End-to-end integration tests: the complete pipeline of the paper, from
   circuit to analysis results, on the worked example and on small suite
   benchmarks. *)

module Analysis = Ndetect_core.Analysis
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Definition2 = Ndetect_core.Definition2
module Average_case = Ndetect_core.Average_case
module Bitvec = Ndetect_util.Bitvec
module Registry = Ndetect_suite.Registry
module Example = Ndetect_suite.Example

let test_example_full_worst_case () =
  (* Every nmin value of the example circuit, computed end to end. The
     paper fixes nmin(g0) = 3 and nmin(g6) = 4; the rest follow from the
     verified detection sets. *)
  let a = Analysis.analyze ~name:"example" (Example.circuit ()) in
  let expected =
    [ ("(9,0,10,1)", 3); ("(10,0,9,1)", 3); ("(9,1,10,0)", 3);
      ("(10,1,9,0)", 3); ("(9,0,11,1)", 1); ("(11,0,9,1)", 4);
      ("(9,1,11,0)", 4); ("(11,1,9,0)", 1); ("(10,0,11,1)", 1);
      ("(11,1,10,0)", 1) ]
  in
  List.iteri
    (fun gj (label, nmin) ->
      Alcotest.(check string) "label" label
        (Detection_table.untargeted_label a.Analysis.table gj);
      Alcotest.(check int) ("nmin " ^ label) nmin
        (Worst_case.nmin a.Analysis.worst gj))
    expected;
  (* Worst-case coverage curve: 40% at n=1 (4 of 10), 40% at 2, 80% at 3,
     100% at 4. *)
  List.iter
    (fun (n, pct) ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "coverage at %d" n)
        pct
        (Worst_case.percent_below a.Analysis.worst n))
    [ (1, 40.0); (2, 40.0); (3, 80.0); (4, 100.0) ]

let test_example_average_case_consistency () =
  (* p(n, g) estimates respect the worst-case guarantee: with K sets,
     faults with nmin <= n have p = 1 exactly, and g6 (|T| = 1) has
     p(1, g6) well below 1. *)
  let a = Analysis.analyze ~name:"example" (Example.circuit ()) in
  let config =
    { Procedure1.seed = 123; set_count = 400; nmax = 4;
      mode = Procedure1.Definition1 }
  in
  let outcome = Procedure1.run a.Analysis.table config in
  for gj = 0 to Detection_table.untargeted_count a.Analysis.table - 1 do
    let nmin = Worst_case.nmin a.Analysis.worst gj in
    for n = 1 to 4 do
      let p = Procedure1.probability outcome ~n ~gj in
      if n >= nmin then
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "guaranteed at n=%d gj=%d" n gj)
          1.0 p
      else
        Alcotest.(check bool) "probability in range" true (p >= 0.0 && p <= 1.0)
    done
  done;
  (* g6: T = {12}; under a 1-detection test set the probability of picking
     vector 12 is far from 0 and far from 1. *)
  let victim, vv, aggressor, av = Example.g6 in
  let g6 =
    Option.get
      (Detection_table.find_untargeted a.Analysis.table ~victim
         ~victim_value:vv ~aggressor ~aggressor_value:av)
  in
  let p1 = Procedure1.probability outcome ~n:1 ~gj:g6 in
  Alcotest.(check bool) "0 < p(1,g6) < 1" true (p1 > 0.02 && p1 < 0.98)

let test_definition2_improves_example () =
  (* Section 4 of the paper: Definition 2 increases (or at worst keeps)
     detection probabilities. Check the aggregate over the example's
     hardest faults. *)
  let a = Analysis.analyze ~name:"example" (Example.circuit ()) in
  let hard = Analysis.hard_faults a ~nmax:2 in
  Alcotest.(check bool) "example has faults with nmin > 2" true
    (Array.length hard > 0);
  let run mode =
    Procedure1.run ~report_faults:hard a.Analysis.table
      { Procedure1.seed = 5; set_count = 300; nmax = 2; mode }
  in
  let def1 = run Procedure1.Definition1 in
  let def2 = run Procedure1.Definition2 in
  let total outcome =
    Array.fold_left
      (fun acc gj -> acc + Procedure1.detected_count outcome ~n:2 ~gj)
      0 hard
  in
  Alcotest.(check bool) "Def2 detects at least as much on aggregate" true
    (total def2 >= total def1)

let run_small_benchmark name =
  let entry = Option.get (Registry.find name) in
  let a = Analysis.analyze ~name (Registry.circuit entry) in
  let summary = a.Analysis.summary in
  Alcotest.(check bool) (name ^ " has bridging faults") true
    (summary.Analysis.untargeted_faults > 0);
  Alcotest.(check bool) (name ^ " has target faults") true
    (summary.Analysis.target_faults > 0);
  (* Percentages are monotone in n and end at 100 for these small
     machines. *)
  let pcts = List.map snd summary.Analysis.percent_below in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) (name ^ " monotone coverage") true (monotone pcts);
  a

let test_benchmark_lion () =
  let a = run_small_benchmark "lion" in
  Alcotest.(check bool) "lion saturates by n=10" true
    (match a.Analysis.summary.Analysis.max_finite_nmin with
    | Some m -> m <= 10
    | None -> false)

let test_benchmark_mc () = ignore (run_small_benchmark "mc")
let test_benchmark_dk27 () = ignore (run_small_benchmark "dk27")
let test_benchmark_train4 () = ignore (run_small_benchmark "train4")

let test_procedure1_def2_chain_on_benchmark () =
  (* On a real benchmark, Def2 chains never exceed Def1 counts and only
     contain detecting vectors. *)
  let entry = Option.get (Registry.find "train4") in
  let table = Detection_table.build (Registry.circuit entry) in
  let outcome =
    Procedure1.run table
      { Procedure1.seed = 2; set_count = 12; nmax = 3;
        mode = Procedure1.Definition2 }
  in
  for k = 0 to 11 do
    let set = Procedure1.replay outcome ~k in
    for fi = 0 to Detection_table.target_count table - 1 do
      let chain = Procedure1.chain_def2 set ~fi in
      let def1 = Procedure1.detection_count_def1 set ~fi in
      Alcotest.(check bool) "chain <= def1 count" true
        (List.length chain <= def1);
      List.iter
        (fun v ->
          Alcotest.(check bool) "chain vectors detect" true
            (Bitvec.get (Detection_table.target_set table fi) v))
        chain
    done
  done

let test_def2_chain_pairwise_different () =
  let entry = Option.get (Registry.find "train4") in
  let table = Detection_table.build (Registry.circuit entry) in
  let def2 = Definition2.create table in
  let outcome =
    Procedure1.run table
      { Procedure1.seed = 21; set_count = 6; nmax = 3;
        mode = Procedure1.Definition2 }
  in
  for k = 0 to 5 do
    let set = Procedure1.replay outcome ~k in
    for fi = 0 to Detection_table.target_count table - 1 do
      let chain = Procedure1.chain_def2 set ~fi in
      let rec pairwise = function
        | [] -> true
        | v :: rest ->
          List.for_all (fun w -> Definition2.different def2 ~fi v w) rest
          && pairwise rest
      in
      Alcotest.(check bool) "pairwise different" true (pairwise chain)
    done
  done

let test_average_summaries_on_benchmark () =
  (* Build a Table-5-style row for a small benchmark with forced low
     nmax so some faults are "hard". *)
  let entry = Option.get (Registry.find "bbtas") in
  let a = Analysis.analyze ~name:"bbtas" (Registry.circuit entry) in
  let nmax = 1 in
  let hard = Analysis.hard_faults a ~nmax in
  if Array.length hard > 0 then begin
    let outcome =
      Procedure1.run ~report_faults:hard a.Analysis.table
        { Procedure1.seed = 4; set_count = 100; nmax;
          mode = Procedure1.Definition1 }
    in
    let row = Average_case.summarize outcome ~n:nmax in
    Alcotest.(check int) "row covers hard faults" (Array.length hard)
      row.Average_case.fault_count;
    let last = row.Average_case.at_least.(10) in
    Alcotest.(check int) "p >= 0 covers all" (Array.length hard) last;
    (* Cumulative monotone. *)
    for i = 0 to 9 do
      Alcotest.(check bool) "cumulative" true
        (row.Average_case.at_least.(i) <= row.Average_case.at_least.(i + 1))
    done
  end

let () =
  Alcotest.run "paper"
    [
      ( "example",
        [
          Alcotest.test_case "full worst-case analysis" `Quick
            test_example_full_worst_case;
          Alcotest.test_case "average-case consistency" `Quick
            test_example_average_case_consistency;
          Alcotest.test_case "Definition 2 improves detection" `Quick
            test_definition2_improves_example;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "lion" `Quick test_benchmark_lion;
          Alcotest.test_case "mc" `Quick test_benchmark_mc;
          Alcotest.test_case "dk27" `Quick test_benchmark_dk27;
          Alcotest.test_case "train4" `Quick test_benchmark_train4;
          Alcotest.test_case "Def2 chains on benchmark" `Quick
            test_procedure1_def2_chain_on_benchmark;
          Alcotest.test_case "Def2 chains pairwise different" `Quick
            test_def2_chain_pairwise_different;
          Alcotest.test_case "average summaries" `Quick
            test_average_summaries_on_benchmark;
        ] );
    ]
