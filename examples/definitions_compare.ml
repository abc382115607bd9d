(* Definition 1 vs Definition 2 (Section 4 of the paper): the stricter
   notion of "n different detections" — two tests only count twice when
   their common bits alone do not detect the fault — raises the
   probability that an n-detection test set catches untargeted faults.

   Run with: dune exec examples/definitions_compare.exe [-- circuit [K]] *)

module Analysis = Ndetect_core.Analysis
module Detection_table = Ndetect_core.Detection_table
module Procedure1 = Ndetect_core.Procedure1
module Definition2 = Ndetect_core.Definition2
module Average_case = Ndetect_core.Average_case
module Registry = Ndetect_suite.Registry
module Paper_tables = Ndetect_report.Paper_tables

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "ex4" in
  let k =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 200
  in
  let entry =
    match Registry.find name with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown circuit %s\n" name;
      exit 1
  in
  Printf.printf "Analyzing %s...\n%!" name;
  let a = Analysis.analyze ~name (Registry.circuit entry) in
  let nmax = 10 in
  let hard = Analysis.hard_faults a ~nmax in
  if Array.length hard = 0 then begin
    print_endline "No faults with nmin > 10 in this circuit; try another.";
    exit 0
  end;
  let run mode =
    Procedure1.run ~report_faults:hard a.Analysis.table
      { Procedure1.seed = 1; set_count = k; nmax; mode }
  in
  Printf.printf "Running Procedure 1 twice (K = %d)...\n%!" k;
  let def1 = run Procedure1.Definition1 in
  let def2 = run Procedure1.Definition2 in
  print_string
    (Paper_tables.table6 ~nmax
       [
         ( name,
           Array.length hard,
           Average_case.summarize def1 ~n:nmax,
           Average_case.summarize def2 ~n:nmax );
       ]);
  print_newline ();
  Printf.printf
    "expected escapes per arbitrary %d-detection test set:\n\
    \  Definition 1: %.3f\n\
    \  Definition 2: %.3f\n\n"
    nmax
    (Average_case.expected_escapes_of def1 ~n:nmax)
    (Average_case.expected_escapes_of def2 ~n:nmax);
  (* Definition 2 at work on one concrete fault: show a Def2 chain next
     to the raw Def1 detection count for the same test set. *)
  let table = a.Analysis.table in
  let fi =
    (* a target fault with a large detection set, where Def1 counts
       saturate but Def2 chains stay short *)
    let best = ref 0 in
    for i = 0 to Detection_table.target_count table - 1 do
      if
        Detection_table.target_n table i
        > Detection_table.target_n table !best
      then best := i
    done;
    !best
  in
  let t0 = Procedure1.replay def2 ~k:0 in
  let def1_count = Procedure1.detection_count_def1 t0 ~fi in
  let chain = Procedure1.chain_def2 t0 ~fi in
  Printf.printf
    "Fault %s in set T0: %d detecting tests under Definition 1, but only %d \
     pairwise-different detections under Definition 2 (chain: %s)\n"
    (Detection_table.target_label table fi)
    def1_count (List.length chain)
    (String.concat " " (List.map string_of_int chain))
