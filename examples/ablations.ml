(* Ablations of the design choices in DESIGN.md section 5, measured by
   what the paper measures: the nmin(g) tail of Tables 2 and 3. Each row
   is one detection table and its worst-case analysis; |F| and |G| are
   the target and untargeted fault counts, "n<=k" the percentage of
   untargeted faults every k-detection test set detects, ">=k" the
   number that need n >= k (undetected ones included).

   1. Fault collapsing on vs off (mc).
   2. Binary vs Gray vs one-hot state encoding (lion).
   3. Four-way vs wired-AND vs wired-OR untargeted faults (mc).

   Run with: dune exec examples/ablations.exe [-- circuit]
   (the circuit replaces both mc and lion; a combinational one skips
   the encoding ablation). *)

module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Registry = Ndetect_suite.Registry
module Encode = Ndetect_synth.Encode
module Wired = Ndetect_faults.Wired

let below = [ 1; 2; 3; 4; 5; 10 ]
let at_least = [ 11; 20; 100 ]

let section title =
  Printf.printf "\n%s\n%-18s %5s %6s" title "variant" "|F|" "|G|";
  List.iter (fun n -> Printf.printf " %7s" (Printf.sprintf "n<=%d" n)) below;
  List.iter (fun n -> Printf.printf " %5s" (Printf.sprintf ">=%d" n)) at_least;
  print_newline ()

let row label table =
  let worst = Worst_case.compute table in
  Printf.printf "%-18s %5d %6d" label
    (Detection_table.target_count table)
    (Detection_table.untargeted_count table);
  List.iter
    (fun n -> Printf.printf " %7.2f" (Worst_case.percent_below worst n))
    below;
  List.iter
    (fun n -> Printf.printf " %5d" (Worst_case.count_at_least worst n))
    at_least;
  print_newline ()

let () =
  let named default =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else default
  in
  let entry name = Option.get (Registry.find name) in
  let comb = named "mc" and fsm = entry (named "lion") in
  let net = Registry.circuit (entry comb) in
  section (Printf.sprintf "Fault collapsing (%s)" comb);
  row "collapsed (paper)" (Detection_table.build ~collapse:true net);
  row "uncollapsed" (Detection_table.build ~collapse:false net);
  section (Printf.sprintf "State encoding (%s)" fsm.Registry.name);
  (match fsm.Registry.source with
  | Registry.Bench_text _ -> print_endline "(combinational: no state encoding)"
  | Registry.Kiss2_text _ | Registry.Synthetic _ ->
    List.iter
      (fun scheme ->
        row (Encode.to_string scheme)
          (Detection_table.build (Registry.circuit ~scheme fsm)))
      [ Encode.Binary; Encode.Gray; Encode.One_hot ]);
  section (Printf.sprintf "Untargeted fault model (%s)" comb);
  List.iter
    (fun (label, model) -> row label (Detection_table.build ~model net))
    [
      ("four-way (paper)", Detection_table.Four_way);
      ("wired-AND", Detection_table.Wired Wired.Wired_and);
      ("wired-OR", Detection_table.Wired Wired.Wired_or);
    ]
