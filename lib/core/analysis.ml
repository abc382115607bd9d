module Netlist = Ndetect_circuit.Netlist

type worst_summary = {
  circuit : string;
  untargeted_faults : int;
  target_faults : int;
  percent_below : (int * float) list;
  count_at_least : (int * int * float) list;
  max_finite_nmin : int option;
  unbounded_count : int;
  hard_histogram : (int * int) list;
}

let worst_thresholds_below = [ 1; 2; 3; 4; 5; 10 ]
let worst_thresholds_at_least = [ 100; 20; 11 ]

type t = {
  name : string;
  table : Detection_table.t;
  worst : Worst_case.t;
  summary : worst_summary;
}

let summary_of_worst ~name worst =
  let table = Worst_case.table worst in
  {
    circuit = name;
    untargeted_faults = Detection_table.untargeted_count table;
    target_faults = Detection_table.target_count table;
    percent_below =
      List.map
        (fun n0 -> (n0, Worst_case.percent_below worst n0))
        worst_thresholds_below;
    count_at_least =
      List.map
        (fun n0 ->
          ( n0,
            Worst_case.count_at_least worst n0,
            Worst_case.percent_at_least worst n0 ))
        worst_thresholds_at_least;
    max_finite_nmin = Worst_case.max_finite_nmin worst;
    unbounded_count =
      Worst_case.count_at_least worst Worst_case.unbounded;
    hard_histogram = Worst_case.histogram worst ~min_value:11;
  }

let analyze ?(cancel = Ndetect_util.Cancel.none) ?build ~name net =
  let table =
    match build with
    | Some build -> build ~cancel net
    | None -> Detection_table.build ~cancel net
  in
  let worst = Worst_case.compute ~cancel table in
  { name; table; worst; summary = summary_of_worst ~name worst }

let hard_faults t ~nmax =
  let acc = ref [] in
  for gj = Detection_table.untargeted_count t.table - 1 downto 0 do
    if Worst_case.nmin t.worst gj > nmax then acc := gj :: !acc
  done;
  Array.of_list !acc

let average ?(config = Procedure1.default_config) t =
  let report = hard_faults t ~nmax:config.Procedure1.nmax in
  Procedure1.run ~report_faults:report t.table config
