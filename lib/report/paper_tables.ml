module Bitvec = Ndetect_util.Bitvec
module Detection_table = Ndetect_core.Detection_table
module Analysis = Ndetect_core.Analysis
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Average_case = Ndetect_core.Average_case

let vector_list set =
  Bitvec.to_list set |> List.map string_of_int |> String.concat " "

let table1 (a : Analysis.t) ~gj =
  let table = a.Analysis.table in
  let worst = a.Analysis.worst in
  let rows =
    Detection_table.overlapping_targets table ~gj
    |> List.map (fun fi ->
           let nmin_pair =
             match Worst_case.nmin_pair worst ~gj ~fi with
             | Some v -> string_of_int v
             | None -> "-"
           in
           [
             string_of_int fi;
             Detection_table.target_label table fi;
             vector_list (Detection_table.target_set table fi);
             nmin_pair;
           ])
  in
  Printf.sprintf
    "Table 1: faults with test vectors that overlap with T(%s) = {%s}\n%s\nnmin(%s) = %d\n"
    (Detection_table.untargeted_label table gj)
    (vector_list (Detection_table.untargeted_set table gj))
    (Ascii_table.render
       ~header:[ "i"; "f_i"; "T(f_i)"; "nmin(g,f_i)" ]
       ~align:[ Ascii_table.Right; Ascii_table.Left; Ascii_table.Left;
                Ascii_table.Right ]
       rows)
    (Detection_table.untargeted_label table gj)
    (Worst_case.nmin worst gj)

(* Truncate rather than round: in a table of guarantees, 99.996% must not
   display as 100.00. *)
let percent pct = Printf.sprintf "%.2f" (Float.of_int (int_of_float (pct *. 100.0)) /. 100.0)

type table_entry =
  | Row of Analysis.worst_summary
  | Failed_row of { circuit : string; reason : string }

let rows_of_summaries summaries = List.map (fun s -> Row s) summaries

(* A failed circuit still gets a row: the failure reason sits in the
   first data column so partial runs render (and diff) cleanly. *)
let failed_cells circuit reason columns =
  circuit :: "-" :: ("(" ^ reason ^ ")")
  :: List.init (columns - 1) (fun _ -> "")

let table2_rows entries =
  let column_count = List.length Analysis.worst_thresholds_below in
  let rows =
    List.map
      (function
        | Row (s : Analysis.worst_summary) ->
          let cells, _ =
            List.fold_left
              (fun (cells, saturated) (_, pct) ->
                if saturated then (cells @ [ "" ], true)
                else (cells @ [ percent pct ], pct >= 100.0 -. 1e-9))
              ([], false) s.Analysis.percent_below
          in
          (s.Analysis.circuit :: string_of_int s.Analysis.untargeted_faults
          :: cells)
        | Failed_row { circuit; reason } ->
          failed_cells circuit reason column_count)
      entries
  in
  let header =
    "circuit" :: "faults"
    :: List.map
         (fun n0 -> Printf.sprintf "n<=%d" n0)
         Analysis.worst_thresholds_below
  in
  (header, rows)

let table2_entries entries =
  let header, rows = table2_rows entries in
  "Table 2: worst-case percentages of detected faults (small n)\n"
  ^ Ascii_table.render ~header rows

let table2_csv_entries entries =
  let header, rows = table2_rows entries in
  Ascii_table.render_csv ~header rows

let table2 summaries = table2_entries (rows_of_summaries summaries)
let table2_csv summaries = table2_csv_entries (rows_of_summaries summaries)

let table3_rows entries =
  let column_count = List.length Analysis.worst_thresholds_at_least in
  let interesting = function
    | Row (s : Analysis.worst_summary) ->
      List.exists (fun (_, count, _) -> count > 0) s.Analysis.count_at_least
    | Failed_row _ -> true
  in
  let rows =
    List.filter interesting entries
    |> List.map (function
         | Row (s : Analysis.worst_summary) ->
           s.Analysis.circuit
           :: string_of_int s.Analysis.untargeted_faults
           :: List.map
                (fun (_, count, pct) ->
                  Printf.sprintf "%d (%.2f)" count pct)
                s.Analysis.count_at_least
         | Failed_row { circuit; reason } ->
           failed_cells circuit reason column_count)
  in
  let header =
    "circuit" :: "faults"
    :: List.map
         (fun n0 -> Printf.sprintf "n>=%d" n0)
         Analysis.worst_thresholds_at_least
  in
  (header, rows)

let table3_entries entries =
  let header, rows = table3_rows entries in
  "Table 3: worst-case numbers of detected faults (large n)\n"
  ^ Ascii_table.render ~header rows

let table3_csv_entries entries =
  let header, rows = table3_rows entries in
  Ascii_table.render_csv ~header rows

let table3 summaries = table3_entries (rows_of_summaries summaries)
let table3_csv summaries = table3_csv_entries (rows_of_summaries summaries)

(* The sampled analog of Table 2. Each threshold column carries the
   point estimate bracketed by its confidence interval: "point [lo,hi]"
   where lo is the guaranteed (lower-confidence) percentage — faults
   whose interval's upper endpoint clears the threshold — and hi the
   optimistic one. No saturation blanking: a sampled 100.00 still has
   an informative lower bound next to it. *)
module Estimate = Ndetect_estimate.Estimate

type est_entry =
  | Est_row of Estimate.summary
  | Est_failed_row of { circuit : string; reason : string }

let est_rows entries =
  let column_count = List.length Analysis.worst_thresholds_below + 2 in
  let rows =
    List.map
      (function
        | Est_row (s : Estimate.summary) ->
          s.Estimate.circuit
          :: string_of_int s.Estimate.untargeted_faults
          :: Printf.sprintf "%d/2^%d" s.Estimate.spec.Estimate.Spec.samples
               s.Estimate.universe_bits
          :: (List.map
                (fun (_, guaranteed, point, optimistic) ->
                  Printf.sprintf "%s [%s,%s]" (percent point)
                    (percent guaranteed) (percent optimistic))
                s.Estimate.percent_below
             @ [ string_of_int s.Estimate.unbounded_count ])
        | Est_failed_row { circuit; reason } ->
          failed_cells circuit reason column_count)
      entries
  in
  let header =
    "circuit" :: "faults" :: "samples"
    :: (List.map
          (fun n0 -> Printf.sprintf "n<=%d" n0)
          Analysis.worst_thresholds_below
       @ [ "no-bound" ])
  in
  (header, rows)

let est_entries ~confidence entries =
  let header, rows = est_rows entries in
  Printf.sprintf
    "Table 2 (sampled): estimated worst-case percentages, point [lo,hi] at \
     %g%% confidence\n%s"
    (100.0 *. confidence)
    (Ascii_table.render ~header rows)

let figure2_of_histogram hist ~min_value =
  let max_count =
    List.fold_left (fun acc (_, c) -> max acc c) 1 hist
  in
  let bar c =
    let width = max 1 (c * 50 / max_count) in
    String.make width '#'
  in
  let rows =
    List.map
      (fun (value, count) ->
        [ string_of_int value; string_of_int count; bar count ])
      hist
  in
  Printf.sprintf "Figure 2: distribution of nmin(g) for nmin >= %d\n%s"
    min_value
    (Ascii_table.render
       ~header:[ "nmin"; "#faults"; "" ]
       ~align:[ Ascii_table.Right; Ascii_table.Right; Ascii_table.Left ]
       rows)

let figure2 worst ~min_value =
  figure2_of_histogram (Worst_case.histogram worst ~min_value) ~min_value

let figure2_csv_of_histogram hist =
  let rows =
    List.map
      (fun (value, count) -> [ string_of_int value; string_of_int count ])
      hist
  in
  Ascii_table.render_csv ~header:[ "nmin"; "faults" ] rows

let figure2_csv worst ~min_value =
  figure2_csv_of_histogram (Worst_case.histogram worst ~min_value)

let table4 outcome =
  let config = Procedure1.config outcome in
  let rows =
    List.init config.Procedure1.set_count (fun k ->
        let set = Procedure1.replay outcome ~k in
        string_of_int k
        :: List.init config.Procedure1.nmax (fun n0 ->
               Procedure1.test_set_at set ~n:(n0 + 1)
               |> List.sort Int.compare |> List.map string_of_int
               |> String.concat " "))
  in
  let header =
    "k"
    :: List.init config.Procedure1.nmax (fun n0 ->
           Printf.sprintf "n=%d" (n0 + 1))
  in
  "Table 4: randomly constructed n-detection test sets\n"
  ^ Ascii_table.render ~header
      ~align:(Ascii_table.Right :: List.init config.Procedure1.nmax (fun _ -> Ascii_table.Left))
      rows

type average_row = {
  circuit : string;
  hard_faults : int;
  row : Average_case.row;
}

let threshold_header =
  List.map
    (fun theta ->
      if theta >= 1.0 then "p>=1"
      else Printf.sprintf "%.1f" theta)
    (Array.to_list Average_case.thresholds)

let probability_cells (row : Average_case.row) =
  let cells, _ =
    Array.fold_left
      (fun (cells, saturated) count ->
        if saturated then (cells @ [ "" ], true)
        else
          (cells @ [ string_of_int count ], count >= row.Average_case.fault_count))
      ([], false) row.Average_case.at_least
  in
  cells

let table5_rows rows =
  let body =
    List.map
      (fun r ->
        r.circuit :: string_of_int r.hard_faults :: probability_cells r.row)
      rows
  in
  (("circuit" :: "faults" :: threshold_header), body)

let table5 ~nmax rows =
  let header, body = table5_rows rows in
  Printf.sprintf
    "Table 5: average-case probabilities of detection (p(%d,g) thresholds, \
     faults with nmin >= %d)\n%s"
    nmax (nmax + 1)
    (Ascii_table.render ~header body)

let table5_csv rows =
  let header, body = table5_rows rows in
  Ascii_table.render_csv ~header body

let table6_rows rows =
  let body =
    List.concat_map
      (fun (circuit, hard, def1_row, def2_row) ->
        [
          circuit :: string_of_int hard :: "1" :: probability_cells def1_row;
          "" :: "" :: "2" :: probability_cells def2_row;
        ])
      rows
  in
  (("circuit" :: "faults" :: "def" :: threshold_header), body)

let table6 ~nmax rows =
  let header, body = table6_rows rows in
  Printf.sprintf
    "Table 6: average-case probabilities of detection under Definitions 1 \
     and 2 (p(%d,g) thresholds)\n%s"
    nmax
    (Ascii_table.render ~header body)

let table6_csv rows =
  let header, body = table6_rows rows in
  Ascii_table.render_csv ~header body
