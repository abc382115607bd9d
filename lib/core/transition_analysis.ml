module Bitvec = Ndetect_util.Bitvec
module Netlist = Ndetect_circuit.Netlist
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Transition = Ndetect_faults.Transition
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim

type target = {
  fault : Transition.t;
  init : Bitvec.t;  (* I(f): vectors setting the line to the init value *)
  detect : Bitvec.t;  (* D(f): vectors detecting the mimicked stuck fault *)
}

type t = {
  net : Netlist.t;
  targets : target array;
  (* The kept bridges, as indices into [pairs]; labels are formatted
     per call. *)
  pairs : Bridge.pairs;
  kept : int array;
  nmin : int array;
}

(* I(f): the line's driver carries the initialization value. *)
let init_set good net fault =
  let driver = Line.driver net fault.Transition.line in
  let want = Transition.initialization_value fault in
  Good.detection_mask_to_set good (fun ~batch ->
      let v = Good.value good ~node:driver ~batch in
      let live = Good.live_mask good ~batch in
      if want then v else Ndetect_logic.Word.lognot v land live)

let compute net =
  let good = Good.compute net in
  let targets =
    Array.to_list (Transition.enumerate net)
    |> List.filter_map (fun fault ->
           let init = init_set good net fault in
           let detect =
             Fault_sim.stuck_detection_set good (Transition.as_stuck fault)
           in
           if Bitvec.is_empty init || Bitvec.is_empty detect then None
           else Some { fault; init; detect })
    |> Array.of_list
  in
  let pairs = Bridge.pairs net in
  let classes = Detection_table.bridge_classes good pairs in
  (* nmin over the pair universe, using the factorized counts, once per
     distinct bridge set. *)
  let class_nmin =
    Array.map
      (fun tg ->
        Array.fold_left
          (fun acc target ->
            let overlap = Bitvec.inter_count target.detect tg in
            if overlap = 0 then acc
            else begin
              let i = Bitvec.count target.init in
              let d = Bitvec.count target.detect in
              let candidate = (i * (d - overlap)) + 1 in
              min acc candidate
            end)
          Worst_case.unbounded targets)
      classes.Detection_table.distinct
  in
  let nmin =
    Array.map (Array.get class_nmin) classes.Detection_table.class_of
  in
  { net; targets; pairs; kept = classes.Detection_table.kept; nmin }

let net t = t.net
let target_count t = Array.length t.targets
let target_fault t i = t.targets.(i).fault

let target_n t i =
  Bitvec.count t.targets.(i).init * Bitvec.count t.targets.(i).detect

let untargeted_count t = Array.length t.kept

let untargeted_label t j =
  Bridge.to_string t.net (Bridge.nth t.pairs t.kept.(j))
let nmin t j = t.nmin.(j)

let percent_below t n0 =
  let total = Array.length t.nmin in
  if total = 0 then 100.0
  else
    100.0
    *. float_of_int
         (Array.fold_left
            (fun acc v -> if v <= n0 then acc + 1 else acc)
            0 t.nmin)
    /. float_of_int total

let count_at_least t n0 =
  Array.fold_left (fun acc v -> if v >= n0 then acc + 1 else acc) 0 t.nmin

let max_finite_nmin t =
  Array.fold_left
    (fun acc v ->
      if v = Worst_case.unbounded then acc
      else match acc with None -> Some v | Some m -> Some (max m v))
    None t.nmin
