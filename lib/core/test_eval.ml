module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Bitvec = Ndetect_util.Bitvec
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim

type t = {
  net : Netlist.t;
  vectors : int array;
  targets : Stuck.t array;
  untargeted : Bridge.t array;
  target_patterns : Bitvec.t array;  (* per target: detecting positions *)
  untargeted_hit : bool array;
  mutable def2_counts : int array option;
}

let dedup vectors =
  let seen = Hashtbl.create (Array.length vectors) in
  Array.to_list vectors
  |> List.filter (fun v ->
         if Hashtbl.mem seen v then false
         else begin
           Hashtbl.replace seen v ();
           true
         end)
  |> Array.of_list

let evaluate ?targets ?untargeted net ~vectors =
  let vectors = dedup vectors in
  let targets =
    match targets with Some t -> t | None -> Stuck.collapse net
  in
  let untargeted =
    match untargeted with Some u -> u | None -> Bridge.enumerate net
  in
  let good = Good.of_vectors net vectors in
  let target_patterns =
    Array.map (Fault_sim.stuck_detection_set good) targets
  in
  let untargeted_hit =
    Array.map
      (fun g ->
        not (Bitvec.is_empty (Fault_sim.bridge_detection_set good g)))
      untargeted
  in
  {
    net;
    vectors;
    targets;
    untargeted;
    target_patterns;
    untargeted_hit;
    def2_counts = None;
  }

let vectors t = Array.copy t.vectors
let target_count t = Array.length t.targets
let untargeted_count t = Array.length t.untargeted

let detections_def1 t = Array.map Bitvec.count t.target_patterns

let detections_def2 t =
  match t.def2_counts with
  | Some counts -> counts
  | None ->
    let def2 = Definition2.of_faults t.net t.targets in
    let counts =
      Array.mapi
        (fun fi patterns ->
          let tests =
            Bitvec.fold_set patterns ~init:[] ~f:(fun acc pos ->
                t.vectors.(pos) :: acc)
            |> List.rev
          in
          fst (Definition2.count_greedy def2 ~fi tests))
        t.target_patterns
    in
    t.def2_counts <- Some counts;
    counts

let is_n_detection t ~n ~def2 =
  let counts = if def2 then detections_def2 t else detections_def1 t in
  Array.for_all (fun c -> c = 0 || c >= n) counts

let percentage hits total =
  if total = 0 then 100.0
  else 100.0 *. float_of_int hits /. float_of_int total

let stuck_coverage t =
  let detected =
    Array.fold_left
      (fun acc s -> if Bitvec.is_empty s then acc else acc + 1)
      0 t.target_patterns
  in
  percentage detected (Array.length t.targets)

let bridge_coverage t =
  let detected =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.untargeted_hit
  in
  percentage detected (Array.length t.untargeted)
