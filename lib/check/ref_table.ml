module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge

type t = {
  net : Netlist.t;
  universe : int;
  targets : Stuck.t array;
  target_sets : bool array array;
  undetectable_targets : int;
  untargeted : Bridge.t array;
  untargeted_sets : bool array array;
  undetectable_untargeted : int;
}

let is_empty set = not (Array.exists Fun.id set)

(* Keep only detectable faults, in enumeration order — the same
   filtering Detection_table.build applies with its defaults. *)
let keep_detectable faults sets =
  let kept = ref [] and dropped = ref 0 in
  Array.iteri
    (fun i set ->
      if is_empty set then incr dropped else kept := (faults.(i), set) :: !kept)
    sets;
  let kept = Array.of_list (List.rev !kept) in
  (Array.map fst kept, Array.map snd kept, !dropped)

(* The definition, pair by pair: every candidate pair in lexicographic
   order of position, kept unless {!Bridge.is_feedback}, four bridges
   each in the documented order. *)
let bridges net =
  let nodes = Bridge.candidate_nodes net in
  let n = Array.length nodes in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let u = nodes.(i) and v = nodes.(j) in
      if not (Bridge.is_feedback net u v) then
        let b victim victim_value aggressor aggressor_value =
          { Bridge.victim; victim_value; aggressor; aggressor_value }
        in
        acc :=
          b v true u false :: b u true v false :: b v false u true
          :: b u false v true :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

let build net =
  let universe = Netlist.universe_size net in
  let set_of detects =
    Array.init universe (fun v -> detects v)
  in
  let targets0 = Stuck.collapse net in
  let target_sets0 =
    Array.map
      (fun fault -> set_of (fun v -> Ref_eval.detects_stuck net fault v))
      targets0
  in
  let targets, target_sets, undetectable_targets =
    keep_detectable targets0 target_sets0
  in
  let untargeted0 = bridges net in
  let untargeted_sets0 =
    Array.map
      (fun fault -> set_of (fun v -> Ref_eval.detects_bridge net fault v))
      untargeted0
  in
  let untargeted, untargeted_sets, undetectable_untargeted =
    keep_detectable untargeted0 untargeted_sets0
  in
  {
    net;
    universe;
    targets;
    target_sets;
    undetectable_targets;
    untargeted;
    untargeted_sets;
    undetectable_untargeted;
  }

let net t = t.net
let universe t = t.universe
let target_count t = Array.length t.targets
let target_fault t i = t.targets.(i)
let target_set t i = t.target_sets.(i)
let undetectable_target_count t = t.undetectable_targets
let untargeted_count t = Array.length t.untargeted
let untargeted_fault t j = t.untargeted.(j)
let untargeted_set t j = t.untargeted_sets.(j)
let undetectable_untargeted_count t = t.undetectable_untargeted

let count set = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 set

let n t i = count t.target_sets.(i)

let m t ~gj ~fi =
  let tf = t.target_sets.(fi) and tg = t.untargeted_sets.(gj) in
  let acc = ref 0 in
  for v = 0 to t.universe - 1 do
    if tf.(v) && tg.(v) then incr acc
  done;
  !acc

let members set =
  let acc = ref [] in
  for v = Array.length set - 1 downto 0 do
    if set.(v) then acc := v :: !acc
  done;
  !acc
