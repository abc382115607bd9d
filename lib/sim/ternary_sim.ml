module Ternary = Ndetect_logic.Ternary
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck

let eval_general net ~stem_override ~pin_override assignment =
  let pi = Netlist.input_count net in
  if Array.length assignment <> pi then
    invalid_arg "Ternary_sim.eval: arity mismatch";
  let values = Array.make (Netlist.node_count net) Ternary.X in
  Array.iter
    (fun id ->
      let raw =
        match Netlist.kind net id with
        | Gate.Input -> assignment.(id)
        | kind ->
          let fanins = Netlist.fanins net id in
          Gate.eval_ternary kind
            (Array.mapi
               (fun pin f ->
                 match pin_override ~gate:id ~pin with
                 | Some v -> v
                 | None -> values.(f))
               fanins)
      in
      values.(id) <-
        (match stem_override ~node:id with Some v -> v | None -> raw))
    (Netlist.topo_order net);
  values

let no_stem ~node:_ = None
let no_pin ~gate:_ ~pin:_ = None

let eval net assignment =
  eval_general net ~stem_override:no_stem ~pin_override:no_pin assignment

let eval_with_stuck net fault assignment =
  let forced = Ternary.of_bool fault.Stuck.value in
  match fault.Stuck.line with
  | Line.Stem n ->
    eval_general net
      ~stem_override:(fun ~node -> if node = n then Some forced else None)
      ~pin_override:no_pin assignment
  | Line.Branch { gate; pin } ->
    eval_general net ~stem_override:no_stem
      ~pin_override:(fun ~gate:g ~pin:p ->
        if g = gate && p = pin then Some forced else None)
      assignment

let detects_stuck net fault assignment =
  let good = eval net assignment in
  let faulty = eval_with_stuck net fault assignment in
  Array.exists
    (fun o ->
      match Ternary.to_bool_opt good.(o), Ternary.to_bool_opt faulty.(o) with
      | Some g, Some f -> not (Bool.equal g f)
      | None, (Some _ | None) | Some _, None -> false)
    (Netlist.outputs net)

let common_test a b =
  if Array.length a <> Array.length b then
    invalid_arg "Ternary_sim.common_test: arity mismatch";
  Array.map2 Ternary.common a b

let test_of_vector net v =
  Array.map Ternary.of_bool (Eval.assignment_of_vector net v)
