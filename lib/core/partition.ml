module Gate = Ndetect_circuit.Gate
module Netlist = Ndetect_circuit.Netlist

type block = {
  outputs : int array;
  support : int array;
  subcircuit : Netlist.t;
}

let support_of_outputs net outputs =
  let needed = Array.make (Netlist.node_count net) false in
  Array.iter
    (fun o ->
      let fanin = Netlist.transitive_fanin net o in
      Array.iteri (fun id b -> if b then needed.(id) <- true) fanin)
    outputs;
  Array.to_seq (Netlist.inputs net)
  |> Seq.filter (fun pi -> needed.(pi))
  |> Array.of_seq

let extract net ~outputs =
  let needed = Array.make (Netlist.node_count net) false in
  Array.iter
    (fun o ->
      let fanin = Netlist.transitive_fanin net o in
      Array.iteri (fun id b -> if b then needed.(id) <- true) fanin)
    outputs;
  let support = support_of_outputs net outputs in
  let b = Netlist.Builder.create () in
  let mapping = Array.make (Netlist.node_count net) (-1) in
  Array.iter
    (fun pi ->
      mapping.(pi) <- Netlist.Builder.add_input b ~name:(Netlist.name net pi))
    support;
  Array.iter
    (fun id ->
      if needed.(id) && Netlist.kind net id <> Gate.Input then
        mapping.(id) <-
          Netlist.Builder.add_gate b
            ~kind:(Netlist.kind net id)
            ~fanins:(Array.map (fun f -> mapping.(f)) (Netlist.fanins net id))
            ~name:(Netlist.name net id))
    (Netlist.topo_order net);
  Netlist.Builder.set_outputs b (Array.map (fun o -> mapping.(o)) outputs);
  { outputs = Array.copy outputs; support; subcircuit = Netlist.Builder.finalize b }

module Int_set = Set.Make (Int)

let blocks net ~max_inputs =
  if max_inputs < 1 then invalid_arg "Partition.blocks";
  let supports =
    Array.map
      (fun o -> (o, Int_set.of_list (Array.to_list (support_of_outputs net [| o |]))))
      (Netlist.outputs net)
  in
  (* Greedy first-fit over outputs ordered by decreasing support size, so
     big cones seed blocks and small ones fill the gaps. *)
  let order = Array.copy supports in
  Array.sort
    (fun (_, s1) (_, s2) ->
      Int.compare (Int_set.cardinal s2) (Int_set.cardinal s1))
    order;
  let groups : (int list * Int_set.t) list ref = ref [] in
  Array.iter
    (fun (o, s) ->
      let rec place acc = function
        | [] -> List.rev (([ o ], s) :: acc)
        | (members, support) :: rest ->
          let merged = Int_set.union support s in
          if Int_set.cardinal merged <= max_inputs then
            List.rev_append acc ((o :: members, merged) :: rest)
          else place ((members, support) :: acc) rest
      in
      groups := place [] !groups)
    order;
  List.map
    (fun (members, _) ->
      (* Keep the original output order inside the block. *)
      let member_set = Int_set.of_list members in
      let outputs =
        Array.to_seq (Netlist.outputs net)
        |> Seq.filter (fun o -> Int_set.mem o member_set)
        |> Array.of_seq
      in
      extract net ~outputs)
    !groups

let analyze ?(max_inputs = 14) ~name net =
  blocks net ~max_inputs
  |> List.filteri (fun _ block ->
         Netlist.input_count block.subcircuit <= 24)
  |> List.mapi (fun i block ->
         let block_name = Printf.sprintf "%s.b%d" name i in
         (block, Analysis.analyze ~name:block_name block.subcircuit))

let combined_summary ~name results =
  let worsts = List.map (fun (_, a) -> a.Analysis.worst) results in
  let untargeted_faults =
    List.fold_left
      (fun acc (_, a) ->
        acc + a.Analysis.summary.Analysis.untargeted_faults)
      0 results
  in
  let target_faults =
    List.fold_left
      (fun acc (_, a) -> acc + a.Analysis.summary.Analysis.target_faults)
      0 results
  in
  let percent thresh =
    let covered =
      List.fold_left
        (fun acc w -> acc + Worst_case.count_below w thresh)
        0 worsts
    in
    if untargeted_faults = 0 then 100.0
    else 100.0 *. float_of_int covered /. float_of_int untargeted_faults
  in
  let count_at_least thresh =
    List.fold_left
      (fun acc w -> acc + Worst_case.count_at_least w thresh)
      0 worsts
  in
  let max_finite =
    List.fold_left
      (fun acc w ->
        match acc, Worst_case.max_finite_nmin w with
        | None, m -> m
        | Some a, Some b -> Some (max a b)
        | Some a, None -> Some a)
      None worsts
  in
  {
    Analysis.circuit = name;
    untargeted_faults;
    target_faults;
    percent_below =
      List.map (fun n0 -> (n0, percent n0)) Analysis.worst_thresholds_below;
    count_at_least =
      List.map
        (fun n0 ->
          let c = count_at_least n0 in
          let pct =
            if untargeted_faults = 0 then 0.0
            else 100.0 *. float_of_int c /. float_of_int untargeted_faults
          in
          (n0, c, pct))
        Analysis.worst_thresholds_at_least;
    max_finite_nmin = max_finite;
    unbounded_count = count_at_least Worst_case.unbounded;
    hard_histogram =
      Worst_case.histogram_of_nmin
        (Array.concat (List.map Worst_case.distribution worsts))
        ~min_value:11;
  }
