module Gate = Ndetect_circuit.Gate
module Netlist = Ndetect_circuit.Netlist
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Naive = Ndetect_sim.Naive
module Bitvec = Ndetect_util.Bitvec
module Example = Ndetect_suite.Example

let test_all_faults_count () =
  let net = Example.circuit () in
  (* 11 lines, two faults each. *)
  Alcotest.(check int) "22 faults" 22 (Array.length (Stuck.all net))

let test_collapse_example () =
  let net = Example.circuit () in
  let collapsed = Stuck.collapse net in
  Alcotest.(check int) "16 collapsed faults" 16 (Array.length collapsed);
  (* The paper's Table 1 indices: i=0 is 1/1, i=1 is 2/0, i=3 is 3/0,
     i=9 is 8/0 (branch 3>11), i=11 is 9/1, i=12 is 10/0, i=14 is 11/0. *)
  let label i = Stuck.to_string net collapsed.(i) in
  Alcotest.(check string) "i=0" "1/1" (label 0);
  Alcotest.(check string) "i=1" "2/0" (label 1);
  Alcotest.(check string) "i=3" "3/0" (label 3);
  Alcotest.(check string) "i=9" "3>11/0" (label 9);
  Alcotest.(check string) "i=11" "9/1" (label 11);
  Alcotest.(check string) "i=12" "10/0" (label 12);
  Alcotest.(check string) "i=14" "11/0" (label 14)

let test_collapse_classes_example () =
  let net = Example.circuit () in
  let classes = Stuck.classes net in
  let sizes =
    Array.to_list classes
    |> List.map (fun (_, members) -> List.length members)
    |> List.sort Int.compare
  in
  (* Three classes of three (AND input s-a-0 chains and OR input s-a-1
     chain), the rest singletons: 13 * 1 + 3 * 3 = 22. *)
  Alcotest.(check (list int)) "class sizes"
    (List.init 13 (fun _ -> 1) @ [ 3; 3; 3 ])
    sizes

(* Equivalence collapsing is semantically sound: every member of a class
   has the same detection set as its representative. *)
let prop_collapse_equivalent =
  QCheck.Test.make ~name:"collapsed classes share detection sets" ~count:40
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let classes = Stuck.classes net in
         Array.for_all
           (fun (rep, members) ->
             let rep_set = Naive.stuck_detection_set net rep in
             List.for_all
               (fun f ->
                 Bitvec.equal rep_set (Naive.stuck_detection_set net f))
               members)
           classes))

let prop_collapse_partition =
  QCheck.Test.make ~name:"classes partition the full fault list" ~count:60
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let classes = Stuck.classes net in
         let members =
           Array.to_list classes |> List.concat_map snd
           |> List.sort Stuck.compare
         in
         let full = Array.to_list (Stuck.all net) |> List.sort Stuck.compare in
         List.equal Stuck.equal members full))

let test_bridge_candidates_example () =
  let net = Example.circuit () in
  let nodes = Bridge.candidate_nodes net in
  Alcotest.(check int) "three multi-input gates" 3 (Array.length nodes);
  let faults = Bridge.enumerate net in
  (* Three non-feedback pairs, four faults each. *)
  Alcotest.(check int) "12 bridges" 12 (Array.length faults);
  (* Fault g0 of the paper is the first enumerated: (9,0,10,1). *)
  Alcotest.(check string) "g0" "(9,0,10,1)"
    (Bridge.to_string net faults.(0));
  Alcotest.(check string) "g6" "(9,1,11,0)"
    (Bridge.to_string net faults.(6))

let test_bridge_feedback_filtered () =
  (* g2 = AND(g1, c) where g1 = OR(a, b): the pair (g1, g2) is a feedback
     pair and must be excluded. *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_input b ~name:"a" in
  let b_in = Netlist.Builder.add_input b ~name:"b" in
  let c = Netlist.Builder.add_input b ~name:"c" in
  let g1 =
    Netlist.Builder.add_gate b ~kind:Gate.Or ~fanins:[| a; b_in |] ~name:"g1"
  in
  let g2 =
    Netlist.Builder.add_gate b ~kind:Gate.And ~fanins:[| g1; c |] ~name:"g2"
  in
  Netlist.Builder.set_outputs b [| g2 |];
  let net = Netlist.Builder.finalize b in
  Alcotest.(check bool) "feedback detected" true
    (Bridge.is_feedback net g1 g2);
  Alcotest.(check int) "no bridges" 0 (Array.length (Bridge.enumerate net))

let test_bridge_excludes_single_input_gates () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_input b ~name:"a" in
  let b_in = Netlist.Builder.add_input b ~name:"b" in
  let n1 = Netlist.Builder.add_gate b ~kind:Gate.Not ~fanins:[| a |] ~name:"n1" in
  let n2 =
    Netlist.Builder.add_gate b ~kind:Gate.Not ~fanins:[| b_in |] ~name:"n2"
  in
  Netlist.Builder.set_outputs b [| n1; n2 |];
  let net = Netlist.Builder.finalize b in
  Alcotest.(check int) "no candidates" 0
    (Array.length (Bridge.candidate_nodes net));
  Alcotest.(check int) "no bridges" 0 (Array.length (Bridge.enumerate net))

let prop_bridge_four_per_pair =
  QCheck.Test.make ~name:"four bridges per non-feedback pair" ~count:60
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let nodes = Bridge.candidate_nodes net in
         let n = Array.length nodes in
         let pairs = ref 0 in
         for i = 0 to n - 1 do
           for j = i + 1 to n - 1 do
             if not (Bridge.is_feedback net nodes.(i) nodes.(j)) then
               incr pairs
           done
         done;
         Array.length (Bridge.enumerate net) = 4 * !pairs))

let prop_bridge_no_feedback_pairs =
  QCheck.Test.make ~name:"enumerated bridges are non-feedback" ~count:60
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         Array.for_all
           (fun (f : Bridge.t) ->
             not (Bridge.is_feedback net f.Bridge.victim f.Bridge.aggressor))
           (Bridge.enumerate net)))

let prop_bridge_enumerate_naive =
  QCheck.Test.make ~name:"enumerate = naive list-built order" ~count:60
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let reference = Ndetect_check.Ref_table.bridges net in
         let bridges = Bridge.enumerate net in
         Array.length bridges = Array.length reference
         && Array.for_all2 Bridge.equal bridges reference))

(* Up to 150 gates, so the candidate bitsets of the pair sweep span
   several words. *)
let wide_circuit_arbitrary =
  QCheck.make
    ~print:(fun (seed, inputs, gates) ->
      Printf.sprintf "seed=%d inputs=%d gates=%d" seed inputs gates)
    QCheck.Gen.(
      triple (int_bound 1_000_000) (int_range 2 8) (int_range 1 150))

(* The sweep against the reference enumeration, which tests each
   candidate pair with [is_feedback]: the same pairs in the same order
   (bridge [4p] of the reference is pair [p]'s (u,0,v,1)). *)
let pairs_match_reference net =
  let p = Bridge.pairs net in
  let reference = Ndetect_check.Ref_table.bridges net in
  Array.length reference = Bridge.count p
  && List.for_all
       (fun k ->
         let b = reference.(4 * k) in
         b.Bridge.victim = p.Bridge.first.(k)
         && b.Bridge.aggressor = p.Bridge.second.(k))
       (List.init (Array.length p.Bridge.first) Fun.id)

let prop_pairs_reference =
  QCheck.Test.make ~name:"pairs = reference non-feedback pairs" ~count:60
    wide_circuit_arbitrary
    (Helpers.apply_circuit pairs_match_reference)

let test_pairs_reference_suite () =
  List.iter
    (fun name ->
      let net =
        Ndetect_suite.Registry.circuit
          (Option.get (Ndetect_suite.Registry.find name))
      in
      Alcotest.(check bool) name true (pairs_match_reference net))
    [ "mc"; "bbara"; "log" ]

let test_stuck_to_string () =
  let net = Example.circuit () in
  let fault = { Stuck.line = Line.Stem 4; value = true } in
  Alcotest.(check string) "stem label" "9/1" (Stuck.to_string net fault)

let () =
  Alcotest.run "faults"
    [
      ( "stuck",
        [
          Alcotest.test_case "all count" `Quick test_all_faults_count;
          Alcotest.test_case "collapse example (paper indices)" `Quick
            test_collapse_example;
          Alcotest.test_case "collapse classes" `Quick
            test_collapse_classes_example;
          Alcotest.test_case "labels" `Quick test_stuck_to_string;
          Helpers.qcheck prop_collapse_equivalent;
          Helpers.qcheck prop_collapse_partition;
        ] );
      ( "bridge",
        [
          Alcotest.test_case "example candidates" `Quick
            test_bridge_candidates_example;
          Alcotest.test_case "feedback filtered" `Quick
            test_bridge_feedback_filtered;
          Alcotest.test_case "single-input gates excluded" `Quick
            test_bridge_excludes_single_input_gates;
          Helpers.qcheck prop_bridge_four_per_pair;
          Helpers.qcheck prop_bridge_no_feedback_pairs;
          Helpers.qcheck prop_bridge_enumerate_naive;
          Helpers.qcheck prop_pairs_reference;
          Alcotest.test_case "pairs = reference on suite circuits" `Quick
            test_pairs_reference_suite;
        ] );
    ]
