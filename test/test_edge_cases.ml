(* Edge cases and error paths across the libraries. *)

module Rng = Ndetect_util.Rng
module Bitvec = Ndetect_util.Bitvec
module Word = Ndetect_logic.Word
module Gate = Ndetect_circuit.Gate
module Netlist = Ndetect_circuit.Netlist
module Line = Ndetect_circuit.Line
module Cube = Ndetect_synth.Cube
module Encode = Ndetect_synth.Encode
module Multilevel = Ndetect_synth.Multilevel
module Stuck = Ndetect_faults.Stuck
module Eval = Ndetect_sim.Eval
module Good = Ndetect_sim.Good
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Partition = Ndetect_core.Partition
module Defect_level = Ndetect_core.Defect_level
module Example = Ndetect_suite.Example

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* A circuit with no multi-input gates: inverter chain. *)
let inverter_chain () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_input b ~name:"a" in
  let n1 = Netlist.Builder.add_gate b ~kind:Gate.Not ~fanins:[| a |] ~name:"n1" in
  let n2 = Netlist.Builder.add_gate b ~kind:Gate.Not ~fanins:[| n1 |] ~name:"n2" in
  Netlist.Builder.set_outputs b [| n2 |];
  Netlist.Builder.finalize b

let test_empty_untargeted_analysis () =
  let net = inverter_chain () in
  let table = Detection_table.build net in
  Alcotest.(check int) "no bridges" 0 (Detection_table.untargeted_count table);
  let worst = Worst_case.compute table in
  Alcotest.(check int) "count below" 0 (Worst_case.count_below worst 10);
  Alcotest.(check (float 1e-9)) "vacuous coverage" 1.0
    (Worst_case.coverage_guaranteed worst ~n:1);
  Alcotest.(check bool) "no max" true
    (Worst_case.max_finite_nmin worst = None);
  (* Procedure 1 still runs (it only needs targets). *)
  let outcome =
    Procedure1.run table
      { Procedure1.seed = 1; set_count = 3; nmax = 2;
        mode = Procedure1.Definition1 }
  in
  Alcotest.(check bool) "sets nonempty" true
    (Procedure1.test_set (Procedure1.replay outcome ~k:0) <> [])

let test_collapse_inverter_chain () =
  let net = inverter_chain () in
  (* a/0 = n1/1 = n2/0 and a/1 = n1/0 = n2/1: two classes. *)
  Alcotest.(check int) "two classes" 2 (Array.length (Stuck.collapse net))

let test_procedure1_bad_config () =
  let table = Detection_table.build (Example.circuit ()) in
  Alcotest.(check bool) "bad k" true
    (raises_invalid (fun () ->
         Procedure1.run table
           { Procedure1.seed = 1; set_count = 0; nmax = 2;
             mode = Procedure1.Definition1 }));
  Alcotest.(check bool) "bad nmax" true
    (raises_invalid (fun () ->
         Procedure1.run table
           { Procedure1.seed = 1; set_count = 1; nmax = 0;
             mode = Procedure1.Definition1 }))

let test_procedure1_untracked_fault () =
  let table = Detection_table.build (Example.circuit ()) in
  let outcome =
    Procedure1.run ~report_faults:[| 0 |] table
      { Procedure1.seed = 1; set_count = 2; nmax = 1;
        mode = Procedure1.Definition1 }
  in
  Alcotest.(check bool) "untracked gj rejected" true
    (raises_invalid (fun () ->
         Procedure1.detected_count outcome ~n:1 ~gj:5));
  Alcotest.(check bool) "out-of-range n rejected" true
    (raises_invalid (fun () -> Procedure1.detected_count outcome ~n:2 ~gj:0))

let test_good_of_vectors_errors () =
  let net = Example.circuit () in
  Alcotest.(check bool) "empty patterns" true
    (raises_invalid (fun () -> Good.of_vectors net [||]))

let test_eval_arity_errors () =
  let net = Example.circuit () in
  Alcotest.(check bool) "assignment arity" true
    (raises_invalid (fun () -> Eval.eval_assignment net [| true |]));
  Alcotest.(check bool) "vector range" true
    (raises_invalid (fun () -> Eval.eval_vector net 16));
  Alcotest.(check bool) "vector negative" true
    (raises_invalid (fun () -> Eval.eval_vector net (-1)))

let test_cube_errors () =
  Alcotest.(check bool) "contains arity" true
    (raises_invalid (fun () ->
         Cube.contains (Cube.of_string "01") (Cube.of_string "011")));
  Alcotest.(check bool) "merge arity" true
    (raises_invalid (fun () ->
         Cube.merge_distance1 (Cube.of_string "0") (Cube.of_string "01")))

let test_encode_errors () =
  Alcotest.(check bool) "zero states" true
    (raises_invalid (fun () -> Encode.bit_count Encode.Binary ~states:0));
  Alcotest.(check bool) "index out of range" true
    (raises_invalid (fun () -> Encode.code Encode.Gray ~states:4 4))

let test_multilevel_bad_fanin () =
  let net = Example.circuit () in
  Alcotest.(check bool) "max_fanin < 2" true
    (raises_invalid (fun () -> Multilevel.decompose ~max_fanin:1 net))

let test_partition_bad_args () =
  let net = Example.circuit () in
  Alcotest.(check bool) "max_inputs < 1" true
    (raises_invalid (fun () -> Partition.blocks net ~max_inputs:0))

let test_partition_single_block () =
  (* Generous budget: everything lands in one block equal to the whole
     circuit's cones. *)
  let net = Example.circuit () in
  let blocks = Partition.blocks net ~max_inputs:16 in
  Alcotest.(check int) "one block" 1 (List.length blocks);
  let block = List.hd blocks in
  Alcotest.(check int) "all outputs" 3 (Array.length block.Partition.outputs)

let test_defect_level_errors () =
  let net = Example.circuit () in
  Alcotest.(check bool) "empty test set" true
    (raises_invalid (fun () -> Defect_level.compute net ~vectors:[||]));
  let dl = Defect_level.compute net ~vectors:[| 1; 2 |] in
  Alcotest.(check bool) "bad q" true
    (raises_invalid (fun () -> Defect_level.escape_probability ~q:1.5 dl))

let test_line_display_number_unknown () =
  let net = Example.circuit () in
  Alcotest.(check bool) "bogus line" true
    (raises_invalid (fun () ->
         Line.display_number net (Line.Branch { gate = 4; pin = 0 })))

let test_word_input_pattern_errors () =
  Alcotest.(check bool) "bad bit" true
    (raises_invalid (fun () ->
         Word.input_pattern ~universe:16 ~batch:0 ~bit:4 ~pi_count:4))

let test_detection_table_keep_undetectable () =
  (* y = OR(a, NOT a): constant 1; y/1 is undetectable. *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_input b ~name:"a" in
  let na = Netlist.Builder.add_gate b ~kind:Gate.Not ~fanins:[| a |] ~name:"na" in
  let y = Netlist.Builder.add_gate b ~kind:Gate.Or ~fanins:[| a; na |] ~name:"y" in
  Netlist.Builder.set_outputs b [| y |];
  let net = Netlist.Builder.finalize b in
  let dropped = Detection_table.build net in
  let kept = Detection_table.build ~keep_undetectable_targets:true net in
  Alcotest.(check bool) "kept has more targets" true
    (Detection_table.target_count kept > Detection_table.target_count dropped);
  Alcotest.(check bool) "dropped counts them" true
    (Detection_table.undetectable_target_count dropped > 0)

let test_find_untargeted_unknown_node () =
  let table = Detection_table.build (Example.circuit ()) in
  Alcotest.(check bool) "unknown node" true
    (raises_invalid (fun () ->
         Detection_table.find_untargeted table ~victim:"nope"
           ~victim_value:true ~aggressor:"9" ~aggressor_value:false))

let test_rng_float_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_bitvec_equal_hash () =
  let a = Bitvec.of_list 100 [ 1; 63 ] in
  let b = Bitvec.of_list 100 [ 1; 63 ] in
  let c = Bitvec.of_list 100 [ 1; 62 ] in
  let d = Bitvec.of_list 101 [ 1; 63 ] in
  Alcotest.(check bool) "equal contents equal" true (Bitvec.equal a b);
  Alcotest.(check int) "equal contents equal hashes" (Bitvec.hash a)
    (Bitvec.hash b);
  Alcotest.(check bool) "different contents differ" false (Bitvec.equal a c);
  Alcotest.(check bool) "different lengths differ" false (Bitvec.equal a d)

let () =
  Alcotest.run "edge-cases"
    [
      ( "degenerate-circuits",
        [
          Alcotest.test_case "no untargeted faults" `Quick
            test_empty_untargeted_analysis;
          Alcotest.test_case "inverter-chain collapse" `Quick
            test_collapse_inverter_chain;
          Alcotest.test_case "undetectable targets kept/dropped" `Quick
            test_detection_table_keep_undetectable;
        ] );
      ( "errors",
        [
          Alcotest.test_case "procedure1 config" `Quick
            test_procedure1_bad_config;
          Alcotest.test_case "procedure1 untracked fault" `Quick
            test_procedure1_untracked_fault;
          Alcotest.test_case "good of_vectors" `Quick
            test_good_of_vectors_errors;
          Alcotest.test_case "eval arity" `Quick test_eval_arity_errors;
          Alcotest.test_case "cube arity" `Quick test_cube_errors;
          Alcotest.test_case "encode" `Quick test_encode_errors;
          Alcotest.test_case "multilevel fanin" `Quick
            test_multilevel_bad_fanin;
          Alcotest.test_case "partition args" `Quick test_partition_bad_args;
          Alcotest.test_case "defect level" `Quick test_defect_level_errors;
          Alcotest.test_case "line display number" `Quick
            test_line_display_number_unknown;
          Alcotest.test_case "word input pattern" `Quick
            test_word_input_pattern_errors;
          Alcotest.test_case "find_untargeted" `Quick
            test_find_untargeted_unknown_node;
        ] );
      ( "misc",
        [
          Alcotest.test_case "partition single block" `Quick
            test_partition_single_block;
          Alcotest.test_case "rng float range" `Quick test_rng_float_range;
          Alcotest.test_case "bitvec equal and hash" `Quick
            test_bitvec_equal_hash;
        ] );
    ]
