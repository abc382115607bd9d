module Netlist = Ndetect_circuit.Netlist
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Eval = Ndetect_sim.Eval
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Naive = Ndetect_sim.Naive
module Ternary_sim = Ndetect_sim.Ternary_sim
module Ternary = Ndetect_logic.Ternary
module Bitvec = Ndetect_util.Bitvec
module Telemetry = Ndetect_util.Telemetry
module Wired = Ndetect_faults.Wired
module Example = Ndetect_suite.Example
module Detection_table = Ndetect_core.Detection_table

let test_vector_codec () =
  let net = Example.circuit () in
  for v = 0 to 15 do
    Alcotest.(check int) "roundtrip" v
      (Eval.vector_of_assignment net (Eval.assignment_of_vector net v))
  done;
  (* Vector 6 = 0110: input 1 (MSB) is 0, inputs 2 and 3 are 1. *)
  Alcotest.(check (array bool)) "vector 6"
    [| false; true; true; false |]
    (Eval.assignment_of_vector net 6)

let test_example_outputs () =
  let net = Example.circuit () in
  (* Outputs are (9, 10, 11) = (x1&x2, x2&x3, x3|x4). *)
  for v = 0 to 15 do
    let x1 = v land 8 <> 0 and x2 = v land 4 <> 0 in
    let x3 = v land 2 <> 0 and x4 = v land 1 <> 0 in
    Alcotest.(check (array bool))
      (Printf.sprintf "vector %d" v)
      [| x1 && x2; x2 && x3; x3 || x4 |]
      (Eval.outputs_of_vector net v)
  done

(* The bit-parallel good table agrees with scalar evaluation everywhere. *)
let prop_good_matches_scalar =
  QCheck.Test.make ~name:"bit-parallel == scalar good sim" ~count:40
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let good = Good.compute net in
         let ok = ref true in
         for v = 0 to Good.universe good - 1 do
           let scalar = Eval.eval_vector net v in
           for node = 0 to Netlist.node_count net - 1 do
             if Good.value_bit good ~node ~vector:v <> scalar.(node) then
               ok := false
           done
         done;
         !ok))

(* Differential cone fault simulation agrees with naive full
   re-simulation for both fault models. *)
let prop_stuck_sim_matches_naive =
  QCheck.Test.make ~name:"stuck detection sets: cone == naive" ~count:25
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let good = Good.compute net in
         Array.for_all
           (fun fault ->
             Bitvec.equal
               (Fault_sim.stuck_detection_set good fault)
               (Naive.stuck_detection_set net fault))
           (Stuck.all net)))

let prop_bridge_sim_matches_naive =
  QCheck.Test.make ~name:"bridge detection sets: cone == naive" ~count:25
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let good = Good.compute net in
         Array.for_all
           (fun fault ->
             Bitvec.equal
               (Fault_sim.bridge_detection_set good fault)
               (Naive.bridge_detection_set net fault))
           (Bridge.enumerate net)))

(* The factored batch path (victim stem sets ANDed with aggressor
   rows, deduplicated into classes) must agree fault-for-fault with the
   independent single-fault simulations, which in turn match naive full
   re-simulation above. *)
let factored_bridge_sets good pairs =
  let c = Detection_table.bridge_classes ~keep_undetectable:true good pairs in
  Array.map (Array.get c.Detection_table.distinct) c.Detection_table.class_of

let prop_bridge_batch_matches_singles =
  QCheck.Test.make ~name:"bridge batch == per-fault simulation" ~count:25
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let good = Good.compute net in
         let pairs = Bridge.pairs net in
         let faults = Array.init (Bridge.count pairs) (Bridge.nth pairs) in
         let batch = factored_bridge_sets good pairs in
         Array.length batch = Array.length faults
         && Array.for_all2
              (fun set fault ->
                Bitvec.equal set (Fault_sim.bridge_detection_set good fault))
              batch faults))

let test_example_detection_sets () =
  (* Table 1 of the paper, fault by fault. *)
  let net = Example.circuit () in
  let good = Good.compute net in
  let faults = Stuck.collapse net in
  let set i = Bitvec.to_list (Fault_sim.stuck_detection_set good faults.(i)) in
  Alcotest.(check (list int)) "T(1/1)" [ 4; 5; 6; 7 ] (set 0);
  Alcotest.(check (list int)) "T(2/0)" [ 6; 7; 12; 13; 14; 15 ] (set 1);
  Alcotest.(check (list int)) "T(3/0)" [ 2; 6; 7; 10; 14; 15 ] (set 3);
  Alcotest.(check (list int)) "T(8/0)" [ 2; 6; 10; 14 ] (set 9);
  Alcotest.(check (list int)) "T(9/1)" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
    (set 11);
  Alcotest.(check (list int)) "T(10/0)" [ 6; 7; 14; 15 ] (set 12);
  Alcotest.(check (list int)) "T(11/0)"
    [ 1; 2; 3; 5; 6; 7; 9; 10; 11; 13; 14; 15 ]
    (set 14)

let test_example_bridge_sets () =
  let net = Example.circuit () in
  let good = Good.compute net in
  let bridges = Bridge.enumerate net in
  (* g0 = (9,0,10,1) is detected by exactly {6, 7}. *)
  Alcotest.(check (list int)) "T(g0)" [ 6; 7 ]
    (Bitvec.to_list (Fault_sim.bridge_detection_set good bridges.(0)));
  (* g6 = (9,1,11,0) is detected by exactly {12}. *)
  Alcotest.(check (list int)) "T(g6)" [ 12 ]
    (Bitvec.to_list (Fault_sim.bridge_detection_set good bridges.(6)))

let test_detects_stuck_single_vector () =
  let net = Example.circuit () in
  let good = Good.compute net in
  let faults = Stuck.collapse net in
  (* 1/1 detected by 4..7 only. *)
  for v = 0 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "1/1 at %d" v)
      (v >= 4 && v <= 7)
      (Fault_sim.detects_stuck good faults.(0) ~vector:v)
  done

let test_ternary_full_vectors_match_boolean () =
  let net = Example.circuit () in
  for v = 0 to 15 do
    let tern = Ternary_sim.eval net (Ternary_sim.test_of_vector net v) in
    let bools = Eval.eval_vector net v in
    Array.iteri
      (fun node b ->
        match Ternary.to_bool_opt tern.(node) with
        | Some tb -> Alcotest.(check bool) "agree" b tb
        | None -> Alcotest.fail "unexpected X on a full vector")
      bools
  done

let test_ternary_partial_detection () =
  let net = Example.circuit () in
  let faults = Stuck.collapse net in
  (* Fault 1/1 (i=0) is detected by any test with x1=0, x2=1 regardless of
     the other bits: the partially specified test 01-- must detect it. *)
  let t = Array.map Ternary.of_char [| '0'; '1'; '-'; '-' |] in
  Alcotest.(check bool) "01-- detects 1/1" true
    (Ternary_sim.detects_stuck net faults.(0) t);
  (* With x2 unknown, detection is not guaranteed. *)
  let t2 = Array.map Ternary.of_char [| '0'; '-'; '-'; '-' |] in
  Alcotest.(check bool) "0--- does not guarantee detection" false
    (Ternary_sim.detects_stuck net faults.(0) t2)

(* Pessimism: a partially specified test that detects the fault under
   three-valued simulation detects it for every completion. *)
let prop_ternary_detection_sound =
  QCheck.Test.make ~name:"3-valued detection is sound" ~count:20
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let good = Good.compute net in
         let faults = Stuck.collapse net in
         let universe = Good.universe good in
         let ok = ref true in
         Array.iteri
           (fun i fault ->
             if i < 6 then
               for v1 = 0 to min 7 (universe - 1) do
                 for v2 = 0 to min 7 (universe - 1) do
                   let tij =
                     Ternary_sim.common_test
                       (Ternary_sim.test_of_vector net v1)
                       (Ternary_sim.test_of_vector net v2)
                   in
                   if Ternary_sim.detects_stuck net fault tij then
                     (* Every completion consistent with tij detects. *)
                     for v = 0 to universe - 1 do
                       let consistent =
                         Array.for_all2
                           (fun tv bv ->
                             match Ternary.to_bool_opt tv with
                             | Some b -> Bool.equal b bv
                             | None -> true)
                           tij
                           (Eval.assignment_of_vector net v)
                       in
                       if
                         consistent
                         && not (Fault_sim.detects_stuck good fault ~vector:v)
                       then ok := false
                     done
                 done
               done)
           faults;
         !ok))

(* Definition 2's two-rail cone pass agrees with the whole-circuit
   3-valued re-simulation for every stem and branch fault and every
   common test [tij] of a vector pair. *)
let prop_ternary_cone_matches_full =
  QCheck.Test.make ~name:"cone-restricted 3-valued detection == full"
    ~count:25 Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let faults = Stuck.all net in
         let def2 = Ndetect_core.Definition2.of_faults net faults in
         let universe = Netlist.universe_size net in
         let ok = ref true in
         Array.iteri
           (fun fi fault ->
             for v1 = 0 to min 5 (universe - 1) do
               for v2 = 0 to min 5 (universe - 1) do
                 let tij =
                   Ternary_sim.common_test
                     (Ternary_sim.test_of_vector net v1)
                     (Ternary_sim.test_of_vector net v2)
                 in
                 if
                   Ndetect_core.Definition2.different def2 ~fi v1 v2
                   <> (v1 <> v2 && not (Ternary_sim.detects_stuck net fault tij))
                 then ok := false
               done
             done)
           faults;
         !ok))

let test_naive_branch_fault_localized () =
  (* A branch fault affects only its consuming pin: on the example, the
     branch 2>9 stuck-at-1 must not disturb gate 10. *)
  let net = Example.circuit () in
  let g9 = Option.get (Netlist.find_by_name net "9") in
  let fault = { Stuck.line = Line.Branch { gate = g9; pin = 1 }; value = true } in
  let assignment = Eval.assignment_of_vector net 8 (* 1000 *) in
  let values = Naive.eval_with_stuck net fault assignment in
  let g10 = Option.get (Netlist.find_by_name net "10") in
  Alcotest.(check bool) "gate 9 sees forced 1" true values.(g9);
  Alcotest.(check bool) "gate 10 unaffected" false values.(g10)

(* ------------------------------------------------------------------ *)
(* Stem-region tracing: the batched engine must be bit-identical to    *)
(* the per-fault cone reference on every fault model.                  *)
(* ------------------------------------------------------------------ *)

let prop_stuck_stem_matches_cone =
  QCheck.Test.make ~name:"stem stuck sets == cone stuck sets" ~count:40
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let good = Good.compute net in
         let faults = Stuck.all net in
         let cone = Array.map (Fault_sim.stuck_detection_set good) faults in
         let stem = Fault_sim.stuck_detection_sets good faults in
         Array.for_all2 Bitvec.equal cone stem))

let prop_bridge_stem_matches_cone =
  QCheck.Test.make ~name:"stem bridge sets == cone bridge sets" ~count:40
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let good = Good.compute net in
         let pairs = Bridge.pairs net in
         let faults = Array.init (Bridge.count pairs) (Bridge.nth pairs) in
         let cone = Array.map (Fault_sim.bridge_detection_set good) faults in
         (* The default build drops exactly the empty sets. *)
         let c = Detection_table.bridge_classes good pairs in
         let nonempty =
           List.filter
             (fun j -> not (Bitvec.is_empty cone.(j)))
             (List.init (Array.length faults) Fun.id)
         in
         Array.to_list c.Detection_table.kept = nonempty
         && Array.for_all2
              (fun j cls ->
                Bitvec.equal cone.(j) c.Detection_table.distinct.(cls))
              c.Detection_table.kept c.Detection_table.class_of))

(* Table 1 pinned a second time, against the batched engine, so a
   regression there cannot hide behind the per-fault path. *)
let test_example_detection_sets_stem () =
  let net = Example.circuit () in
  let good = Good.compute net in
  let faults = Stuck.collapse net in
  let sets = Fault_sim.stuck_detection_sets good faults in
  let set i = Bitvec.to_list sets.(i) in
  Alcotest.(check (list int)) "T(1/1)" [ 4; 5; 6; 7 ] (set 0);
  Alcotest.(check (list int)) "T(2/0)" [ 6; 7; 12; 13; 14; 15 ] (set 1);
  Alcotest.(check (list int)) "T(3/0)" [ 2; 6; 7; 10; 14; 15 ] (set 3);
  Alcotest.(check (list int)) "T(8/0)" [ 2; 6; 10; 14 ] (set 9);
  Alcotest.(check (list int)) "T(9/1)" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
    (set 11);
  Alcotest.(check (list int)) "T(10/0)" [ 6; 7; 14; 15 ] (set 12);
  Alcotest.(check (list int)) "T(11/0)"
    [ 1; 2; 3; 5; 6; 7; 9; 10; 11; 13; 14; 15 ]
    (set 14)

(* Wired bridges force two seeds per batch, so the batched call routes
   them to the per-fault cone path and counts each routed fault as a
   fallback. *)
let test_wired_stem_fallback () =
  let net = Example.circuit () in
  let good = Good.compute net in
  let faults = Wired.enumerate net Wired.Wired_and in
  let before = Telemetry.counter_value "sim.stem_fallbacks" in
  let sets = Fault_sim.wired_detection_sets good faults in
  let delta = Telemetry.counter_value "sim.stem_fallbacks" - before in
  Alcotest.(check int) "every wired fault falls back"
    (Array.length faults) delta;
  Alcotest.(check bool) "identical sets" true
    (Array.for_all2 Bitvec.equal
       (Array.map (Fault_sim.wired_detection_set good) faults)
       sets)

(* Stem work accounting is deterministic: the same batched call adds the
   same counter deltas regardless of how the slices were scheduled. *)
let test_stem_counter_determinism () =
  let net = Example.circuit () in
  let good = Good.compute net in
  let faults = Stuck.collapse net in
  let run () =
    let regions0 = Telemetry.counter_value "sim.stem_regions" in
    let cpt0 = Telemetry.counter_value "sim.cpt_faults" in
    ignore (Fault_sim.stuck_detection_sets good faults);
    ( Telemetry.counter_value "sim.stem_regions" - regions0,
      Telemetry.counter_value "sim.cpt_faults" - cpt0 )
  in
  let regions1, cpt1 = run () in
  let regions2, cpt2 = run () in
  Alcotest.(check int) "cpt_faults delta = fault count"
    (Array.length faults) cpt1;
  Alcotest.(check bool) "regions traced" true (regions1 > 0);
  Alcotest.(check (pair int int))
    "deltas identical across runs" (regions1, cpt1) (regions2, cpt2)

let () =
  Alcotest.run "sim"
    [
      ( "eval",
        [
          Alcotest.test_case "vector codec" `Quick test_vector_codec;
          Alcotest.test_case "example outputs" `Quick test_example_outputs;
        ] );
      ( "good",
        [ Helpers.qcheck prop_good_matches_scalar ] );
      ( "fault-sim",
        [
          Alcotest.test_case "example stuck sets (Table 1)" `Quick
            test_example_detection_sets;
          Alcotest.test_case "example bridge sets" `Quick
            test_example_bridge_sets;
          Alcotest.test_case "single-vector detects" `Quick
            test_detects_stuck_single_vector;
          Alcotest.test_case "branch fault localized" `Quick
            test_naive_branch_fault_localized;
          Helpers.qcheck prop_stuck_sim_matches_naive;
          Helpers.qcheck prop_bridge_sim_matches_naive;
          Helpers.qcheck prop_bridge_batch_matches_singles;
        ] );
      ( "stem",
        [
          Alcotest.test_case "example stuck sets (Table 1, stem)" `Quick
            test_example_detection_sets_stem;
          Alcotest.test_case "wired fallback accounting" `Quick
            test_wired_stem_fallback;
          Alcotest.test_case "counter determinism" `Quick
            test_stem_counter_determinism;
          Helpers.qcheck prop_stuck_stem_matches_cone;
          Helpers.qcheck prop_bridge_stem_matches_cone;
        ] );
      ( "ternary",
        [
          Alcotest.test_case "full vectors match boolean" `Quick
            test_ternary_full_vectors_match_boolean;
          Alcotest.test_case "partial detection" `Quick
            test_ternary_partial_detection;
          Helpers.qcheck prop_ternary_detection_sound;
          Helpers.qcheck prop_ternary_cone_matches_full;
        ] );
    ]
