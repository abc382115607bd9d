(* A final widening pass: pinned values and cross-model consistency
   checks that earlier suites did not cover. *)

module Netlist = Ndetect_circuit.Netlist
module Line = Ndetect_circuit.Line
module Scoap = Ndetect_circuit.Scoap
module Equiv = Ndetect_circuit.Equiv
module Stuck = Ndetect_faults.Stuck
module Wired = Ndetect_faults.Wired
module Bridge = Ndetect_faults.Bridge
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Bitvec = Ndetect_util.Bitvec
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Definition2 = Ndetect_core.Definition2
module Test_eval = Ndetect_core.Test_eval
module Partition = Ndetect_core.Partition
module Transition_analysis = Ndetect_core.Transition_analysis
module Lfsr = Ndetect_tgen.Lfsr
module Registry = Ndetect_suite.Registry
module Example = Ndetect_suite.Example

let c17 () = Registry.circuit (Option.get (Registry.find "c17"))

(* --- pinned c17 values ----------------------------------------------- *)

let test_c17_scoap () =
  let net = c17 () in
  let s = Scoap.compute net in
  let node name = Option.get (Netlist.find_by_name net name) in
  (* NAND(1,3): cc0 = sum cc1 + 1 = 3; cc1 = min cc0 + 1 = 2. *)
  Alcotest.(check int) "g10 cc0" 3 (Scoap.cc0 s (node "10"));
  Alcotest.(check int) "g10 cc1" 2 (Scoap.cc1 s (node "10"));
  (* POs observe for free. *)
  Alcotest.(check int) "g22 co" 0 (Scoap.co s (node "22"));
  (* Input 3 fans out to both first-level NANDs. *)
  Alcotest.(check bool) "input 3 has branches" true
    (Line.has_branches net (node "3"))

let test_c17_wired_model () =
  let net = c17 () in
  let table =
    Detection_table.build ~model:(Detection_table.Wired Wired.Wired_and) net
  in
  (* 6 NAND gates, all candidate nodes; non-feedback pairs only. *)
  let nodes = Bridge.candidate_nodes net in
  Alcotest.(check int) "six candidates" 6 (Array.length nodes);
  Alcotest.(check bool) "wired faults exist" true
    (Detection_table.untargeted_count table > 0);
  let worst = Worst_case.compute table in
  Alcotest.(check bool) "analysis completes with finite max" true
    (Worst_case.max_finite_nmin worst <> None)

let test_c17_transition () =
  let net = c17 () in
  let t = Transition_analysis.compute net in
  (* Every line of c17 takes both values and every stuck fault is
     detectable, so all transition faults are targets. *)
  let lines = Line.enumerate net in
  Alcotest.(check int) "all transition faults detectable"
    (2 * Array.length lines)
    (Transition_analysis.target_count t);
  match Transition_analysis.max_finite_nmin t with
  | Some m -> Alcotest.(check bool) "finite guarantee" true (m >= 1)
  | None -> Alcotest.fail "expected finite nmin"

(* --- cross-model consistency ----------------------------------------- *)

let test_test_eval_def2_matches_definition2 () =
  (* Test_eval's Definition-2 counting must agree with the core module's
     greedy count on identical inputs. *)
  let net = Example.circuit () in
  let table = Detection_table.build net in
  let def2 = Definition2.create table in
  let vectors = [| 4; 6; 12; 13; 3; 9 |] in
  let ev = Test_eval.evaluate net ~vectors in
  let counts = Test_eval.detections_def2 ev in
  for fi = 0 to Detection_table.target_count table - 1 do
    let detecting =
      Array.to_list vectors
      |> List.filter (fun v ->
             Bitvec.get (Detection_table.target_set table fi) v)
    in
    let expected, _ = Definition2.count_greedy def2 ~fi detecting in
    Alcotest.(check int)
      (Detection_table.target_label table fi)
      expected counts.(fi)
  done

let test_procedure1_modes_deterministic () =
  let table = Detection_table.build (Example.circuit ()) in
  List.iter
    (fun mode ->
      let run () =
        Procedure1.run table
          { Procedure1.seed = 77; set_count = 5; nmax = 3; mode }
      in
      let a = run () and b = run () in
      for k = 0 to 4 do
        Alcotest.(check (list int)) "same sets"
          (Procedure1.test_set (Procedure1.replay a ~k))
          (Procedure1.test_set (Procedure1.replay b ~k))
      done)
    [ Procedure1.Definition1; Procedure1.Definition2 ]

let test_partition_supports () =
  let net = Example.circuit () in
  (* Gate 9's cone uses inputs 1 and 2 only. *)
  let g9 = Option.get (Netlist.find_by_name net "9") in
  let support = Partition.support_of_outputs net [| g9 |] in
  Alcotest.(check (list string)) "support of gate 9" [ "1"; "2" ]
    (Array.to_list (Array.map (Netlist.name net) support));
  let block = Partition.extract net ~outputs:[| g9 |] in
  Alcotest.(check int) "2-input block" 2
    (Netlist.input_count block.Partition.subcircuit)

let test_wired_detectability_vs_fourway () =
  (* On the example circuit the wired-OR bridge between gates 9 and 10 is
     detected exactly when the two lines disagree (both being POs). *)
  let net = Example.circuit () in
  let good = Good.compute net in
  let g9 = Option.get (Netlist.find_by_name net "9") in
  let g10 = Option.get (Netlist.find_by_name net "10") in
  let wired_or =
    Fault_sim.wired_detection_set good
      { Wired.a = g9; b = g10; semantics = Wired.Wired_or }
  in
  let wired_and =
    Fault_sim.wired_detection_set good
      { Wired.a = g9; b = g10; semantics = Wired.Wired_and }
  in
  Alcotest.(check bool) "wired-or = wired-and on two POs" true
    (Bitvec.equal wired_or wired_and);
  (* And both equal the union of the pair's four-way faults. *)
  let bridges = Bridge.enumerate net in
  let union = Bitvec.create 16 in
  Array.iter
    (fun (b : Bridge.t) ->
      if
        (b.victim = g9 && b.aggressor = g10)
        || (b.victim = g10 && b.aggressor = g9)
      then Bitvec.union_in_place union (Fault_sim.bridge_detection_set good b))
    bridges;
  Alcotest.(check bool) "union of four-way = wired" true
    (Bitvec.equal union wired_or)

let test_lfsr_all_supported_widths_construct () =
  for w = 2 to 24 do
    let lfsr = Lfsr.create ~width:w () in
    let v = Lfsr.next lfsr in
    Alcotest.(check bool)
      (Printf.sprintf "width %d" w)
      true
      (v > 0 && v < 1 lsl w);
    Alcotest.(check bool) "taps non-empty" true (Lfsr.taps w <> [])
  done

let test_equiv_across_formats () =
  (* bench -> blif -> bench round trip stays equivalent. *)
  let net = c17 () in
  let via_blif = Ndetect_netparse.Blif.parse (Ndetect_netparse.Blif.print net ()) in
  (match Equiv.check net via_blif with
  | Equiv.Equivalent -> ()
  | r -> Alcotest.failf "not equivalent: %a" Equiv.pp_result r);
  let via_bench =
    Ndetect_netparse.Bench_format.parse (Ndetect_netparse.Bench_format.print net)
  in
  Alcotest.(check bool) "bench roundtrip" true (Equiv.equivalent net via_bench)

let () =
  Alcotest.run "more-coverage"
    [
      ( "c17-pinned",
        [
          Alcotest.test_case "scoap" `Quick test_c17_scoap;
          Alcotest.test_case "wired model" `Quick test_c17_wired_model;
          Alcotest.test_case "transition analysis" `Quick test_c17_transition;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "test_eval def2 = core def2" `Quick
            test_test_eval_def2_matches_definition2;
          Alcotest.test_case "all modes deterministic" `Quick
            test_procedure1_modes_deterministic;
          Alcotest.test_case "partition supports" `Quick
            test_partition_supports;
          Alcotest.test_case "wired vs four-way on POs" `Quick
            test_wired_detectability_vs_fourway;
          Alcotest.test_case "lfsr widths" `Quick
            test_lfsr_all_supported_widths_construct;
          Alcotest.test_case "equiv across formats" `Quick
            test_equiv_across_formats;
        ] );
    ]
