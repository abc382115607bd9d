(* Differential oracle subsystem: the reference implementations agree
   with the optimized stack on fixed and random circuits, and the
   --mutate self-test proves a seeded wrong answer is reported. *)

module Bitvec = Ndetect_util.Bitvec
module Netlist = Ndetect_circuit.Netlist
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Definition2 = Ndetect_core.Definition2
module Procedure1 = Ndetect_core.Procedure1
module Example = Ndetect_suite.Example
module Random_circuit = Ndetect_suite.Random_circuit
module Ref_eval = Ndetect_check.Ref_eval
module Ref_table = Ndetect_check.Ref_table
module Ref_worst = Ndetect_check.Ref_worst
module Ref_def2 = Ndetect_check.Ref_def2
module Ref_procedure1 = Ndetect_check.Ref_procedure1
module Campaign = Ndetect_check.Campaign

let no_divergences label divs =
  Alcotest.(check int)
    (label ^ ": no divergences"
    ^
    match divs with
    | [] -> ""
    | d :: _ ->
      Printf.sprintf " (first: %s ref=%s opt=%s)" d.Campaign.cell
        d.Campaign.expected d.Campaign.actual)
    0 (List.length divs)

(* The paper's worked example (Figure 1) must agree cell for cell in
   every Procedure 1 mode. *)
let test_example_circuit_agrees () =
  List.iter
    (fun mode ->
      no_divergences "example"
        (Campaign.check_net ~proc_mode:mode ~seed:3 (Example.circuit ())))
    [ Procedure1.Definition1; Procedure1.Definition2 ]

(* The reference tables reproduce the example's published numbers
   independently of the optimized stack. *)
let test_ref_table_example_numbers () =
  let net = Example.circuit () in
  let rt = Ref_table.build net in
  let table = Detection_table.build net in
  Alcotest.(check int)
    "target count" (Detection_table.target_count table)
    (Ref_table.target_count rt);
  Alcotest.(check int)
    "untargeted count"
    (Detection_table.untargeted_count table)
    (Ref_table.untargeted_count rt)

let test_ref_worst_unbounded () =
  (* A fault with no intersecting target set gets the sentinel. *)
  Alcotest.(check int) "sentinel" max_int Ref_worst.unbounded

(* Definition 2 verdicts: two-rail cone oracle vs whole-circuit ternary
   re-evaluation, all pairs over the example circuit's universe. *)
let test_def2_all_pairs_example () =
  let net = Example.circuit () in
  let rt = Ref_table.build net in
  let table = Detection_table.build net in
  let universe = Ref_table.universe rt in
  let opt = Definition2.create table in
  let refo =
    Ref_def2.create net
      (Array.init (Ref_table.target_count rt) (Ref_table.target_fault rt))
  in
  for fi = 0 to Ref_table.target_count rt - 1 do
    for v1 = 0 to universe - 1 do
      for v2 = 0 to universe - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "different(f%d,%d,%d)" fi v1 v2)
          (Ref_def2.different refo ~fi v1 v2)
          (Definition2.different opt ~fi v1 v2)
      done
    done
  done

(* The batched chain extension against the reference on chains of 0..70
   vectors, so they cross the 62-lane batch boundary, with [v] itself
   among the members one time in twenty. In half the cases the first 62
   members are drawn from vectors the reference calls different from
   [v], so the verdict rests on the spilled second batch. Every fault of
   the circuit is checked, and circuits without branch faults are
   skipped. *)
let prop_chain_extend_matches_ref =
  QCheck.Test.make ~count:30 ~name:"def2 chain_extend == reference (lane spill)"
    QCheck.(pair Helpers.circuit_arbitrary small_nat)
    (fun (spec, seed) ->
      let net = Helpers.apply_circuit Fun.id spec in
      let faults = Stuck.all net in
      QCheck.assume
        (Array.exists
           (fun f ->
             match f.Stuck.line with
             | Line.Branch _ -> true
             | Line.Stem _ -> false)
           faults);
      let opt = Definition2.of_faults net faults in
      let refo = Ref_def2.create net faults in
      let universe = Netlist.universe_size net in
      let rng = Random.State.make [| seed |] in
      let ok = ref true in
      Array.iteri
        (fun fi _ ->
          let v = Random.State.int rng universe in
          let different =
            Array.of_list
              (List.filter (Ref_def2.different refo ~fi v)
                 (List.init universe Fun.id))
          in
          let spill = Random.State.bool rng && Array.length different > 0 in
          let chain =
            List.init (Random.State.int rng 71) (fun i ->
                if spill && i < 62 then
                  different.(Random.State.int rng (Array.length different))
                else if Random.State.int rng 20 = 0 then v
                else Random.State.int rng universe)
          in
          if
            Definition2.chain_extend opt ~fi ~chain v
            <> Ref_def2.chain_extend refo ~fi ~chain v
          then ok := false)
        faults;
      !ok)

(* The packed entry points against the reference. Chains have 0..70
   members, so candidate groups straddle the 62-lane edge and both the
   one-candidate-per-pass (> 31) and the spilled (> 62) paths run; the
   candidate count is drawn independently of the group size. In half the
   cases the chain is the reference's greedy chain over a shuffled
   universe, which no candidate extends, so the whole list is scanned.
   [extend_many] gets the same faults, each with its chain, and one
   vector. *)
let prop_packed_matches_ref =
  QCheck.Test.make ~count:30
    ~name:"def2 first_extending/extend_many == reference"
    QCheck.(pair Helpers.circuit_arbitrary small_nat)
    (fun (spec, seed) ->
      let net = Helpers.apply_circuit Fun.id spec in
      let faults = Stuck.all net in
      let opt = Definition2.of_faults net faults in
      let refo = Ref_def2.create net faults in
      let universe = Netlist.universe_size net in
      let rng = Random.State.make [| seed |] in
      let shuffled () =
        let a = Array.init universe Fun.id in
        for i = universe - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        a
      in
      let chain_for fi =
        if Random.State.bool rng then
          Array.fold_left
            (fun chain v ->
              if Ref_def2.chain_extend refo ~fi ~chain v then v :: chain
              else chain)
            [] (shuffled ())
        else
          List.init (Random.State.int rng 71) (fun _ ->
              Random.State.int rng universe)
      in
      (* Ten faults drawn with repeats: [extend_many] must handle a
         fault listed twice. *)
      let fis =
        Array.init 10 (fun _ -> Random.State.int rng (Array.length faults))
      in
      let chains = Array.make (Array.length faults) [] in
      Array.iter (fun fi -> chains.(fi) <- chain_for fi) fis;
      let first_ok fi =
        let chain = chains.(fi) in
        let candidates =
          Array.sub (shuffled ()) 0 (Random.State.int rng (universe + 1))
        in
        Definition2.first_extending opt ~fi ~chain candidates
        = Array.find_opt (Ref_def2.chain_extend refo ~fi ~chain) candidates
      in
      let v = Random.State.int rng universe in
      Array.for_all first_ok fis
      && Definition2.extend_many opt ~chains fis v
         = Array.map
             (fun fi -> Ref_def2.chain_extend refo ~fi ~chain:chains.(fi) v)
             fis)

(* Procedure 1 under Definition 2 on circuits of 8 inputs, where chains
   grow long enough (nmax = 10) for several candidates and several
   faults to share a pass: every test set and chain must equal the
   sequential reference replay. With the lane-group sabotage armed, some
   outcome must change, which shows that the runs did pack passes. *)
let test_def2_procedure1_wide () =
  let sabotaged = ref false in
  List.iter
    (fun seed ->
      let net = Helpers.random_circuit ~seed ~inputs:8 ~gates:30 in
      let cfg =
        { Procedure1.seed; set_count = 3; nmax = 10;
          mode = Procedure1.Definition2 }
      in
      let table = Detection_table.build net in
      let refo = Ref_procedure1.run (Ref_table.build net) cfg in
      let outcome opt =
        List.init cfg.Procedure1.set_count (fun k ->
            let set = Procedure1.replay opt ~k in
            ( Procedure1.test_set set,
              List.init (Detection_table.target_count table) (fun fi ->
                  Procedure1.chain_def2 set ~fi) ))
      in
      let expected =
        List.init cfg.Procedure1.set_count (fun k ->
            ( Ref_procedure1.test_set refo ~k,
              List.init (Detection_table.target_count table) (fun fi ->
                  Ref_procedure1.chain_def2 refo ~k ~fi) ))
      in
      Alcotest.(check (list (pair (list int) (list (list int)))))
        (Printf.sprintf "seed %d: test sets and chains" seed)
        expected
        (outcome (Procedure1.run table cfg));
      Definition2.debug_corrupt_lanes := true;
      let corrupted =
        Fun.protect
          ~finally:(fun () -> Definition2.debug_corrupt_lanes := false)
          (fun () -> outcome (Procedure1.run table cfg))
      in
      if corrupted <> expected then sabotaged := true)
    [ 5; 17 ];
  Alcotest.(check bool) "sabotaged lane groups change an outcome" true
    !sabotaged

(* The --mutate self-test of the packed Definition 2 passes: the lane
   checks of the campaign report both entry points. *)
let test_lane_mutation_caught () =
  let rng = Ndetect_util.Rng.create ~seed:11 in
  let cells =
    List.concat_map
      (fun _ ->
        let spec = Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16 in
        List.map
          (fun d -> d.Campaign.cell)
          (Campaign.check_spec ~mutate:true spec))
      (List.init 6 Fun.id)
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (prefix ^ " cells diverge") true
        (List.exists (String.starts_with ~prefix) cells))
    [ "def2_first("; "def2_many(" ];
  Alcotest.(check bool)
    "hook disarmed afterwards" false !Definition2.debug_corrupt_lanes

(* The factored bridge build's self-test: [mutate] also inverts one
   aggressor row (Detection_table.debug_flip_aggressor), which the
   bridge-set cells against Ref_table must report. *)
let test_aggressor_flip_caught () =
  let rng = Ndetect_util.Rng.create ~seed:11 in
  let cells =
    List.concat_map
      (fun _ ->
        let spec = Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16 in
        List.map
          (fun d -> d.Campaign.cell)
          (Campaign.check_spec ~mutate:true spec))
      (List.init 6 Fun.id)
  in
  Alcotest.(check bool)
    "T(g) cells diverge" true
    (List.exists (String.starts_with ~prefix:"T(g") cells);
  Alcotest.(check bool)
    "hook disarmed afterwards" false !Detection_table.debug_flip_aggressor

(* The content index's self-test: trusting a 4-bit hash without the
   word check merges distinct bridge products, which the bridge-set
   cells against Ref_table must report. The hook is armed on its own
   here before each clean check, which builds with it and disarms it
   afterwards; [mutate] arms it together with the others. *)
let test_trusted_hash_caught () =
  let rng = Ndetect_util.Rng.create ~seed:11 in
  let specs =
    List.init 6 (fun _ ->
        Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16)
  in
  let cells =
    List.concat_map
      (fun spec ->
        Detection_table.debug_trust_hash := true;
        List.map (fun d -> d.Campaign.cell) (Campaign.check_spec spec))
      specs
  in
  Alcotest.(check bool)
    "T(g) cells diverge" true
    (List.exists (String.starts_with ~prefix:"T(g") cells);
  Alcotest.(check bool)
    "hook disarmed after a clean run" false !Detection_table.debug_trust_hash;
  List.iter
    (fun spec -> ignore (Campaign.check_spec ~mutate:true spec))
    specs;
  Alcotest.(check bool)
    "hook disarmed after a mutate run" false
    !Detection_table.debug_trust_hash

(* The pair sweep's self-test: leaving out the first non-feedback pair
   (Bridge.debug_drop_pair) must show against Ref_table, which lists
   the pairs with Bridge.is_feedback: the kept-bridge count, or a
   bridge set looked up by fault. Armed alone before each clean check,
   which builds with it and disarms it afterwards; [mutate] arms it
   together with the others. *)
let test_dropped_pair_caught () =
  let rng = Ndetect_util.Rng.create ~seed:11 in
  let specs =
    List.init 6 (fun _ ->
        Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16)
  in
  let cells =
    List.concat_map
      (fun spec ->
        Ndetect_faults.Bridge.debug_drop_pair := true;
        List.map (fun d -> d.Campaign.cell) (Campaign.check_spec spec))
      specs
  in
  Alcotest.(check bool)
    "untargeted count or T(g) cells diverge" true
    (List.exists
       (fun c ->
         String.starts_with ~prefix:"untargeted kept" c
         || String.starts_with ~prefix:"T(g" c)
       cells);
  Alcotest.(check bool)
    "hook disarmed after a clean run" false
    !Ndetect_faults.Bridge.debug_drop_pair;
  List.iter
    (fun spec -> ignore (Campaign.check_spec ~mutate:true spec))
    specs;
  Alcotest.(check bool)
    "hook disarmed after a mutate run" false
    !Ndetect_faults.Bridge.debug_drop_pair

(* Procedure 1's self-test: a draw range one short of N(f) - count
   (Procedure1.debug_stale_count) must show in the Procedure 1 cells
   against Ref_procedure1, which counts the unused tests on its own.
   Armed alone before each clean check, which runs Procedure 1 with it
   and disarms it afterwards; [mutate] arms it together with the
   others. *)
let test_stale_count_caught () =
  let rng = Ndetect_util.Rng.create ~seed:11 in
  let specs =
    List.init 6 (fun _ ->
        Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16)
  in
  let cells =
    List.concat_map
      (fun spec ->
        Procedure1.debug_stale_count := true;
        List.map (fun d -> d.Campaign.cell) (Campaign.check_spec spec))
      specs
  in
  (* Both kinds: the d(n, g) tallies come from the sabotaged run, and
     the test sets from replays made while the hook is still armed. *)
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (prefix ^ " cells diverge")
        true
        (List.exists (String.starts_with ~prefix) cells))
    [ "test_set("; "d(" ];
  Alcotest.(check bool)
    "hook disarmed after a clean run" false !Procedure1.debug_stale_count;
  List.iter
    (fun spec -> ignore (Campaign.check_spec ~mutate:true spec))
    specs;
  Alcotest.(check bool)
    "hook disarmed after a mutate run" false !Procedure1.debug_stale_count

(* Definition 2's batch of chain verdicts: leaving out its first open
   fault (Procedure1.debug_skip_open) must show in the chain and test
   set cells against Ref_procedure1, which asks every open fault. Run in
   Definition 2 mode, with the hook armed alone before each clean
   check; [mutate] arms it together with the others. *)
let test_skipped_open_caught () =
  let rng = Ndetect_util.Rng.create ~seed:17 in
  let specs =
    List.init 6 (fun _ ->
        Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16)
  in
  let check ?mutate spec =
    Campaign.check_net ?mutate ~proc_mode:Procedure1.Definition2
      ~seed:spec.Random_circuit.seed (Random_circuit.of_spec spec)
  in
  let cells =
    List.concat_map
      (fun spec ->
        Procedure1.debug_skip_open := true;
        List.map (fun d -> d.Campaign.cell) (check spec))
      specs
  in
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (prefix ^ " cells diverge")
        true
        (List.exists (String.starts_with ~prefix) cells))
    [ "chain("; "test_set(" ];
  Alcotest.(check bool)
    "hook disarmed after a clean run" false !Procedure1.debug_skip_open;
  List.iter (fun spec -> ignore (check ~mutate:true spec)) specs;
  Alcotest.(check bool)
    "hook disarmed after a mutate run" false !Procedure1.debug_skip_open

(* A worst-case scan that skips its first block of target rows
   (Worst_case.debug_skip_first_block) must show in the nmin cells
   against Ref_worst. Armed alone before each clean check, which runs
   the scan with it and disarms it afterwards; [mutate] arms it
   together with the others. *)
let test_skipped_block_caught () =
  let rng = Ndetect_util.Rng.create ~seed:13 in
  let specs =
    List.init 6 (fun _ ->
        Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16)
  in
  let cells =
    List.concat_map
      (fun spec ->
        Worst_case.debug_skip_first_block := true;
        List.map (fun d -> d.Campaign.cell) (Campaign.check_spec spec))
      specs
  in
  Alcotest.(check bool)
    "nmin cells diverge" true
    (List.exists (String.starts_with ~prefix:"nmin(") cells);
  Alcotest.(check bool)
    "hook disarmed after a clean run" false !Worst_case.debug_skip_first_block;
  List.iter
    (fun spec -> ignore (Campaign.check_spec ~mutate:true spec))
    specs;
  Alcotest.(check bool)
    "hook disarmed after a mutate run" false
    !Worst_case.debug_skip_first_block

(* Random-circuit property: a clean campaign finds no divergences. Kept
   small; the runtest rule on the CLI runs a larger one and the full
   campaign is `ndetect check --circuits 200 --seed 42`. *)
let test_clean_campaign () =
  let report = Campaign.run ~circuits:8 ~seed:42 ~max_pi:5 () in
  Alcotest.(check int) "circuits" 8 report.Campaign.circuits_run;
  Alcotest.(check int)
    ("no failures: " ^ Campaign.render report)
    0
    (List.length report.Campaign.failures);
  Alcotest.(check bool)
    "no reproducer" true
    (report.Campaign.reproducer = None)

let prop_random_circuit_agrees =
  QCheck.Test.make ~count:15 ~name:"optimized stack agrees with reference"
    Helpers.circuit_arbitrary (fun (seed, inputs, gates) ->
      (* Bound the universe: the oracle is exhaustive. *)
      let inputs = min inputs 5 in
      let spec = { Random_circuit.seed; inputs; gates = min gates 12 } in
      Campaign.check_spec spec = [])

(* The self-test: a seeded single-bit corruption of one optimized
   detection set must be reported and shrink to a smaller spec. *)
let test_mutate_campaign_catches_bug () =
  let report = Campaign.run ~mutate:true ~circuits:3 ~seed:7 ~max_pi:4 () in
  Alcotest.(check bool)
    "at least one failure" true
    (report.Campaign.failures <> []);
  match report.Campaign.reproducer with
  | None -> Alcotest.fail "mutate campaign produced no reproducer"
  | Some (spec, d) ->
    let orig = (List.hd report.Campaign.failures).Campaign.spec in
    Alcotest.(check bool)
      "shrunk spec is no larger" true
      (spec.Random_circuit.gates <= orig.Random_circuit.gates
      && spec.Random_circuit.inputs <= orig.Random_circuit.inputs);
    (* The shrunk spec still reproduces. *)
    Alcotest.(check bool)
      "reproducer diverges" true
      (Campaign.check_spec ~mutate:true spec <> []);
    Alcotest.(check bool) "divergence has a cell" true (d.Campaign.cell <> "")

(* The sampled-scan self-test: with the scan input sabotaged
   (Estimate.debug_corrupt_scan), the dmin cells alone must report it;
   clean, they agree with the reference loop. *)
let test_sampled_scan_mutation_caught () =
  let rng = Ndetect_util.Rng.create ~seed:7 in
  let nets =
    List.init 6 (fun _ ->
        let spec = Random_circuit.draw_spec rng ~max_inputs:5 ~max_gates:16 in
        (spec.Random_circuit.seed, Random_circuit.of_spec spec))
  in
  List.iter
    (fun (seed, net) ->
      no_divergences "clean sampled scan" (Campaign.check_sampled ~seed net))
    nets;
  let caught =
    List.concat_map
      (fun (seed, net) -> Campaign.check_sampled ~mutate:true ~seed net)
      nets
  in
  Alcotest.(check bool) "sabotaged scan caught" true (caught <> []);
  Alcotest.(check bool)
    "only dmin cells diverge" true
    (List.for_all
       (fun d -> String.starts_with ~prefix:"dmin(g" d.Campaign.cell)
       caught);
  Alcotest.(check bool)
    "hook disarmed afterwards" false
    !Ndetect_estimate.Estimate.debug_corrupt_scan

(* Stem-engine self-test, same philosophy as --mutate: corrupt the
   critical-path sensitization words (complement every in-region rung)
   and the differential campaign must notice. Proves the campaign
   actually exercises the traced path. *)
let test_corrupt_sensitization_caught () =
  Ndetect_sim.Fault_sim.debug_corrupt_sensitization := true;
  Fun.protect
    ~finally:(fun () ->
      Ndetect_sim.Fault_sim.debug_corrupt_sensitization := false)
    (fun () ->
      Alcotest.(check bool)
        "campaign catches corrupted sensitization" true
        (Campaign.check_net ~seed:3 (Example.circuit ()) <> []))

(* The small-tier sweep rebuilds every table on the production path
   and compares it with per-fault simulation, so the same sabotage must
   show there too. *)
let test_corrupt_sensitization_caught_by_suite () =
  Ndetect_sim.Fault_sim.debug_corrupt_sensitization := true;
  let report =
    Fun.protect
      ~finally:(fun () ->
        Ndetect_sim.Fault_sim.debug_corrupt_sensitization := false)
      (fun () -> Campaign.check_suite ())
  in
  Alcotest.(check bool) "small-tier circuits swept" true
    (report.Campaign.checked > 0);
  Alcotest.(check bool)
    "sweep catches corrupted sensitization" true
    (report.Campaign.divergent <> [])

let test_corrupt_target_set_is_local () =
  let net = Example.circuit () in
  let table = Detection_table.build net in
  let before =
    Array.init (Detection_table.target_count table) (fun fi ->
        Bitvec.to_list (Detection_table.target_set table fi))
  in
  Detection_table.corrupt_target_set table ~fi:0 ~vector:0;
  let changed = ref 0 in
  Array.iteri
    (fun fi old ->
      if Bitvec.to_list (Detection_table.target_set table fi) <> old then
        incr changed)
    before;
  Alcotest.(check int) "exactly one set changed" 1 !changed

let test_shrink_requires_divergence () =
  Alcotest.check_raises "non-diverging spec"
    (Invalid_argument "Campaign.shrink: spec does not diverge")
    (fun () ->
      ignore
        (Campaign.shrink { Random_circuit.seed = 1; inputs = 2; gates = 2 }))

(* Ref_eval's from-scratch semantics pin down the basics on a circuit
   small enough to check by hand: g = AND(i0, i1), observed. *)
let test_ref_eval_hand_checked () =
  let b = Netlist.Builder.create () in
  let i0 = Netlist.Builder.add_input b ~name:"i0" in
  let i1 = Netlist.Builder.add_input b ~name:"i1" in
  let g =
    Netlist.Builder.add_gate b ~kind:Ndetect_circuit.Gate.And
      ~fanins:[| i0; i1 |] ~name:"g"
  in
  Netlist.Builder.set_outputs b [| g |];
  let net = Netlist.Builder.finalize b in
  (* Vector 3 = i0:1 i1:1 (first input is the MSB). *)
  Alcotest.(check bool) "AND(1,1)" true (Ref_eval.good_outputs net 3).(0);
  Alcotest.(check bool) "AND(1,0)" false (Ref_eval.good_outputs net 2).(0);
  (* Output stuck-at-0 is detected exactly by vector 3. *)
  let fault =
    { Ndetect_faults.Stuck.line = Ndetect_circuit.Line.Stem g; value = false }
  in
  Alcotest.(check bool) "sa0 at 3" true (Ref_eval.detects_stuck net fault 3);
  Alcotest.(check bool) "sa0 at 2" false (Ref_eval.detects_stuck net fault 2)

let () =
  Alcotest.run "check"
    [
      ( "differential",
        [
          Alcotest.test_case "example circuit agrees (all modes)" `Quick
            test_example_circuit_agrees;
          Alcotest.test_case "ref table shapes match" `Quick
            test_ref_table_example_numbers;
          Alcotest.test_case "ref worst sentinel" `Quick
            test_ref_worst_unbounded;
          Alcotest.test_case "def2 all pairs (example)" `Quick
            test_def2_all_pairs_example;
          Alcotest.test_case "clean campaign" `Quick test_clean_campaign;
          Helpers.qcheck prop_random_circuit_agrees;
          Helpers.qcheck prop_chain_extend_matches_ref;
          Helpers.qcheck prop_packed_matches_ref;
          Alcotest.test_case "def2 Procedure 1 on 8 inputs" `Quick
            test_def2_procedure1_wide;
        ] );
      ( "self-test",
        [
          Alcotest.test_case "mutate campaign catches the bug" `Quick
            test_mutate_campaign_catches_bug;
          Alcotest.test_case "corruption is confined to one set" `Quick
            test_corrupt_target_set_is_local;
          Alcotest.test_case "corrupted sensitization is caught" `Quick
            test_corrupt_sensitization_caught;
          Alcotest.test_case "corrupted sensitization is caught by the sweep"
            `Quick test_corrupt_sensitization_caught_by_suite;
          Alcotest.test_case "sabotaged sampled scan is caught" `Quick
            test_sampled_scan_mutation_caught;
          Alcotest.test_case "sabotaged lane groups are caught" `Quick
            test_lane_mutation_caught;
          Alcotest.test_case "flipped aggressor row is caught" `Quick
            test_aggressor_flip_caught;
          Alcotest.test_case "trusted truncated hash is caught" `Quick
            test_trusted_hash_caught;
          Alcotest.test_case "dropped bridge pair is caught" `Quick
            test_dropped_pair_caught;
          Alcotest.test_case "stale draw range is caught" `Quick
            test_stale_count_caught;
          Alcotest.test_case "skipped scan block is caught" `Quick
            test_skipped_block_caught;
          Alcotest.test_case "skipped open chain is caught" `Quick
            test_skipped_open_caught;
          Alcotest.test_case "shrink rejects clean specs" `Quick
            test_shrink_requires_divergence;
        ] );
      ( "ref-eval",
        [
          Alcotest.test_case "hand-checked AND circuit" `Quick
            test_ref_eval_hand_checked;
        ] );
    ]
