(* Determinism and regression coverage for the parallel Procedure 1 and
   the cone-cached fault simulator:

   - [Procedure1.run] must produce bit-identical outcomes for every
     [domains] value (the K sets each own an RNG stream, so the chunking
     cannot matter) and across two runs with the same seed. An outcome
     keeps only the d(n, g) tallies, which are the part the parallel
     path computes; the sets are rebuilt by [Procedure1.replay].
   - An outcome's size does not grow with K.
   - The incrementally maintained chain-length counters must agree with
     the chains themselves: re-deriving every Definition-2
     chain from the insertion-order test set must reproduce [chain_def2].
   - The per-domain cone cache in [Fault_sim] must be invisible: cached
     detection sets equal freshly-built-cone results (and the naive
     oracle) on random netlists. *)

module Detection_table = Ndetect_core.Detection_table
module Procedure1 = Ndetect_core.Procedure1
module Definition2 = Ndetect_core.Definition2
module Bitvec = Ndetect_util.Bitvec
module Stuck = Ndetect_faults.Stuck
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Naive = Ndetect_sim.Naive
module Example = Ndetect_suite.Example

let example_table =
  let t = lazy (Detection_table.build (Example.circuit ())) in
  fun () -> Lazy.force t

let config_of mode seed =
  { Procedure1.seed; set_count = 12; nmax = 3; mode }

(* Everything observable about an outcome, as one comparable value. *)
let fingerprint table outcome =
  let cfg = Procedure1.config outcome in
  let f_count = Detection_table.target_count table in
  let report = Procedure1.report_faults outcome in
  let sets =
    List.init cfg.Procedure1.set_count (fun k ->
        let set = Procedure1.replay outcome ~k in
        let per_fault =
          List.init f_count (fun fi ->
              ( Procedure1.detection_count_def1 set ~fi,
                Procedure1.chain_def2 set ~fi ))
        in
        (Procedure1.test_set set, per_fault))
  in
  (* Over every untargeted fault of the table ([run]'s default report):
     the tallies are the only part of the fingerprint that [run]'s
     parallel chunks compute. *)
  let detected =
    List.init cfg.Procedure1.nmax (fun i ->
        Array.to_list
          (Array.map
             (fun gj -> Procedure1.detected_count outcome ~n:(i + 1) ~gj)
             report))
  in
  (sets, detected)

let mode_name = function
  | Procedure1.Definition1 -> "Definition1"
  | Procedure1.Definition2 -> "Definition2"

let test_domains_invariant mode () =
  let table = example_table () in
  let config = config_of mode 7 in
  let reference =
    fingerprint table (Procedure1.run ~domains:1 table config)
  in
  List.iter
    (fun domains ->
      let outcome = Procedure1.run ~domains table config in
      Alcotest.(check bool)
        (Printf.sprintf "%s: domains=%d == domains=1" (mode_name mode)
           domains)
        true
        (fingerprint table outcome = reference))
    [ 2; 4 ]

let test_repeat_run_identical mode () =
  let table = example_table () in
  let config = config_of mode 19 in
  let a = fingerprint table (Procedure1.run table config) in
  let b = fingerprint table (Procedure1.run table config) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: same seed, same outcome" (mode_name mode))
    true (a = b)

(* Chain-length counters (satellite of the perf PR) never drift from the
   chains: replay each final test set in insertion order and rebuild the
   counted chains with plain [List.length], then compare. *)

let replay_def2_chain table def2 ~nmax ~fi tests =
  let tf = Detection_table.target_set table fi in
  let chain = ref [] in
  List.iter
    (fun v ->
      if
        Bitvec.get tf v
        && List.length !chain < nmax
        && Definition2.chain_extend def2 ~fi ~chain:!chain v
      then chain := v :: !chain)
    tests;
  List.rev !chain

let test_def2_chain_regression () =
  let table = example_table () in
  let config = config_of Procedure1.Definition2 23 in
  let outcome = Procedure1.run table config in
  let def2 = Definition2.create table in
  let f_count = Detection_table.target_count table in
  for k = 0 to config.Procedure1.set_count - 1 do
    let set = Procedure1.replay outcome ~k in
    let tests = Procedure1.test_set set in
    for fi = 0 to f_count - 1 do
      let expected =
        replay_def2_chain table def2 ~nmax:config.Procedure1.nmax ~fi tests
      in
      Alcotest.(check (list int))
        (Printf.sprintf "def2 chain k=%d fi=%d" k fi)
        expected
        (Procedure1.chain_def2 set ~fi)
    done
  done

(* No per-set state survives [run]: an outcome holds the tallies and the
   tables replay reads, so its reachable size is the same for K = 10 and
   K = 500. Both outcomes are measured after both runs, so the lazily
   filled memos of the shared detection table count the same in each. *)
let test_outcome_size_independent_of_k mode () =
  let table = example_table () in
  let run set_count =
    Procedure1.run ~domains:2 table
      { Procedure1.seed = 5; set_count; nmax = 4; mode }
  in
  let small = run 10 and large = run 500 in
  Alcotest.(check int)
    (Printf.sprintf "%s: reachable words, K = 10 vs K = 500"
       (mode_name mode))
    (Obj.reachable_words (Obj.repr small))
    (Obj.reachable_words (Obj.repr large))

(* The cone cache keyed by (Good.id, seed) must never change results:
   a cold call (fresh Good, fresh cache entries), a warm call (cached
   cones), and a second Good instance all match the naive oracle. *)
let prop_cone_cache_transparent =
  QCheck.Test.make ~name:"cone cache: cold == warm == naive" ~count:25
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let faults = Stuck.collapse net in
         let good = Good.compute net in
         let good' = Good.compute net in
         Array.for_all
           (fun f ->
             let cold = Fault_sim.stuck_detection_set good f in
             let warm = Fault_sim.stuck_detection_set good f in
             let fresh = Fault_sim.stuck_detection_set good' f in
             let oracle = Naive.stuck_detection_set net f in
             Bitvec.equal cold oracle
             && Bitvec.equal warm oracle
             && Bitvec.equal fresh oracle)
           faults))

let () =
  let modes = [ Procedure1.Definition1; Procedure1.Definition2 ] in
  Alcotest.run "perf determinism"
    [
      ( "procedure1 domains",
        List.map
          (fun mode ->
            Alcotest.test_case
              (Printf.sprintf "%s invariant under domains" (mode_name mode))
              `Slow
              (test_domains_invariant mode))
          modes
        @ List.map
            (fun mode ->
              Alcotest.test_case
                (Printf.sprintf "%s repeat run identical" (mode_name mode))
                `Quick
                (test_repeat_run_identical mode))
            modes );
      ( "procedure1 memory",
        List.map
          (fun mode ->
            Alcotest.test_case
              (Printf.sprintf "%s outcome size independent of K"
                 (mode_name mode))
              `Quick
              (test_outcome_size_independent_of_k mode))
          modes );
      ( "chain regression",
        [
          Alcotest.test_case "definition2 chains from replay" `Quick
            test_def2_chain_regression;
        ] );
      ( "cone cache",
        [ Helpers.qcheck prop_cone_cache_transparent ] );
    ]
