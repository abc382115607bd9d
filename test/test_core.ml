module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Definition2 = Ndetect_core.Definition2
module Average_case = Ndetect_core.Average_case
module Analysis = Ndetect_core.Analysis
module Bitvec = Ndetect_util.Bitvec
module Example = Ndetect_suite.Example
module Netlist = Ndetect_circuit.Netlist
module Gate = Ndetect_circuit.Gate
module Bridge = Ndetect_faults.Bridge
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Naive = Ndetect_sim.Naive
module Ref_table = Ndetect_check.Ref_table

let example_table =
  let t = lazy (Detection_table.build (Example.circuit ())) in
  fun () -> Lazy.force t

let example_worst =
  let w = lazy (Worst_case.compute (example_table ())) in
  fun () -> Lazy.force w

let find_g0 table =
  let victim, vv, aggressor, av = Example.g0 in
  Option.get
    (Detection_table.find_untargeted table ~victim ~victim_value:vv
       ~aggressor ~aggressor_value:av)

let find_g6 table =
  let victim, vv, aggressor, av = Example.g6 in
  Option.get
    (Detection_table.find_untargeted table ~victim ~victim_value:vv
       ~aggressor ~aggressor_value:av)

let test_table_counts () =
  let table = example_table () in
  Alcotest.(check int) "universe" 16 (Detection_table.universe table);
  Alcotest.(check int) "16 targets" 16 (Detection_table.target_count table);
  Alcotest.(check int) "10 detectable bridges" 10
    (Detection_table.untargeted_count table);
  Alcotest.(check int) "2 undetectable bridges" 2
    (Detection_table.undetectable_untargeted_count table)

let test_table_m_values () =
  (* Table 1: M(g0, f) for the listed faults. *)
  let table = example_table () in
  let g0 = find_g0 table in
  let check_m fi expected =
    Alcotest.(check int)
      (Printf.sprintf "M(g0, f%d)" fi)
      expected
      (Detection_table.m table ~gj:g0 ~fi)
  in
  check_m 0 2;
  (* 1/1: {6,7} of {4,5,6,7} *)
  check_m 1 2;
  check_m 11 2;
  check_m 12 2;
  check_m 5 0 (* 4/0: {1,5,9,13} disjoint from {6,7} *)

let test_overlapping_targets () =
  let table = example_table () in
  let g0 = find_g0 table in
  Alcotest.(check (list int)) "F(g0) indices"
    [ 0; 1; 3; 9; 11; 12; 14 ]
    (Detection_table.overlapping_targets table ~gj:g0)

let test_worst_case_example () =
  let table = example_table () in
  let worst = example_worst () in
  let g0 = find_g0 table and g6 = find_g6 table in
  Alcotest.(check int) "nmin(g0) = 3" 3 (Worst_case.nmin worst g0);
  Alcotest.(check int) "nmin(g6) = 4" 4 (Worst_case.nmin worst g6);
  (* Table 1 pairwise values. *)
  let pair fi = Option.get (Worst_case.nmin_pair worst ~gj:g0 ~fi) in
  Alcotest.(check int) "nmin(g0, 1/1)" 3 (pair 0);
  Alcotest.(check int) "nmin(g0, 2/0)" 5 (pair 1);
  Alcotest.(check int) "nmin(g0, 3/0)" 5 (pair 3);
  Alcotest.(check int) "nmin(g0, 8/0)" 4 (pair 9);
  Alcotest.(check int) "nmin(g0, 9/1)" 11 (pair 11);
  Alcotest.(check int) "nmin(g0, 10/0)" 3 (pair 12);
  Alcotest.(check int) "nmin(g0, 11/0)" 11 (pair 14);
  Alcotest.(check (option int)) "no overlap, no pair" None
    (Worst_case.nmin_pair worst ~gj:g0 ~fi:5)

let test_worst_case_counters () =
  let worst = example_worst () in
  Alcotest.(check int) "all bounded" 0
    (Worst_case.count_at_least worst Worst_case.unbounded);
  let below_max =
    Worst_case.count_below worst (Option.get (Worst_case.max_finite_nmin worst))
  in
  Alcotest.(check int) "everything below max" 10 below_max;
  Alcotest.(check (float 1e-9)) "coverage at max" 1.0
    (Worst_case.coverage_guaranteed worst
       ~n:(Option.get (Worst_case.max_finite_nmin worst)));
  let h = Worst_case.histogram worst ~min_value:1 in
  Alcotest.(check int) "histogram mass" 10
    (List.fold_left (fun acc (_, c) -> acc + c) 0 h)

(* Worst-case semantics, both directions, on random circuits:
   - an adversary can build an n-detection test set that misses g for
     every n < nmin(g) (take all vectors outside T(g));
   - every n-detection set with n >= nmin(g) detects g (checked on the
     random sets of Procedure 1). *)
let prop_nmin_adversarial_bound =
  QCheck.Test.make ~name:"U - T(g) is an (nmin-1)-detection adversary"
    ~count:25 Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         let worst = Worst_case.compute table in
         let ok = ref true in
         for gj = 0 to Detection_table.untargeted_count table - 1 do
           let nmin = Worst_case.nmin worst gj in
           if nmin <> Worst_case.unbounded && nmin > 1 then begin
             let n = nmin - 1 in
             (* Every target must still reach min(n, N(f)) detections using
                only vectors outside T(g). *)
             for fi = 0 to Detection_table.target_count table - 1 do
               let avail =
                 Detection_table.target_n table fi
                 - Detection_table.m table ~gj ~fi
               in
               if avail < min n (Detection_table.target_n table fi) then
                 ok := false
             done
           end
         done;
         !ok))

let prop_nmin_guarantee =
  QCheck.Test.make ~name:"random n-detection sets detect g when n >= nmin"
    ~count:10 Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         let worst = Worst_case.compute table in
         let config =
           { Procedure1.seed = 3; set_count = 20; nmax = 4;
             mode = Procedure1.Definition1 }
         in
         let outcome = Procedure1.run table config in
         let ok = ref true in
         for gj = 0 to Detection_table.untargeted_count table - 1 do
           let nmin = Worst_case.nmin worst gj in
           for n = 1 to config.Procedure1.nmax do
             if nmin <> Worst_case.unbounded && n >= nmin then
               if
                 Procedure1.detected_count outcome ~n ~gj
                 <> config.Procedure1.set_count
               then ok := false
           done
         done;
         !ok))

(* A random circuit's table over a random vector list, and random
   target arrays over the same universe, shaped to reach every branch
   of the table scan: universes of 1 vector, 61-65 (word edges) and a
   few thousand, empty targets, duplicate rows (shared and copied, some
   of them the table's own sets), sparse and dense rows, and empty
   untargeted sets (the table keeps every fault). Drawn from one seed
   so a failure prints compactly. *)
let random_targets_and_table seed =
  let st = Random.State.make [| seed |] in
  let int bound = Random.State.int st bound in
  let len =
    match int 4 with
    | 0 -> 1
    | 1 | 2 -> 61 + int 5
    | _ -> 2000 + int 2000
  in
  let inputs = 2 + int 5 in
  let net = Helpers.random_circuit ~seed ~inputs ~gates:(1 + int 6) in
  let table =
    Detection_table.build ~keep_undetectable_targets:true
      ~keep_undetectable_untargeted:true
      ~vectors:(Array.init len (fun _ -> int (1 lsl inputs)))
      net
  in
  let fresh () =
    let v = Bitvec.create len in
    (match int 4 with
    | 0 -> ()
    | 1 ->
      for _ = 1 to 60 + int 12 do
        Bitvec.set v (int len)
      done
    | 2 ->
      for _ = 1 to 1 + int 8 do
        Bitvec.set v (int len)
      done
    | _ ->
      let p = Random.State.float st 1.0 in
      for i = 0 to len - 1 do
        if Random.State.float st 1.0 < p then Bitvec.set v i
      done);
    v
  in
  let pool =
    ref
      (Array.append
         (Array.init
            (Detection_table.target_count table)
            (Detection_table.target_set table))
         (Array.init
            (Detection_table.untargeted_class_count table)
            (Detection_table.untargeted_class_set table)))
  in
  let draw _ =
    if Array.length !pool > 0 && int 4 = 0 then
      let v = !pool.(int (Array.length !pool)) in
      if int 2 = 0 then v else Bitvec.copy v
    else begin
      let v = fresh () in
      pool := Array.append !pool [| v |];
      v
    end
  in
  (Array.init (int 30) draw, table)

let untargeted_sets table =
  Array.init
    (Detection_table.untargeted_count table)
    (Detection_table.untargeted_set table)

let prop_nmin_of_classes_naive =
  QCheck.Test.make ~name:"nmin_of_classes = naive double loop" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let target_sets, table = random_targets_and_table seed in
      Worst_case.nmin_of_classes ~target_sets table
      = Ndetect_check.Ref_worst.nmin_of_sets ~target_sets
          ~untargeted_sets:(untargeted_sets table))

let prop_compute_is_nmin_of_classes =
  QCheck.Test.make ~name:"compute = nmin_of_classes on the table's sets"
    ~count:25 Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         Worst_case.distribution (Worst_case.compute table)
         = Worst_case.nmin_of_classes
             ~target_sets:
               (Array.init
                  (Detection_table.target_count table)
                  (Detection_table.target_set table))
             table))

(* Factored bridge sets: every kept T(g) of a table equals both
   per-fault twins (cone simulation over the table's own universe, and
   naive re-simulation of the vector at each position), faults of one
   class share one physical set, and classes are content-distinct. *)
let bridge_sets_agree table good ~vector_of =
  let net = Detection_table.net table in
  List.for_all
    (fun gj ->
      match Detection_table.untargeted_fault table gj with
      | Detection_table.Wired_fault _ -> false
      | Detection_table.Bridge_fault b ->
        let set = Detection_table.untargeted_set table gj in
        let naive = Naive.bridge_detection_set net b in
        Bitvec.equal set (Fault_sim.bridge_detection_set good b)
        && List.for_all
             (fun i -> Bitvec.get set i = Bitvec.get naive (vector_of i))
             (List.init (Bitvec.length set) Fun.id))
    (List.init (Detection_table.untargeted_count table) Fun.id)

let classes_well_formed table =
  let classes = Detection_table.untargeted_class_count table in
  let sets = Array.init classes (Detection_table.untargeted_class_set table) in
  List.for_all
    (fun gj ->
      Detection_table.untargeted_set table gj
      == sets.(Detection_table.untargeted_class table gj))
    (List.init (Detection_table.untargeted_count table) Fun.id)
  && List.for_all
       (fun c ->
         List.for_all
           (fun d -> c = d || not (Bitvec.equal sets.(c) sets.(d)))
           (List.init classes Fun.id))
       (List.init classes Fun.id)

(* The vector -> set index, against a membership loop: universes of one
   to five word blocks, sets sparse to full, so rows of several blocks
   and empty rows both occur. *)
let prop_invert_sets =
  QCheck.Test.make ~name:"invert_sets = membership loop" ~count:100
    QCheck.(
      pair (int_range 1 310)
        (small_list (pair (int_range 0 4) (small_list small_nat))))
    (fun (universe, specs) ->
      let sets =
        Array.of_list
          (List.map
             (fun (density, xs) ->
               let v = Bitvec.create universe in
               List.iter (fun x -> Bitvec.set v (x mod universe)) xs;
               for u = 0 to universe - 1 do
                 if density = 4 || (density > 0 && u mod (density + 1) = 0)
                 then Bitvec.set v u
               done;
               v)
             specs)
      in
      let index = Detection_table.invert_sets ~universe sets in
      Array.length index = universe
      && List.for_all
           (fun u ->
             Array.to_list index.(u)
             = List.filter
                 (fun i -> Bitvec.get sets.(i) u)
                 (List.init (Array.length sets) Fun.id))
           (List.init universe Fun.id))

let prop_factored_bridge_sets =
  QCheck.Test.make
    ~name:"factored bridge sets == per-fault and naive (exhaustive, sampled)"
    ~count:20
    (QCheck.make
       ~print:(fun (seed, inputs, gates) ->
         Printf.sprintf "seed=%d inputs=%d gates=%d" seed inputs gates)
       QCheck.Gen.(
         triple (int_bound 1_000_000) (int_range 2 8) (int_range 1 25)))
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         let universe = Detection_table.universe table in
         let vectors =
           Array.init (min universe 48) (fun i -> ((7 * i) + 3) mod universe)
         in
         let sampled =
           Detection_table.build ~keep_undetectable_targets:true
             ~keep_undetectable_untargeted:true ~vectors net
         in
         Detection_table.undetectable_untargeted_count table
         = Ref_table.undetectable_untargeted_count (Ref_table.build net)
         && bridge_sets_agree table (Good.compute net) ~vector_of:Fun.id
         && classes_well_formed table
         && Detection_table.untargeted_count sampled
            = Array.length (Bridge.enumerate net)
         && bridge_sets_agree sampled (Good.of_vectors net vectors)
              ~vector_of:(Array.get vectors)
         && classes_well_formed sampled))

(* [build] takes the victims' stem sets from its target sweep (each
   victim stem fault is equivalent to some target); a bare
   [bridge_classes] call sweeps them all. Both give the same kept
   bridges, the same classes and the same sets, collapsed or not. *)
let prop_bridge_victims_from_targets =
  QCheck.Test.make
    ~name:"bridge classes from target sets == swept victims (collapse on/off)"
    ~count:20 Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let pairs = Bridge.pairs net in
         let swept = Detection_table.bridge_classes (Good.compute net) pairs in
         List.for_all
           (fun collapse ->
             let table = Detection_table.build ~collapse net in
             let count = Detection_table.untargeted_count table in
             count = Array.length swept.Detection_table.kept
             && Detection_table.untargeted_class_count table
                = Array.length swept.distinct
             && List.for_all
                  (fun gj ->
                    Detection_table.untargeted_fault table gj
                    = Detection_table.Bridge_fault
                        (Bridge.nth pairs swept.kept.(gj))
                    && Detection_table.untargeted_class table gj
                       = swept.class_of.(gj)
                    && Bitvec.equal
                         (Detection_table.untargeted_set table gj)
                         swept.distinct.(swept.class_of.(gj)))
                  (List.init count Fun.id))
           [ true; false ]))

(* A redundant circuit: out1 = OR(AND(a, b), a) = a, so the AND's
   stuck-at-0 is undetectable and every bridge that victimizes the AND
   at value 1 must be dropped, while keep_undetectable_untargeted keeps
   it with the empty set. *)
let test_redundant_victim_dropped () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_input b ~name:"a" in
  let bi = Netlist.Builder.add_input b ~name:"b" in
  let c = Netlist.Builder.add_input b ~name:"c" in
  let gate kind fanins name =
    Netlist.Builder.add_gate b ~kind ~fanins ~name
  in
  let g1 = gate Gate.And [| a; bi |] "g1" in
  let out1 = gate Gate.Or [| g1; a |] "out1" in
  let g2 = gate Gate.Or [| bi; c |] "g2" in
  Netlist.Builder.set_outputs b [| out1; g2 |];
  let net = Netlist.Builder.finalize b in
  let good = Good.compute net in
  let victim_sa0 =
    { Ndetect_faults.Stuck.line = Ndetect_circuit.Line.Stem g1; value = false }
  in
  Alcotest.(check (list int)) "victim stuck-at set empty" []
    (Bitvec.to_list (Fault_sim.stuck_detection_set good victim_sa0));
  let dropped =
    { Bridge.victim = g1; victim_value = true; aggressor = g2;
      aggressor_value = false }
  in
  let table = Detection_table.build net in
  Alcotest.(check bool) "bridge dropped" true
    (Detection_table.find_untargeted table ~victim:"g1" ~victim_value:true
       ~aggressor:"g2" ~aggressor_value:false
    = None);
  Alcotest.(check int) "dropped count matches the reference"
    (Ref_table.undetectable_untargeted_count (Ref_table.build net))
    (Detection_table.undetectable_untargeted_count table);
  Alcotest.(check bool) "kept sets agree" true
    (bridge_sets_agree table good ~vector_of:Fun.id);
  let kept = Detection_table.build ~keep_undetectable_untargeted:true net in
  match
    Detection_table.find_untargeted kept ~victim:"g1" ~victim_value:true
      ~aggressor:"g2" ~aggressor_value:false
  with
  | None -> Alcotest.fail "keep_undetectable_untargeted must keep the bridge"
  | Some gj ->
    Alcotest.(check bool) "kept with the empty set" true
      (Bitvec.is_empty (Detection_table.untargeted_set kept gj)
      && Bitvec.is_empty (Naive.bridge_detection_set net dropped))

(* The bridge build's span says what it swept and kept: the victim
   count on its begin line, the distinct classes on its end line. *)
let test_untargeted_span_args () =
  let module Telemetry = Ndetect_util.Telemetry in
  let path = Filename.temp_file "ndetect-span" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Telemetry.Jsonl.attach ~path in
      let table =
        Fun.protect
          ~finally:(fun () -> Telemetry.Jsonl.detach sink)
          (fun () -> Detection_table.build (Example.circuit ()))
      in
      let lines =
        String.split_on_char '\n'
          (In_channel.with_open_bin path In_channel.input_all)
      in
      let line kind =
        List.find
          (fun l ->
            Helpers.contains_substring l
              (Printf.sprintf "\"type\":\"%s\"" kind)
            && Helpers.contains_substring l
                 "\"name\":\"table.sim.untargeted\"")
          lines
      in
      Alcotest.(check bool)
        "victims at begin" true
        (Helpers.contains_substring (line "begin") "\"victims\":\"");
      Alcotest.(check bool)
        "classes at end" true
        (Helpers.contains_substring (line "end")
           (Printf.sprintf "\"args\":{\"classes\":\"%d\"}"
              (Detection_table.untargeted_class_count table))))

let prop_procedure1_sets_valid =
  QCheck.Test.make
    ~name:"Procedure 1 sets are n-detection test sets (Definition 1)"
    ~count:10 Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         let config =
           { Procedure1.seed = 11; set_count = 8; nmax = 3;
             mode = Procedure1.Definition1 }
         in
         let outcome = Procedure1.run table config in
         let ok = ref true in
         for k = 0 to config.Procedure1.set_count - 1 do
           let set = Procedure1.replay outcome ~k in
           for n = 1 to config.Procedure1.nmax do
             let tests = Procedure1.test_set_at set ~n in
             let member = Bitvec.of_list (Detection_table.universe table) tests in
             for fi = 0 to Detection_table.target_count table - 1 do
               let detections =
                 Bitvec.inter_count member (Detection_table.target_set table fi)
               in
               let demand = min n (Detection_table.target_n table fi) in
               if detections < demand then ok := false
             done
           done
         done;
         !ok))

(* The invariant every draw's range rests on: the count Procedure 1
   keeps per target is |T(f) ∩ Tk| of the final set, in every mode. *)
let prop_procedure1_count_invariant =
  QCheck.Test.make
    ~name:"detection_count_def1 = |T(f) ∩ test set| (every mode)" ~count:10
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         List.for_all
           (fun mode ->
             let config =
               { Procedure1.seed = 23; set_count = 4; nmax = 4; mode }
             in
             let outcome = Procedure1.run table config in
             List.for_all
               (fun k ->
                 let set = Procedure1.replay outcome ~k in
                 let member =
                   Bitvec.of_list (Detection_table.universe table)
                     (Procedure1.test_set set)
                 in
                 List.for_all
                   (fun fi ->
                     Procedure1.detection_count_def1 set ~fi
                     = Bitvec.inter_count member
                         (Detection_table.target_set table fi))
                   (List.init (Detection_table.target_count table) Fun.id))
               (List.init config.Procedure1.set_count Fun.id))
           Procedure1.[ Definition1; Definition2 ]))

let prop_procedure1_monotone =
  QCheck.Test.make ~name:"d(n, g) is monotone in n" ~count:10
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         let config =
           { Procedure1.seed = 17; set_count = 10; nmax = 5;
             mode = Procedure1.Definition1 }
         in
         let outcome = Procedure1.run table config in
         let ok = ref true in
         for gj = 0 to Detection_table.untargeted_count table - 1 do
           for n = 1 to config.Procedure1.nmax - 1 do
             if
               Procedure1.detected_count outcome ~n ~gj
               > Procedure1.detected_count outcome ~n:(n + 1) ~gj
             then ok := false
           done
         done;
         !ok))

let test_procedure1_deterministic () =
  let table = example_table () in
  let config =
    { Procedure1.seed = 42; set_count = 10; nmax = 2;
      mode = Procedure1.Definition1 }
  in
  let a = Procedure1.run table config and b = Procedure1.run table config in
  for k = 0 to 9 do
    Alcotest.(check (list int)) "same sets"
      (Procedure1.test_set (Procedure1.replay a ~k))
      (Procedure1.test_set (Procedure1.replay b ~k))
  done

let test_procedure1_table4_shape () =
  (* K = 10 sets for n = 1, 2 on the example, like the paper's Table 4. *)
  let table = example_table () in
  let config =
    { Procedure1.seed = 1; set_count = 10; nmax = 2;
      mode = Procedure1.Definition1 }
  in
  let outcome = Procedure1.run table config in
  for k = 0 to 9 do
    let set = Procedure1.replay outcome ~k in
    let t1 = Procedure1.test_set_at set ~n:1 in
    let t2 = Procedure1.test_set_at set ~n:2 in
    Alcotest.(check bool) "t1 subset of t2" true
      (List.for_all (fun v -> List.mem v t2) t1);
    Alcotest.(check bool) "t1 nonempty" true (t1 <> []);
    (* No duplicates. *)
    Alcotest.(check int) "t2 distinct" (List.length t2)
      (List.length (List.sort_uniq Int.compare t2))
  done;
  (* g6 has T = {12}: the probability estimate is d/K. *)
  let g6 = find_g6 table in
  let d1 = Procedure1.detected_count outcome ~n:1 ~gj:g6 in
  let d2 = Procedure1.detected_count outcome ~n:2 ~gj:g6 in
  Alcotest.(check bool) "d monotone" true (d1 <= d2);
  Alcotest.(check (float 1e-9)) "p = d/K"
    (float_of_int d2 /. 10.0)
    (Procedure1.probability outcome ~n:2 ~gj:g6)

let test_definition2_example () =
  let table = example_table () in
  let def2 = Definition2.create table in
  (* Fault 1/1 (index 0): any two tests of T = {4,5,6,7} share the core
     01-- which detects the fault, so no pair is "different". *)
  Alcotest.(check bool) "4 and 7 not different" false
    (Definition2.different def2 ~fi:0 4 7);
  Alcotest.(check bool) "same vector never different" false
    (Definition2.different def2 ~fi:0 5 5);
  let count, chain = Definition2.count_greedy def2 ~fi:0 [ 4; 5; 6; 7 ] in
  Alcotest.(check int) "greedy count 1" 1 count;
  Alcotest.(check (list int)) "chain" [ 4 ] chain;
  Alcotest.(check int) "exact count 1" 1
    (Definition2.count_exact def2 ~fi:0 [ 4; 5; 6; 7 ]);
  (* Fault 2/0 (index 1): T = {6,7,12..15}. Tests 6 (0110) and 12 (1100)
     share 0 only at x2=1 and x4=0: core -1-0 does not detect 2/0 (x1/x3
     unknown blocks propagation), so they are different detections. *)
  Alcotest.(check bool) "6 and 12 different for 2/0" true
    (Definition2.different def2 ~fi:1 6 12)

let test_definition2_symmetric () =
  let table = example_table () in
  let def2 = Definition2.create table in
  for fi = 0 to Detection_table.target_count table - 1 do
    for a = 0 to 15 do
      for b = 0 to 15 do
        Alcotest.(check bool) "symmetric"
          (Definition2.different def2 ~fi a b)
          (Definition2.different def2 ~fi b a)
      done
    done
  done

let prop_def2_greedy_le_exact =
  QCheck.Test.make ~name:"greedy Def2 count <= exact count" ~count:10
    Helpers.circuit_arbitrary
    (Helpers.apply_circuit (fun net ->
         let table = Detection_table.build net in
         let def2 = Definition2.create table in
         let universe = Detection_table.universe table in
         let ok = ref true in
         for fi = 0 to min 5 (Detection_table.target_count table - 1) do
           let tests =
             Bitvec.to_list (Detection_table.target_set table fi)
             |> List.filteri (fun i _ -> i < 8)
           in
           ignore universe;
           let greedy, chain = Definition2.count_greedy def2 ~fi tests in
           let exact = Definition2.count_exact def2 ~fi tests in
           if greedy > exact then ok := false;
           if List.length chain <> greedy then ok := false
         done;
         !ok))

let test_procedure1_def2_runs () =
  let table = example_table () in
  let config =
    { Procedure1.seed = 7; set_count = 10; nmax = 3;
      mode = Procedure1.Definition2 }
  in
  let outcome = Procedure1.run table config in
  (* Sets are still valid Definition-1 n-detection sets thanks to the
     fallback rule. *)
  for k = 0 to 9 do
    let set = Procedure1.replay outcome ~k in
    let tests = Procedure1.test_set set in
    let member = Bitvec.of_list 16 tests in
    for fi = 0 to Detection_table.target_count table - 1 do
      let detections =
        Bitvec.inter_count member (Detection_table.target_set table fi)
      in
      Alcotest.(check bool) "fallback keeps Def1 validity" true
        (detections >= min 3 (Detection_table.target_n table fi));
      (* Chains contain only pairwise-different, detecting tests. *)
      let chain = Procedure1.chain_def2 set ~fi in
      Alcotest.(check bool) "chain within T(f)" true
        (List.for_all
           (fun v -> Bitvec.get (Detection_table.target_set table fi) v)
           chain)
    done
  done

let test_average_case_thresholds () =
  let row =
    Average_case.summarize_probabilities [| 1.0; 0.95; 0.52; 0.1; 0.0 |]
  in
  Alcotest.(check int) "faults" 5 row.Average_case.fault_count;
  Alcotest.(check (array int)) "cumulative"
    [| 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 5 |]
    row.Average_case.at_least;
  Alcotest.(check (float 1e-9)) "min" 0.0 row.Average_case.min_probability

let test_wilson_interval () =
  (* Symmetric around 0.5, shrinks with K, brackets the estimate. *)
  let lo, hi = Average_case.wilson_interval ~detected:50 ~trials:100 () in
  Alcotest.(check bool) "brackets p" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check (float 1e-6)) "symmetric at 0.5" (0.5 -. lo) (hi -. 0.5);
  let lo2, hi2 = Average_case.wilson_interval ~detected:5000 ~trials:10000 () in
  Alcotest.(check bool) "narrower with more trials" true (hi2 -. lo2 < hi -. lo);
  Alcotest.(check bool) "paper-scale precision" true (hi2 -. lo2 < 0.025);
  (* Extremes stay within [0, 1] and never degenerate. *)
  let lo3, hi3 = Average_case.wilson_interval ~detected:0 ~trials:10 () in
  Alcotest.(check (float 1e-9)) "lower bound clamps" 0.0 lo3;
  Alcotest.(check bool) "upper bound positive" true (hi3 > 0.0);
  Alcotest.(check bool) "rejects bad input" true
    (try
       ignore (Average_case.wilson_interval ~detected:11 ~trials:10 ());
       false
     with Invalid_argument _ -> true)

let test_average_case_empty () =
  let row = Average_case.summarize_probabilities [||] in
  Alcotest.(check int) "faults" 0 row.Average_case.fault_count;
  Alcotest.(check int) "last bucket" 0
    row.Average_case.at_least.(Array.length row.Average_case.at_least - 1)

let test_analysis_example () =
  let a = Analysis.analyze ~name:"example" (Example.circuit ()) in
  Alcotest.(check string) "name" "example" a.Analysis.summary.Analysis.circuit;
  Alcotest.(check int) "untargeted" 10
    a.Analysis.summary.Analysis.untargeted_faults;
  (* max nmin on the example is 4 < 11: no hard faults. *)
  Alcotest.(check int) "no hard faults" 0
    (Array.length (Analysis.hard_faults a ~nmax:10));
  Alcotest.(check int) "hard for nmax=3" 2
    (Array.length (Analysis.hard_faults a ~nmax:3));
  let pb = a.Analysis.summary.Analysis.percent_below in
  Alcotest.(check (float 1e-6)) "100% at n=4" 100.0 (List.assoc 4 pb)

let () =
  Alcotest.run "core"
    [
      ( "detection-table",
        [
          Alcotest.test_case "counts" `Quick test_table_counts;
          Alcotest.test_case "M values" `Quick test_table_m_values;
          Alcotest.test_case "overlapping targets" `Quick
            test_overlapping_targets;
          Helpers.qcheck prop_invert_sets;
          Helpers.qcheck prop_factored_bridge_sets;
          Helpers.qcheck prop_bridge_victims_from_targets;
          Alcotest.test_case "redundant victim dropped" `Quick
            test_redundant_victim_dropped;
          Alcotest.test_case "bridge span reports victims and classes"
            `Quick test_untargeted_span_args;
        ] );
      ( "worst-case",
        [
          Alcotest.test_case "example (paper numbers)" `Quick
            test_worst_case_example;
          Alcotest.test_case "counters" `Quick test_worst_case_counters;
          Helpers.qcheck prop_nmin_adversarial_bound;
          Helpers.qcheck prop_nmin_guarantee;
          Helpers.qcheck prop_nmin_of_classes_naive;
          Helpers.qcheck prop_compute_is_nmin_of_classes;
        ] );
      ( "procedure1",
        [
          Alcotest.test_case "deterministic" `Quick
            test_procedure1_deterministic;
          Alcotest.test_case "table 4 shape" `Quick
            test_procedure1_table4_shape;
          Alcotest.test_case "definition 2 mode" `Quick
            test_procedure1_def2_runs;
          Helpers.qcheck prop_procedure1_count_invariant;
          Helpers.qcheck prop_procedure1_monotone;
          Helpers.qcheck prop_procedure1_sets_valid;
        ] );
      ( "definition2",
        [
          Alcotest.test_case "example pairs" `Quick test_definition2_example;
          Alcotest.test_case "symmetry" `Quick test_definition2_symmetric;
          Helpers.qcheck prop_def2_greedy_le_exact;
        ] );
      ( "average-case",
        [
          Alcotest.test_case "thresholds" `Quick test_average_case_thresholds;
          Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
          Alcotest.test_case "empty" `Quick test_average_case_empty;
        ] );
      ( "analysis",
        [ Alcotest.test_case "example" `Quick test_analysis_example ] );
    ]
