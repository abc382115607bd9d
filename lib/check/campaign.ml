module Rng = Ndetect_util.Rng
module Bitvec = Ndetect_util.Bitvec
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Definition2 = Ndetect_core.Definition2
module Procedure1 = Ndetect_core.Procedure1
module Random_circuit = Ndetect_suite.Random_circuit
module Registry = Ndetect_suite.Registry
module Estimate = Ndetect_estimate.Estimate

type divergence = { cell : string; expected : string; actual : string }

type failure = {
  spec : Random_circuit.spec;
  divergences : divergence list;
  divergence_count : int;
}

type report = {
  circuits_run : int;
  failures : failure list;
  reproducer : (Random_circuit.spec * divergence) option;
}

let max_divergences = 20

(* A divergence sink: keeps the first [max_divergences], counts all. *)
let sink () =
  let divs = ref [] and total = ref 0 in
  let emit cell expected actual =
    incr total;
    if !total <= max_divergences then divs := { cell; expected; actual } :: !divs
  in
  (emit, fun () -> (List.rev !divs, !total))

(* The replay config: small on purpose — every quantity is compared
   cell by cell, so a handful of sets over a few iterations already
   exercises every draw path (uniform picks, rejection sampling, the
   shuffled scan, chain exhaustion, the Definition-1 fallback). *)
let proc_set_count = 4
let proc_nmax = 3

let modes = [| Procedure1.Definition1; Procedure1.Definition2 |]

let ints_to_string vs =
  "[" ^ String.concat ";" (List.map string_of_int vs) ^ "]"

(* The sampled-universe case: a small stratified sample of the circuit,
   whose dmin [Estimate.analyze] computes with the worst-case scanner,
   against the reference double loop over the same sampled sets. *)
let sampled_spec = Result.get_ok (Estimate.Spec.make ~strata:4 ~samples:48 ())

let check_sampled ?(mutate = false) ~seed net =
  let est =
    Fun.protect
      ~finally:(fun () -> Estimate.debug_corrupt_scan := false)
      (fun () ->
        Estimate.debug_corrupt_scan := mutate;
        Estimate.analyze ~spec:sampled_spec ~seed ~name:"check" net)
  in
  let table = Estimate.table est in
  let expected =
    Ref_worst.nmin_of_sets
      ~target_sets:
        (Array.init (Detection_table.target_count table)
           (Detection_table.target_set table))
      ~untargeted_sets:
        (Array.init
           (Detection_table.untargeted_count table)
           (Detection_table.untargeted_set table))
  in
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun gj nmin ->
            let expected =
              if nmin = Ref_worst.unbounded then -1 else nmin - 1
            in
            let actual = Estimate.dmin est gj in
            if expected = actual then None
            else
              Some
                {
                  cell = Printf.sprintf "dmin(g%d)" gj;
                  expected = string_of_int expected;
                  actual = string_of_int actual;
                })
          expected))

let check_net_counted ?(mutate = false) ?proc_mode ~seed net =
  let emit, result = sink () in
  let check_int cell ~expected ~actual =
    if expected <> actual then
      emit cell (string_of_int expected) (string_of_int actual)
  in
  let check_bool cell ~expected ~actual =
    if not (Bool.equal expected actual) then
      emit cell (string_of_bool expected) (string_of_bool actual)
  in
  let check_list cell ~expected ~actual =
    if expected <> actual then
      emit cell (ints_to_string expected) (ints_to_string actual)
  in
  let rt = Ref_table.build net in
  let table =
    Fun.protect
      ~finally:(fun () ->
        Bridge.debug_drop_pair := false;
        Detection_table.debug_flip_aggressor := false;
        Detection_table.debug_trust_hash := false)
      (fun () ->
        if mutate then begin
          Bridge.debug_drop_pair := true;
          Detection_table.debug_flip_aggressor := true;
          Detection_table.debug_trust_hash := true
        end;
        Detection_table.build net)
  in
  if mutate then begin
    let tcount = Detection_table.target_count table in
    if tcount > 0 then
      Detection_table.corrupt_target_set table ~fi:(abs seed mod tcount)
        ~vector:(abs seed mod Detection_table.universe table)
  end;
  let universe = Ref_table.universe rt in
  (* Fault-free simulation: the optimized bit-parallel table against the
     reference recursion, every vector, every output. *)
  let good = Good.compute net in
  let outs = Netlist.outputs net in
  for v = 0 to universe - 1 do
    let ref_out = Ref_eval.good_outputs net v in
    Array.iteri
      (fun o node ->
        check_bool
          (Printf.sprintf "good(v=%d,out=%d)" v o)
          ~expected:ref_out.(o)
          ~actual:(Good.value_bit good ~node ~vector:v))
      outs
  done;
  (* Fault-list shapes must match before any aligned comparison. *)
  let f_count = Ref_table.target_count rt in
  let g_count = Ref_table.untargeted_count rt in
  check_int "targets kept" ~expected:f_count
    ~actual:(Detection_table.target_count table);
  check_int "targets dropped"
    ~expected:(Ref_table.undetectable_target_count rt)
    ~actual:(Detection_table.undetectable_target_count table);
  check_int "untargeted kept" ~expected:g_count
    ~actual:(Detection_table.untargeted_count table);
  check_int "untargeted dropped"
    ~expected:(Ref_table.undetectable_untargeted_count rt)
    ~actual:(Detection_table.undetectable_untargeted_count table);
  let shapes_ok =
    f_count = Detection_table.target_count table
    && g_count = Detection_table.untargeted_count table
  in
  if shapes_ok then begin
    (* Definition 2 verdicts on sampled vectors: the two-rail cone
       oracle against the whole-circuit re-evaluation, pair by pair and
       as one batched chain extension of each vector by all the others.
       They depend on the fault list only, not on the detection sets, so
       they come first: a corrupted table cannot crowd their cells out
       of the recorded divergences. *)
    let def2_opt = Definition2.create table in
    let def2_ref =
      Ref_def2.create net (Array.init f_count (Ref_table.target_fault rt))
    in
    let checked = min f_count 8 in
    let tests =
      Array.init checked (fun fi ->
          Ref_table.members (Ref_table.target_set rt fi))
    in
    for fi = 0 to checked - 1 do
      let members = Array.of_list tests.(fi) in
      let picked =
        List.init (min (Array.length members) 5) (fun i ->
            members.(i * Array.length members / min (Array.length members) 5))
      in
      let vectors =
        List.sort_uniq Int.compare ((universe - 1) :: 0 :: picked)
      in
      List.iteri
        (fun i v1 ->
          List.iteri
            (fun j v2 ->
              if i < j then
                check_bool
                  (Printf.sprintf "def2(f%d,%d,%d)" fi v1 v2)
                  ~expected:(Ref_def2.different def2_ref ~fi v1 v2)
                  ~actual:(Definition2.different def2_opt ~fi v1 v2))
            vectors)
        vectors;
      List.iter
        (fun v ->
          let chain = List.filter (( <> ) v) vectors in
          check_bool
            (Printf.sprintf "def2_chain(f%d,%d)" fi v)
            ~expected:(Ref_def2.chain_extend def2_ref ~fi ~chain v)
            ~actual:(Definition2.chain_extend def2_opt ~fi ~chain v))
        vectors
    done;
    (* The packed entry points, with [mutate] arming the lane-group
       sabotage. Each fault's chain is the reference's greedy chain over
       T(f), so no other test of T(f) extends it: [first_extending] must
       scan them all and find none, and [extend_many] must refuse each
       of them for that fault, placed last in a pack it shares with the
       other faults. A scan of the whole universe, where some vector
       usually does extend the chain, must stop where the reference
       does. *)
    let chains =
      Array.init checked (fun fi ->
          List.fold_left
            (fun chain v ->
              if Ref_def2.chain_extend def2_ref ~fi ~chain v then v :: chain
              else chain)
            [] tests.(fi))
    in
    let show = function None -> "none" | Some v -> string_of_int v in
    let bits bs =
      String.concat ""
        (Array.to_list (Array.map (fun b -> if b then "1" else "0") bs))
    in
    Fun.protect
      ~finally:(fun () -> Definition2.debug_corrupt_lanes := false)
      (fun () ->
        Definition2.debug_corrupt_lanes := mutate;
        for fi = 0 to checked - 1 do
          let chain = chains.(fi) in
          let unused =
            List.filter (fun v -> not (List.mem v chain)) tests.(fi)
          in
          List.iter
            (fun candidates ->
              let expected =
                Array.find_opt (Ref_def2.chain_extend def2_ref ~fi ~chain)
                  candidates
              and actual =
                Definition2.first_extending def2_opt ~fi ~chain candidates
              in
              if expected <> actual then
                emit
                  (Printf.sprintf "def2_first(f%d,%d candidates)" fi
                     (Array.length candidates))
                  (show expected) (show actual))
            [
              Array.of_list unused;
              Array.init universe (fun i -> universe - 1 - i);
            ];
          let fis = Array.init checked (fun k -> (fi + 1 + k) mod checked) in
          List.iter
            (fun v ->
              let expected =
                Array.map
                  (fun fj ->
                    Ref_def2.chain_extend def2_ref ~fi:fj ~chain:chains.(fj) v)
                  fis
              and actual = Definition2.extend_many def2_opt ~chains fis v in
              if expected <> actual then
                emit
                  (Printf.sprintf "def2_many(f%d last,%d)" fi v)
                  (bits expected) (bits actual))
            unused
        done);
    for fi = 0 to f_count - 1 do
      let ref_fault = Ref_table.target_fault rt fi in
      if not (Stuck.equal ref_fault (Detection_table.target_fault table fi))
      then
        emit
          (Printf.sprintf "target fault f%d" fi)
          (Stuck.to_string net ref_fault)
          (Stuck.to_string net (Detection_table.target_fault table fi));
      check_int
        (Printf.sprintf "N(f%d)" fi)
        ~expected:(Ref_table.n rt fi)
        ~actual:(Detection_table.target_n table fi);
      check_list
        (Printf.sprintf "T(f%d)" fi)
        ~expected:(Ref_table.members (Ref_table.target_set rt fi))
        ~actual:(Bitvec.to_list (Detection_table.target_set table fi))
    done;
    for gj = 0 to g_count - 1 do
      let ref_fault = Ref_table.untargeted_fault rt gj in
      (match Detection_table.untargeted_fault table gj with
      | Detection_table.Bridge_fault b when Bridge.equal b ref_fault -> ()
      | Detection_table.Bridge_fault b ->
        emit
          (Printf.sprintf "untargeted fault g%d" gj)
          (Bridge.to_string net ref_fault)
          (Bridge.to_string net b)
      | Detection_table.Wired_fault _ ->
        emit
          (Printf.sprintf "untargeted fault g%d" gj)
          (Bridge.to_string net ref_fault)
          "wired fault");
      check_list
        (Printf.sprintf "T(g%d)" gj)
        ~expected:(Ref_table.members (Ref_table.untargeted_set rt gj))
        ~actual:(Bitvec.to_list (Detection_table.untargeted_set table gj));
      for fi = 0 to f_count - 1 do
        check_int
          (Printf.sprintf "M(g%d,f%d)" gj fi)
          ~expected:(Ref_table.m rt ~gj ~fi)
          ~actual:(Detection_table.m table ~gj ~fi)
      done
    done;
    (* Worst case: the blocked early-exit scan against the direct
       definition, plus witness consistency. [mutate] makes the scan
       skip its first block. *)
    let wc =
      Fun.protect
        ~finally:(fun () -> Worst_case.debug_skip_first_block := false)
        (fun () ->
          if mutate then Worst_case.debug_skip_first_block := true;
          Worst_case.compute table)
    in
    for gj = 0 to g_count - 1 do
      let expected = Ref_worst.nmin rt gj in
      check_int
        (Printf.sprintf "nmin(g%d)" gj)
        ~expected ~actual:(Worst_case.nmin wc gj);
      match Worst_case.nmin_witness wc gj with
      | Some fi -> (
        match Ref_worst.nmin_pair rt ~gj ~fi with
        | Some v when v = expected -> ()
        | Some v ->
          emit
            (Printf.sprintf "nmin_witness(g%d)" gj)
            (string_of_int expected)
            (Printf.sprintf "witness f%d gives %d" fi v)
        | None ->
          emit
            (Printf.sprintf "nmin_witness(g%d)" gj)
            (string_of_int expected)
            (Printf.sprintf "witness f%d has M=0" fi))
      | None ->
        if expected <> Ref_worst.unbounded then
          emit
            (Printf.sprintf "nmin_witness(g%d)" gj)
            (string_of_int expected) "no witness"
    done;
    (* Procedure 1: full replay from the same split streams. *)
    let mode =
      match proc_mode with
      | Some m -> m
      | None -> modes.(abs seed mod Array.length modes)
    in
    let cfg =
      { Procedure1.seed; set_count = proc_set_count; nmax = proc_nmax; mode }
    in
    (* The sets are replayed while the hook is still armed: a replay
       builds its set again, and must build the sabotaged run's. *)
    let opt, sets =
      Fun.protect
        ~finally:(fun () ->
          Procedure1.debug_stale_count := false;
          Procedure1.debug_skip_open := false)
        (fun () ->
          if mutate then begin
            Procedure1.debug_stale_count := true;
            Procedure1.debug_skip_open := true
          end;
          let opt = Procedure1.run table cfg in
          (opt, Array.init cfg.set_count (fun k -> Procedure1.replay opt ~k)))
    in
    let refo = Ref_procedure1.run rt cfg in
    for n = 1 to cfg.nmax do
      for gj = 0 to g_count - 1 do
        check_int
          (Printf.sprintf "d(%d,g%d)" n gj)
          ~expected:(Ref_procedure1.detected_count refo ~n ~gj)
          ~actual:(Procedure1.detected_count opt ~n ~gj)
      done
    done;
    Array.iteri
      (fun k set ->
        check_list
          (Printf.sprintf "test_set(k=%d)" k)
          ~expected:(Ref_procedure1.test_set refo ~k)
          ~actual:(Procedure1.test_set set);
        for fi = 0 to f_count - 1 do
          check_int
            (Printf.sprintf "def1_count(k=%d,f%d)" k fi)
            ~expected:(Ref_procedure1.detection_count_def1 refo ~k ~fi)
            ~actual:(Procedure1.detection_count_def1 set ~fi);
          match mode with
          | Procedure1.Definition2 ->
            check_list
              (Printf.sprintf "chain(k=%d,f%d)" k fi)
              ~expected:(Ref_procedure1.chain_def2 refo ~k ~fi)
              ~actual:(Procedure1.chain_def2 set ~fi)
          | Procedure1.Definition1 -> ()
        done)
      sets
  end
  else begin
    (* Fault lists of different lengths cannot be compared cell by
       cell, but the reference's bridges can still be looked up by
       fault: a bridge the table dropped has the empty set. *)
    let index = Hashtbl.create 64 in
    for gj = 0 to Detection_table.untargeted_count table - 1 do
      match Detection_table.untargeted_fault table gj with
      | Detection_table.Bridge_fault b -> Hashtbl.replace index b gj
      | Detection_table.Wired_fault _ -> ()
    done;
    for gj = 0 to g_count - 1 do
      check_list
        (Printf.sprintf "T(g%d)" gj)
        ~expected:(Ref_table.members (Ref_table.untargeted_set rt gj))
        ~actual:
          (match Hashtbl.find_opt index (Ref_table.untargeted_fault rt gj) with
          | Some j -> Bitvec.to_list (Detection_table.untargeted_set table j)
          | None -> [])
    done
  end;
  List.iter
    (fun d -> emit d.cell d.expected d.actual)
    (check_sampled ~mutate ~seed net);
  result ()

let check_net ?mutate ?proc_mode ~seed net =
  fst (check_net_counted ?mutate ?proc_mode ~seed net)

let check_spec_counted ?mutate (spec : Random_circuit.spec) =
  check_net_counted ?mutate ~seed:spec.Random_circuit.seed
    (Random_circuit.of_spec spec)

let check_spec ?mutate spec = fst (check_spec_counted ?mutate spec)

let shrink ?mutate spec0 =
  let first_div spec =
    match check_spec ?mutate spec with [] -> None | d :: _ -> Some d
  in
  match first_div spec0 with
  | None -> invalid_arg "Campaign.shrink: spec does not diverge"
  | Some d0 ->
    (* Each candidate strictly decreases one field and leaves the others
       alone, so the walk terminates. *)
    let rec go (spec : Random_circuit.spec) d =
      let candidates =
        [
          { spec with Random_circuit.gates = spec.Random_circuit.gates / 2 };
          { spec with Random_circuit.gates = spec.Random_circuit.gates - 1 };
          { spec with Random_circuit.inputs = spec.Random_circuit.inputs - 1 };
          { spec with Random_circuit.seed = spec.Random_circuit.seed / 2 };
        ]
        |> List.filter (fun (s : Random_circuit.spec) ->
               s.Random_circuit.gates >= 1
               && s.Random_circuit.inputs >= 1
               && s <> spec)
      in
      match
        List.find_map
          (fun s -> Option.map (fun d -> (s, d)) (first_div s))
          candidates
      with
      | Some (s, d) -> go s d
      | None -> (spec, d)
    in
    go spec0 d0

let max_pi_limit = 12

let run ?(mutate = false) ~circuits ~seed ~max_pi () =
  if circuits < 1 then invalid_arg "Campaign.run: circuits < 1";
  if max_pi < 1 || max_pi > max_pi_limit then
    invalid_arg
      (Printf.sprintf
         "Campaign.run: max_pi must be in 1..%d (exhaustive oracle)"
         max_pi_limit);
  let rng = Rng.create ~seed in
  let failures = ref [] in
  for _ = 1 to circuits do
    let spec =
      Random_circuit.draw_spec rng ~max_inputs:max_pi
        ~max_gates:((2 * max_pi) + 6)
    in
    match check_spec_counted ~mutate spec with
    | [], _ -> ()
    | divergences, divergence_count ->
      failures := { spec; divergences; divergence_count } :: !failures
  done;
  let failures = List.rev !failures in
  let reproducer =
    match failures with
    | [] -> None
    | { spec; _ } :: _ -> Some (shrink ~mutate spec)
  in
  { circuits_run = circuits; failures; reproducer }

(* {2 Small-tier sweep} *)

type circuit_failure = {
  circuit : string;
  first : divergence list;
  count : int;
}

type suite_report = { checked : int; divergent : circuit_failure list }

let check_table ?(mutate = false) ~site net =
  let emit, result = sink () in
  let check_int cell ~expected ~actual =
    if expected <> actual then
      emit cell (string_of_int expected) (string_of_int actual)
  in
  (* A set divergence is reported by its lowest differing vector. *)
  let check_set cell ~expected ~actual =
    if not (Bitvec.equal expected actual) then begin
      let differ =
        Bitvec.union (Bitvec.diff expected actual) (Bitvec.diff actual expected)
      in
      let v = Option.get (Bitvec.choose differ) in
      let side set = if Bitvec.get set v then "in" else "out" in
      emit cell
        (Printf.sprintf "vector %d %s" v (side expected))
        (Printf.sprintf "vector %d %s" v (side actual))
    end
  in
  let table = Detection_table.build net in
  if mutate then begin
    let tcount = Detection_table.target_count table in
    if tcount > 0 then
      Detection_table.corrupt_target_set table ~fi:(site mod tcount)
        ~vector:(site mod Detection_table.universe table)
  end;
  (* The reference: every fault of the paper's two lists simulated on
     its own cone, the undetectable ones dropped as the table drops
     them. *)
  let good = Good.compute net in
  let detected sim faults =
    Array.of_list
      (List.filter_map
         (fun f ->
           let set = sim good f in
           if Bitvec.is_empty set then None else Some (f, set))
         (Array.to_list faults))
  in
  let targets = detected Fault_sim.stuck_detection_set (Stuck.collapse net) in
  let bridges =
    detected Fault_sim.bridge_detection_set (Ref_table.bridges net)
  in
  let f_count = Array.length targets and g_count = Array.length bridges in
  check_int "targets kept" ~expected:f_count
    ~actual:(Detection_table.target_count table);
  check_int "untargeted kept" ~expected:g_count
    ~actual:(Detection_table.untargeted_count table);
  if
    f_count = Detection_table.target_count table
    && g_count = Detection_table.untargeted_count table
  then begin
    let ns = Array.map (fun (_, set) -> Ref_kernel.count set) targets in
    (* nmin(g) = min over f with M(g, f) > 0 of N(f) - M(g, f) + 1,
       every pair counted by the reference kernel. It depends on T(g)
       alone, so each distinct set is scanned once (bridges share sets
       about tenfold on these circuits). *)
    let seen = Bitvec.Index.create 256 and ref_nmin = Hashtbl.create 256 in
    let nmin_of tg =
      let c = Bitvec.Index.add seen tg in
      match Hashtbl.find_opt ref_nmin c with
      | Some best -> best
      | None ->
        let best = ref Ref_worst.unbounded in
        Array.iteri
          (fun fi (_, tf) ->
            let m = Ref_kernel.inter_count tf tg in
            if m > 0 then best := min !best (ns.(fi) - m + 1))
          targets;
        Hashtbl.replace ref_nmin c !best;
        !best
    in
    Array.iteri
      (fun fi (f, set) ->
        let actual = Detection_table.target_fault table fi in
        if not (Stuck.equal f actual) then
          emit
            (Printf.sprintf "target fault f%d" fi)
            (Stuck.to_string net f) (Stuck.to_string net actual);
        check_set
          (Printf.sprintf "T(f%d)" fi)
          ~expected:set
          ~actual:(Detection_table.target_set table fi);
        check_int
          (Printf.sprintf "N(f%d)" fi)
          ~expected:ns.(fi)
          ~actual:(Detection_table.target_n table fi))
      targets;
    let wc = Worst_case.compute table in
    Array.iteri
      (fun gj (g, tg) ->
        (match Detection_table.untargeted_fault table gj with
        | Detection_table.Bridge_fault b when Bridge.equal b g -> ()
        | Detection_table.Bridge_fault b ->
          emit
            (Printf.sprintf "untargeted fault g%d" gj)
            (Bridge.to_string net g) (Bridge.to_string net b)
        | Detection_table.Wired_fault _ ->
          emit
            (Printf.sprintf "untargeted fault g%d" gj)
            (Bridge.to_string net g) "wired fault");
        check_set
          (Printf.sprintf "T(g%d)" gj)
          ~expected:tg
          ~actual:(Detection_table.untargeted_set table gj);
        let expected = nmin_of tg in
        check_int
          (Printf.sprintf "nmin(g%d)" gj)
          ~expected ~actual:(Worst_case.nmin wc gj);
        let cell = Printf.sprintf "nmin_witness(g%d)" gj in
        match Worst_case.nmin_witness wc gj with
        | Some fi ->
          let m = Ref_kernel.inter_count (snd targets.(fi)) tg in
          if m = 0 then
            emit cell (string_of_int expected)
              (Printf.sprintf "witness f%d has M=0" fi)
          else if ns.(fi) - m + 1 <> expected then
            emit cell (string_of_int expected)
              (Printf.sprintf "witness f%d gives %d" fi (ns.(fi) - m + 1))
        | None ->
          if expected <> Ref_worst.unbounded then
            emit cell (string_of_int expected) "no witness")
      bridges
  end;
  result ()

let check_suite ?mutate () =
  let entries = Registry.of_tier Registry.Small in
  let divergent =
    List.concat
      (List.mapi
         (fun site (entry : Registry.entry) ->
           match check_table ?mutate ~site (Registry.circuit entry) with
           | [], _ -> []
           | first, count -> [ { circuit = entry.Registry.name; first; count } ])
         entries)
  in
  { checked = List.length entries; divergent }

let render_suite r =
  let b = Buffer.create 256 in
  Printf.bprintf b "small-tier check: %d circuit(s), %d divergent\n"
    r.checked (List.length r.divergent);
  List.iter
    (fun f ->
      Printf.bprintf b "FAIL %s: %d divergence(s)\n" f.circuit f.count;
      List.iteri
        (fun i d ->
          if i < 5 then
            Printf.bprintf b "  %s: reference=%s optimized=%s\n" d.cell
              d.expected d.actual)
        f.first)
    r.divergent;
  Buffer.contents b

let render r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "differential check: %d circuit(s), %d divergent\n"
    r.circuits_run (List.length r.failures);
  List.iter
    (fun f ->
      Printf.bprintf b "FAIL %s: %d divergence(s)\n"
        (Random_circuit.spec_to_string f.spec)
        f.divergence_count;
      List.iteri
        (fun i d ->
          if i < 5 then
            Printf.bprintf b "  %s: reference=%s optimized=%s\n" d.cell
              d.expected d.actual)
        f.divergences;
      if f.divergence_count > 5 then
        Printf.bprintf b "  ... (%d more)\n" (f.divergence_count - 5))
    r.failures;
  (match r.reproducer with
  | Some (spec, d) ->
    Printf.bprintf b
      "shrunk reproducer: %s\n  first divergence: %s: reference=%s \
       optimized=%s\n"
      (Random_circuit.spec_to_string spec)
      d.cell d.expected d.actual
  | None ->
    if r.failures = [] then
      Printf.bprintf b
        "all table cells agree with the brute-force reference\n");
  Buffer.contents b
