module Netlist = Ndetect_circuit.Netlist
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Word = Ndetect_logic.Word

(* Two-rail ternary words: lane j of a node is 1 where bit j of its [one]
   rail is set, 0 where bit j of its [zero] rail is set, X where neither
   is. Lane j of a batch simulates the test tij of the pair (v, chain_j).

   Rail slots: [0, n) hold the fault-free values of the n nodes,
   [n, 2n) the faulty values of cone nodes, and 2n / 2n+1 the constants
   0 / 1 that a stuck-at fault forces. A schedule's fanin ids are slot
   ids, so the good pass and the faulty cone pass run the same loop: a
   faulty read of an out-of-cone node is simply its good slot. *)
type sched = {
  kinds : Gate.kind array;  (* kinds.(i) = kind of the i-th gate *)
  dst : int array;  (* slot written by the i-th gate *)
  offsets : int array;  (* fanins of gate i: flat.(offsets.(i)) ..
                           flat.(offsets.(i+1)) - 1 *)
  flat : int array;  (* fanin slots *)
}

(* A fault's cone: the faulty schedule, each observable output as its
   good slot [out_good.(k)] and faulty slot [out_faulty.(k)], and the
   gates of the good schedule those outputs depend on — the only ones
   the fault-free pass needs to evaluate. *)
type cone = {
  support : int array;  (* ascending positions in the good schedule *)
  sched : sched;
  out_good : int array;
  out_faulty : int array;
}

type t = {
  net : Netlist.t;
  faults : Stuck.t array;
  good : sched;  (* every gate of the net, topological order *)
  cones : cone option array;  (* per fault, built on first use *)
  one : int array;  (* rails, 2n + 2 slots each *)
  zero : int array;
  batch : int array;  (* chain vectors of the current batch, by lane *)
}

let sched_of net ~dst ~slot nodes =
  let offsets = Array.make (Array.length nodes + 1) 0 in
  Array.iteri
    (fun i id ->
      offsets.(i + 1) <- offsets.(i) + Array.length (Netlist.fanins net id))
    nodes;
  let flat = Array.make offsets.(Array.length nodes) 0 in
  Array.iteri
    (fun i id ->
      Array.iteri
        (fun pin f -> flat.(offsets.(i) + pin) <- slot ~gate:id ~pin f)
        (Netlist.fanins net id))
    nodes;
  {
    kinds = Array.map (Netlist.kind net) nodes;
    dst = Array.map dst nodes;
    offsets;
    flat;
  }

(* A stem fault forces its node, so the node leaves the schedule and its
   readers (and an output at the node) read the constant slot. A branch
   fault forces one pin of its gate, which is re-evaluated with that pin
   reading the constant slot. Either way the rest of the fanout cone is
   re-evaluated from faulty slots where the fanin is in the cone. *)
let build_cone net ~good fault =
  let n = Netlist.node_count net in
  let forced = (2 * n) + Bool.to_int fault.Stuck.value in
  let root, stem =
    match fault.Stuck.line with
    | Line.Stem node -> (node, true)
    | Line.Branch { gate; _ } -> (gate, false)
  in
  let order = Netlist.fanout_cone_order net root in
  let in_cone = Array.make n false in
  Array.iter (fun id -> in_cone.(id) <- true) order;
  let faulty id = if stem && id = root then forced else n + id in
  let slot ~gate ~pin f =
    match fault.Stuck.line with
    | Line.Branch { gate = g; pin = p } when gate = g && pin = p -> forced
    | Line.Stem _ | Line.Branch _ -> if in_cone.(f) then faulty f else f
  in
  let nodes =
    if stem then Array.of_seq (Seq.filter (( <> ) root) (Array.to_seq order))
    else order
  in
  let out_good =
    Array.of_seq
      (Seq.filter (fun o -> in_cone.(o)) (Array.to_seq (Netlist.outputs net)))
  in
  (* The outputs' transitive fanin, in one reverse topological sweep. *)
  let need = Array.make n false in
  Array.iter (fun o -> need.(o) <- true) out_good;
  let topo = Netlist.topo_order net in
  for k = Array.length topo - 1 downto 0 do
    if need.(topo.(k)) then
      Array.iter (fun f -> need.(f) <- true) (Netlist.fanins net topo.(k))
  done;
  {
    support =
      Array.of_seq
        (Seq.filter
           (fun i -> need.(good.dst.(i)))
           (Seq.init (Array.length good.dst) Fun.id));
    sched = sched_of net ~dst:(fun id -> n + id) ~slot nodes;
    out_good;
    out_faulty = Array.map faulty out_good;
  }

let of_faults net faults =
  let n = Netlist.node_count net in
  let one = Array.make ((2 * n) + 2) 0 and zero = Array.make ((2 * n) + 2) 0 in
  zero.(2 * n) <- -1;
  one.((2 * n) + 1) <- -1;
  {
    net;
    faults;
    good =
      sched_of net ~dst:Fun.id
        ~slot:(fun ~gate:_ ~pin:_ f -> f)
        (Netlist.gate_ids net);
    cones = Array.make (Array.length faults) None;
    one;
    zero;
    batch = Array.make Word.width 0;
  }

let create table =
  of_faults
    (Detection_table.net table)
    (Array.init (Detection_table.target_count table)
       (Detection_table.target_fault table))

let cone t fi =
  match t.cones.(fi) with
  | Some c -> c
  | None ->
    let c = build_cone t.net ~good:t.good t.faults.(fi) in
    t.cones.(fi) <- Some c;
    c

(* Evaluate gate [i] of a schedule on the rails. AND: 1 where every
   fanin is 1, 0 where any is 0; OR is its dual; XOR is 1 where one side
   is 1 and the other 0, and 0 where both are the same binary; an
   inverting gate swaps the rails. Allocation-free. *)
let[@inline] eval_gate s i one zero =
  let lo = s.offsets.(i) and hi = s.offsets.(i + 1) - 1 in
  let kind = s.kinds.(i) in
  let o = ref 0 and z = ref 0 in
  (match kind with
  | Gate.Input -> ()
  | Gate.Const0 -> z := -1
  | Gate.Const1 -> o := -1
  | Gate.Buf | Gate.Not ->
    o := one.(s.flat.(lo));
    z := zero.(s.flat.(lo))
  | Gate.And | Gate.Nand ->
    o := -1;
    for p = lo to hi do
      let f = s.flat.(p) in
      o := !o land one.(f);
      z := !z lor zero.(f)
    done
  | Gate.Or | Gate.Nor ->
    z := -1;
    for p = lo to hi do
      let f = s.flat.(p) in
      o := !o lor one.(f);
      z := !z land zero.(f)
    done
  | Gate.Xor | Gate.Xnor ->
    z := -1;
    for p = lo to hi do
      let f = s.flat.(p) in
      let b1 = one.(f) and b0 = zero.(f) in
      let o' = (!o land b0) lor (!z land b1) in
      z := (!o land b1) lor (!z land b0);
      o := o'
    done);
  let d = s.dst.(i) in
  match kind with
  | Gate.Not | Gate.Nand | Gate.Nor | Gate.Xnor ->
    one.(d) <- !z;
    zero.(d) <- !o
  | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.And | Gate.Or
  | Gate.Xor ->
    one.(d) <- !o;
    zero.(d) <- !z

(* Simulate the first [lanes] lanes of [t.batch] (lane j: the test common
   to [v] and [t.batch.(j)]) and report whether some lane detects the
   fault: a cone output binary in both circuits, with different values. *)
let batch_detects t cone ~v ~lanes =
  let inputs = Netlist.inputs t.net in
  let pi = Array.length inputs in
  for i = 0 to pi - 1 do
    let bit = pi - 1 - i in
    let vbit = (v lsr bit) land 1 in
    (* Lanes whose chain vector agrees with [v] on this input. *)
    let agree = ref 0 in
    for j = 0 to lanes - 1 do
      if (t.batch.(j) lsr bit) land 1 = vbit then agree := !agree lor (1 lsl j)
    done;
    t.one.(inputs.(i)) <- (if vbit = 1 then !agree else 0);
    t.zero.(inputs.(i)) <- (if vbit = 1 then 0 else !agree)
  done;
  for k = 0 to Array.length cone.support - 1 do
    eval_gate t.good cone.support.(k) t.one t.zero
  done;
  for i = 0 to Array.length cone.sched.dst - 1 do
    eval_gate cone.sched i t.one t.zero
  done;
  let acc = ref 0 in
  for k = 0 to Array.length cone.out_good - 1 do
    let g = cone.out_good.(k) and f = cone.out_faulty.(k) in
    acc :=
      !acc lor (t.one.(g) land t.zero.(f)) lor (t.zero.(g) land t.one.(f))
  done;
  !acc land Word.mask_low lanes <> 0

(* Different from every chain member: [v] is not in the chain and no
   common test detects the fault. The chain fills 62-lane batches in
   order; the first detecting batch, or [v] itself, ends the scan. *)
let chain_extend t ~fi ~chain v =
  let cone = cone t fi in
  let rec go chain lanes =
    match chain with
    | s :: _ when s = v -> false
    | s :: rest when lanes < Word.width ->
      t.batch.(lanes) <- s;
      go rest (lanes + 1)
    | [] -> lanes = 0 || not (batch_detects t cone ~v ~lanes)
    | _ :: _ -> (not (batch_detects t cone ~v ~lanes)) && go chain 0
  in
  go chain 0

let different t ~fi v1 v2 = chain_extend t ~fi ~chain:[ v2 ] v1

let count_greedy t ~fi tests =
  let chain =
    List.fold_left
      (fun chain v ->
        if chain_extend t ~fi ~chain v then v :: chain else chain)
      [] tests
  in
  (List.length chain, List.rev chain)

let count_exact t ~fi tests =
  let arr = Array.of_list tests in
  let n = Array.length arr in
  (* Branch and bound over subsets; n stays tiny in tests. *)
  let rec go i chain best =
    if i >= n then max best (List.length chain)
    else
      let best = go (i + 1) chain best in
      if
        List.length chain + (n - i) > best
        && chain_extend t ~fi ~chain arr.(i)
      then go (i + 1) (arr.(i) :: chain) best
      else best
  in
  go 0 [] 0
