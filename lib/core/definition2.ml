module Netlist = Ndetect_circuit.Netlist
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Stuck = Ndetect_faults.Stuck
module Word = Ndetect_logic.Word

(* Two-rail ternary words: lane j of a node is 1 where bit j of its [one]
   rail is set, 0 where bit j of its [zero] rail is set, X where neither
   is. Lane j of a pass simulates the test common to a vector pair
   (a_j, b_j): the tij of a candidate and one chain member.

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
  ta : int array;  (* per input: lane j of a pass simulates the test *)
  tb : int array;  (* common to a_j and b_j, bit j of ta.(i) / tb.(i)
                      being input i of a_j / b_j *)
  tc : int array;  (* first_extending: the chain, transposed *)
  b : int array;  (* extend_many: the chain member of each lane *)
  seg_k : int array;  (* extend_many: segments of the current pack *)
  seg_lo : int array;
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
  let pi = Array.length (Netlist.inputs net) in
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
    ta = Array.make pi 0;
    tb = Array.make pi 0;
    tc = Array.make pi 0;
    b = Array.make Word.width 0;
    seg_k = Array.make Word.width 0;
    seg_lo = Array.make Word.width 0;
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

(* Operands are transposed: bit j of [ta.(i)] / [tb.(i)] is input i of
   a_j / b_j. [transpose] fills [dst] from the vectors [src.(lo + j)],
   j < len (input i is bit [pi - 1 - i] of a vector); [splat] gives
   every lane the vector [v]. *)
let transpose dst src ~lo ~len =
  let pi = Array.length dst in
  for i = 0 to pi - 1 do
    let bit = pi - 1 - i in
    let w = ref 0 in
    for j = 0 to len - 1 do
      w := !w lor (((src.(lo + j) lsr bit) land 1) lsl j)
    done;
    dst.(i) <- !w
  done

let splat dst v =
  let pi = Array.length dst in
  for i = 0 to pi - 1 do
    dst.(i) <- -((v lsr (pi - 1 - i)) land 1)
  done

(* The input rails of lanes [0, lanes): input i of the test common to
   a_j and b_j is 1 where both are 1, 0 where both are 0, X where they
   differ. *)
let load t ~lanes =
  let inputs = Netlist.inputs t.net and live = Word.mask_low lanes in
  for i = 0 to Array.length inputs - 1 do
    let a = t.ta.(i) and b = t.tb.(i) in
    t.one.(inputs.(i)) <- a land b;
    t.zero.(inputs.(i)) <- lnot (a lor b) land live
  done

(* The faulty pass over a fault's cone, on good rails already computed
   for every gate the cone's observing outputs depend on. It writes only
   faulty slots. Returns the lanes where the fault is detected: a cone
   output binary in both circuits, with different values. *)
let cone_mask t cone =
  for i = 0 to Array.length cone.sched.dst - 1 do
    eval_gate cone.sched i t.one t.zero
  done;
  let acc = ref 0 in
  for k = 0 to Array.length cone.out_good - 1 do
    let g = cone.out_good.(k) and f = cone.out_faulty.(k) in
    acc :=
      !acc lor (t.one.(g) land t.zero.(f)) lor (t.zero.(g) land t.one.(f))
  done;
  !acc

(* Detecting lanes among [0, lanes) for one fault: the fault-free pass
   over the cone's support only, then the cone pass. *)
let detect_mask t cone ~lanes =
  load t ~lanes;
  for k = 0 to Array.length cone.support - 1 do
    eval_gate t.good cone.support.(k) t.one t.zero
  done;
  cone_mask t cone land Word.mask_low lanes

let debug_corrupt_lanes = ref false

(* Lanes [lo, lo + len) of a detection mask: one candidate's or one
   fault's group. The sabotage reads the [last] group of a pass that
   holds several one group too far, past the filled lanes. *)
let[@inline] group mask ~lo ~len ~last =
  if last && lo > 0 && !debug_corrupt_lanes then 0
  else (mask lsr lo) land Word.mask_low len

(* A candidate against a chain longer than one pass: 62 members per
   pass, stopping at the first detecting one. *)
let extends_spilled t cone members c =
  let m = Array.length members in
  let rec go s0 =
    s0 >= m
    ||
    let lanes = min Word.width (m - s0) in
    transpose t.tb members ~lo:s0 ~len:lanes;
    detect_mask t cone ~lanes = 0 && go (s0 + lanes)
  in
  splat t.ta c;
  (not (Array.mem c members)) && go 0

(* Candidates in groups of |chain| lanes, as many groups as fit in one
   pass; the first group without a detecting lane, in candidate order,
   is the answer. Every group's b operands are the chain, transposed
   once and repeated by one multiplication per input (the copies do not
   overlap, so nothing carries); group k's a operands are its
   candidate's bits, each spread over the group's [m] lanes. *)
let first_extending t ~fi ~chain candidates =
  let members = Array.of_list chain in
  let m = Array.length members and count = Array.length candidates in
  if count = 0 then None
  else if m = 0 then Some candidates.(0)
  else
    let cone = cone t fi in
    if m > Word.width then
      Array.find_opt (extends_spilled t cone members) candidates
    else begin
      transpose t.tc members ~lo:0 ~len:m;
      let pi = Array.length t.ta and per = Word.width / m in
      let block = Word.mask_low m in
      let rec pass c0 =
        if c0 >= count then None
        else
          let g = min per (count - c0) in
          let repeat = ref 0 in
          for k = 0 to g - 1 do
            repeat := !repeat lor (1 lsl (k * m))
          done;
          for i = 0 to pi - 1 do
            let bit = pi - 1 - i in
            let a = ref 0 in
            for k = 0 to g - 1 do
              let spread = -((candidates.(c0 + k) lsr bit) land 1) land block in
              a := !a lor (spread lsl (k * m))
            done;
            t.ta.(i) <- !a;
            t.tb.(i) <- t.tc.(i) * !repeat
          done;
          let mask = detect_mask t cone ~lanes:(g * m) in
          let rec pick k =
            if k >= g then pass (c0 + g)
            else
              let c = candidates.(c0 + k) in
              if
                group mask ~lo:(k * m) ~len:m ~last:(k = g - 1) = 0
                && not (Array.mem c members)
              then Some c
              else pick (k + 1)
          in
          pick 0
      in
      pass 0
    end

(* Different from every chain member: [v] is not in the chain and no
   common test detects the fault. *)
let chain_extend t ~fi ~chain v =
  Option.is_some (first_extending t ~fi ~chain [| v |])

(* (fault, chain member) lanes, packed 62 at a time across faults. A
   pack's segments are runs of lanes of one fault ([seg_k]: its position
   in [fis], [seg_lo]: its first lane); a fault's chain may straddle two
   packs. Each pack runs one fault-free pass over the whole net, whose
   good rails every segment's cone pass then shares. *)
let extend_many t ~chains fis v =
  let verdict = Array.map (fun fi -> not (List.mem v chains.(fi))) fis in
  let lanes = ref 0 and segs = ref 0 in
  splat t.ta v;
  let flush () =
    if !segs > 0 then begin
      transpose t.tb t.b ~lo:0 ~len:!lanes;
      load t ~lanes:!lanes;
      for i = 0 to Array.length t.good.dst - 1 do
        eval_gate t.good i t.one t.zero
      done;
      for s = 0 to !segs - 1 do
        let k = t.seg_k.(s) and lo = t.seg_lo.(s) in
        let hi = if s + 1 < !segs then t.seg_lo.(s + 1) else !lanes in
        let mask = cone_mask t (cone t fis.(k)) in
        if group mask ~lo ~len:(hi - lo) ~last:(s = !segs - 1) <> 0 then
          verdict.(k) <- false
      done;
      lanes := 0;
      segs := 0
    end
  in
  let rec push k = function
    | [] -> ()
    | s :: rest ->
      if !lanes = Word.width then flush ();
      if !segs = 0 || t.seg_k.(!segs - 1) <> k then begin
        t.seg_k.(!segs) <- k;
        t.seg_lo.(!segs) <- !lanes;
        incr segs
      end;
      t.b.(!lanes) <- s;
      incr lanes;
      push k rest
  in
  for k = 0 to Array.length fis - 1 do
    if verdict.(k) then push k chains.(fis.(k))
  done;
  flush ();
  verdict

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
