module Gate = Ndetect_circuit.Gate
module Netlist = Ndetect_circuit.Netlist

type t = {
  victim : int;
  victim_value : bool;
  aggressor : int;
  aggressor_value : bool;
}

let equal a b =
  a.victim = b.victim
  && Bool.equal a.victim_value b.victim_value
  && a.aggressor = b.aggressor
  && Bool.equal a.aggressor_value b.aggressor_value

let to_string net f =
  Printf.sprintf "(%s,%d,%s,%d)"
    (Netlist.name net f.victim)
    (Bool.to_int f.victim_value)
    (Netlist.name net f.aggressor)
    (Bool.to_int f.aggressor_value)

let pp net ppf f = Format.pp_print_string ppf (to_string net f)

let candidate_nodes net =
  Array.of_seq
    (Seq.filter
       (fun id ->
         (match Netlist.kind net id with
         | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor
           ->
           true
         | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not ->
           false)
         && Array.length (Netlist.fanins net id) >= 2)
       (Array.to_seq (Netlist.gate_ids net)))

let is_feedback net u v =
  (Netlist.transitive_fanout net u).(v)
  || (Netlist.transitive_fanout net v).(u)

let enumerate net =
  let nodes = candidate_nodes net in
  let n = Array.length nodes in
  (* Reuse reachability: reach.(i) is the transitive fanout of nodes.(i). *)
  let reach = Array.map (fun u -> Netlist.transitive_fanout net u) nodes in
  let non_feedback i j =
    not (reach.(i).(nodes.(j)) || reach.(j).(nodes.(i)))
  in
  let pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if non_feedback i j then incr pairs
    done
  done;
  let placeholder =
    { victim = 0; victim_value = false; aggressor = 0; aggressor_value = false }
  in
  let faults = Array.make (4 * !pairs) placeholder in
  let k = ref 0 in
  let emit victim victim_value aggressor aggressor_value =
    faults.(!k) <- { victim; victim_value; aggressor; aggressor_value };
    incr k
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if non_feedback i j then begin
        let u = nodes.(i) and v = nodes.(j) in
        emit u false v true;
        emit v false u true;
        emit u true v false;
        emit v true u false
      end
    done
  done;
  faults
