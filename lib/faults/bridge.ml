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

type pairs = { first : int array; second : int array }

let debug_drop_pair = ref false
let bits = Sys.int_size

let pairs net =
  let nodes = candidate_nodes net in
  let n = Array.length nodes in
  let words = (n + bits - 1) / bits in
  let index = Array.make (Netlist.node_count net) (-1) in
  Array.iteri (fun i u -> index.(u) <- i) nodes;
  (* reach.(node * words ..) holds the candidate indices in the
     transitive fanout of [node], itself included; consumers come later
     in topological order, so one reverse sweep fills every row. *)
  let reach = Array.make (Netlist.node_count net * words) 0 in
  let topo = Netlist.topo_order net in
  for k = Array.length topo - 1 downto 0 do
    let node = topo.(k) in
    let row = node * words in
    Array.iter
      (fun (consumer, _) ->
        let src = consumer * words in
        for w = 0 to words - 1 do
          reach.(row + w) <- reach.(row + w) lor reach.(src + w)
        done)
      (Netlist.fanouts net node);
    let i = index.(node) in
    if i >= 0 then begin
      let w = row + (i / bits) in
      reach.(w) <- reach.(w) lor (1 lsl (i mod bits))
    end
  done;
  let reaches i j =
    reach.((nodes.(i) * words) + (j / bits)) land (1 lsl (j mod bits)) <> 0
  in
  let non_feedback i j = not (reaches i j || reaches j i) in
  let total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if non_feedback i j then incr total
    done
  done;
  let skip = if !debug_drop_pair && !total > 0 then 1 else 0 in
  let first = Array.make (!total - skip) 0
  and second = Array.make (!total - skip) 0 in
  let p = ref (-skip) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if non_feedback i j then begin
        if !p >= 0 then begin
          first.(!p) <- nodes.(i);
          second.(!p) <- nodes.(j)
        end;
        incr p
      end
    done
  done;
  { first; second }

let count p = 4 * Array.length p.first

(* Variant [j mod 4]: bit 0 swaps the roles of the pair, bit 1 is the
   victim's value. *)
let victim p j =
  if j land 1 = 0 then p.first.(j lsr 2) else p.second.(j lsr 2)

let aggressor p j =
  if j land 1 = 0 then p.second.(j lsr 2) else p.first.(j lsr 2)

let victim_value j = j land 2 <> 0
let aggressor_value j = j land 2 = 0

let nth p j =
  {
    victim = victim p j;
    victim_value = victim_value j;
    aggressor = aggressor p j;
    aggressor_value = aggressor_value j;
  }

let enumerate net =
  let p = pairs net in
  Array.init (count p) (nth p)
