module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge

let input_bit net ~vector id =
  let pi = Netlist.input_count net in
  (vector lsr (pi - 1 - id)) land 1 = 1

(* Boolean gate functions, written out from the textbook definitions
   rather than calling Gate.eval_bool: the reference must not share the
   code it is checking. *)
let eval_kind kind (ins : bool array) =
  match kind with
  | Gate.Input -> invalid_arg "Ref_eval.eval_kind: Input"
  | Gate.Const0 -> false
  | Gate.Const1 -> true
  | Gate.Buf -> ins.(0)
  | Gate.Not -> not ins.(0)
  | Gate.And -> Array.for_all Fun.id ins
  | Gate.Nand -> not (Array.for_all Fun.id ins)
  | Gate.Or -> Array.exists Fun.id ins
  | Gate.Nor -> not (Array.exists Fun.id ins)
  | Gate.Xor -> Array.fold_left (fun acc b -> if b then not acc else acc) false ins
  | Gate.Xnor ->
    not (Array.fold_left (fun acc b -> if b then not acc else acc) false ins)

(* Memoized recursive evaluation. [stem id] forces a node's value (seen
   by every consumer and by output observation); [pin ~gate ~pin] forces
   the value one particular fanin pin reads. *)
let evaluator net ~stem ~pin vector =
  let memo = Array.make (Netlist.node_count net) None in
  let rec value id =
    match memo.(id) with
    | Some b -> b
    | None ->
      let raw =
        match Netlist.kind net id with
        | Gate.Input -> input_bit net ~vector id
        | kind ->
          let ins =
            Array.mapi
              (fun p f ->
                match pin ~gate:id ~pin:p with
                | Some b -> b
                | None -> value f)
              (Netlist.fanins net id)
          in
          eval_kind kind ins
      in
      let b = match stem id with Some b -> b | None -> raw in
      memo.(id) <- Some b;
      b
  in
  value

let no_stem (_ : int) = None
let no_pin ~gate:(_ : int) ~pin:(_ : int) = None

let good_values net v = evaluator net ~stem:no_stem ~pin:no_pin v

let outputs_of net valuef = Array.map valuef (Netlist.outputs net)

let good_outputs net v = outputs_of net (good_values net v)

let stuck_values net (fault : Stuck.t) v =
  match fault.Stuck.line with
  | Line.Stem n ->
    evaluator net
      ~stem:(fun id -> if id = n then Some fault.Stuck.value else None)
      ~pin:no_pin v
  | Line.Branch { gate; pin } ->
    evaluator net ~stem:no_stem
      ~pin:(fun ~gate:g ~pin:p ->
        if g = gate && p = pin then Some fault.Stuck.value else None)
      v

let detects_stuck net fault v =
  let good = good_values net v and faulty = stuck_values net fault v in
  Array.exists
    (fun o -> not (Bool.equal (good o) (faulty o)))
    (Netlist.outputs net)

let detects_bridge net (fault : Bridge.t) v =
  let good = good_values net v in
  let activated =
    Bool.equal (good fault.victim) fault.victim_value
    && Bool.equal (good fault.aggressor) fault.aggressor_value
  in
  activated
  &&
  let faulty =
    evaluator net
      ~stem:(fun id ->
        if id = fault.victim then Some (not fault.victim_value) else None)
      ~pin:no_pin v
  in
  Array.exists
    (fun o -> not (Bool.equal (good o) (faulty o)))
    (Netlist.outputs net)

(* Three-valued (Kleene) evaluation for Definition 2. *)

type tri = T0 | T1 | TX

let tri_of_bool b = if b then T1 else T0

let tri_not = function T0 -> T1 | T1 -> T0 | TX -> TX

let tri_and_all ins =
  if Array.exists (fun t -> t = T0) ins then T0
  else if Array.exists (fun t -> t = TX) ins then TX
  else T1

let tri_or_all ins =
  if Array.exists (fun t -> t = T1) ins then T1
  else if Array.exists (fun t -> t = TX) ins then TX
  else T0

let tri_xor_all ins =
  if Array.exists (fun t -> t = TX) ins then TX
  else
    tri_of_bool
      (Array.fold_left (fun acc t -> if t = T1 then not acc else acc) false ins)

let eval_kind3 kind (ins : tri array) =
  match kind with
  | Gate.Input -> invalid_arg "Ref_eval.eval_kind3: Input"
  | Gate.Const0 -> T0
  | Gate.Const1 -> T1
  | Gate.Buf -> ins.(0)
  | Gate.Not -> tri_not ins.(0)
  | Gate.And -> tri_and_all ins
  | Gate.Nand -> tri_not (tri_and_all ins)
  | Gate.Or -> tri_or_all ins
  | Gate.Nor -> tri_not (tri_or_all ins)
  | Gate.Xor -> tri_xor_all ins
  | Gate.Xnor -> tri_not (tri_xor_all ins)

let evaluator3 net ~stem ~pin (assignment : tri array) =
  let memo = Array.make (Netlist.node_count net) None in
  let rec value id =
    match memo.(id) with
    | Some t -> t
    | None ->
      let raw =
        match Netlist.kind net id with
        | Gate.Input -> assignment.(id)
        | kind ->
          let ins =
            Array.mapi
              (fun p f ->
                match pin ~gate:id ~pin:p with
                | Some t -> t
                | None -> value f)
              (Netlist.fanins net id)
          in
          eval_kind3 kind ins
      in
      let t = match stem id with Some t -> t | None -> raw in
      memo.(id) <- Some t;
      t
  in
  value

let no_stem3 (_ : int) = None
let no_pin3 ~gate:(_ : int) ~pin:(_ : int) = None

let tri_of_vector net v =
  Array.init (Netlist.input_count net) (fun id ->
      tri_of_bool (input_bit net ~vector:v id))

let common a b =
  Array.map2 (fun x y -> if x = y && x <> TX then x else TX) a b

let stuck_values3 net (fault : Stuck.t) assignment =
  match fault.Stuck.line with
  | Line.Stem n ->
    evaluator3 net
      ~stem:(fun id ->
        if id = n then Some (tri_of_bool fault.Stuck.value) else None)
      ~pin:no_pin3 assignment
  | Line.Branch { gate; pin } ->
    evaluator3 net ~stem:no_stem3
      ~pin:(fun ~gate:g ~pin:p ->
        if g = gate && p = pin then Some (tri_of_bool fault.Stuck.value)
        else None)
      assignment

let detects_stuck3 net fault assignment =
  let good = evaluator3 net ~stem:no_stem3 ~pin:no_pin3 assignment in
  let faulty = stuck_values3 net fault assignment in
  Array.exists
    (fun o ->
      match (good o, faulty o) with
      | T0, T1 | T1, T0 -> true
      | _ -> false)
    (Netlist.outputs net)
