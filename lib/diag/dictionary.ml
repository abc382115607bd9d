module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Eval = Ndetect_sim.Eval
module Naive = Ndetect_sim.Naive

type response = int array

type t = {
  net : Netlist.t;
  vectors : int array;
  faults : Stuck.t array;
  good_outputs : bool array array;  (* per test *)
  responses : response array;  (* per fault *)
}

let failing_mask net good faulty =
  let mask = ref 0 in
  Array.iteri
    (fun k o -> if not (Bool.equal good.(o) faulty.(o)) then mask := !mask lor (1 lsl k))
    (Netlist.outputs net);
  !mask

let build net ~vectors ~faults =
  if Array.length (Netlist.outputs net) > 62 then
    invalid_arg "Dictionary.build: more than 62 outputs";
  let good_values =
    Array.map (fun v -> Eval.eval_vector net v) vectors
  in
  let good_outputs =
    Array.map
      (fun values -> Array.map (fun o -> values.(o)) (Netlist.outputs net))
      good_values
  in
  let respond eval_faulty =
    Array.mapi
      (fun t v ->
        let faulty = eval_faulty (Eval.assignment_of_vector net v) in
        failing_mask net good_values.(t) faulty)
      vectors
  in
  let responses =
    Array.map (fun f -> respond (Naive.eval_with_stuck net f)) faults
  in
  { net; vectors = Array.copy vectors; faults; good_outputs; responses }

let vectors t = Array.copy t.vectors
let fault_count t = Array.length t.faults
let fault t i = t.faults.(i)
let response t i = Array.copy t.responses.(i)

let respond_with t eval_faulty =
  Array.mapi
    (fun idx v ->
      let faulty = eval_faulty (Eval.assignment_of_vector t.net v) in
      let good = Eval.eval_vector t.net v in
      ignore idx;
      failing_mask t.net good faulty)
    t.vectors

let respond_stuck t f = respond_with t (Naive.eval_with_stuck t.net f)
let respond_bridge t f = respond_with t (Naive.eval_with_bridge t.net f)

type verdict = { fault_index : int; score : float }

let popcount v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v land (v - 1)) in
  go 0 v

(* Mean Tanimoto similarity over the tests where either response fails;
   a candidate that fails exactly like the observation scores 1. *)
let similarity predicted observed =
  let relevant = ref 0 and total = ref 0.0 in
  Array.iteri
    (fun i p ->
      let o = observed.(i) in
      if p <> 0 || o <> 0 then begin
        incr relevant;
        total :=
          !total +. (float_of_int (popcount (p land o))
                    /. float_of_int (popcount (p lor o)))
      end)
    predicted;
  if !relevant = 0 then 1.0 else !total /. float_of_int !relevant

let diagnose t ~observed =
  if Array.length observed <> Array.length t.vectors then
    invalid_arg "Dictionary.diagnose: response length mismatch";
  Array.to_list
    (Array.mapi
       (fun fault_index predicted ->
         { fault_index; score = similarity predicted observed })
       t.responses)
  |> List.stable_sort (fun a b -> Float.compare b.score a.score)

let distinguishable_pairs t =
  let n = Array.length t.responses in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if t.responses.(i) <> t.responses.(j) then incr distinct
    done
  done;
  !distinct
