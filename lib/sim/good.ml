module Bitvec = Ndetect_util.Bitvec
module Word = Ndetect_logic.Word
module Gate = Ndetect_circuit.Gate
module Netlist = Ndetect_circuit.Netlist

type t = {
  id : int;  (* process-unique; keys the per-domain cone caches *)
  net : Netlist.t;
  universe : int;
  batch_count : int;
  (* values.(batch).(node) *)
  values : Word.t array array;
  live : Word.t array;
}

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

let compute_fresh net =
  let universe = Netlist.universe_size net in
  let batch_count = Word.batches ~universe in
  let pi = Netlist.input_count net in
  let nodes = Netlist.node_count net in
  let topo = Netlist.topo_order net in
  let values =
    Array.init batch_count (fun _ -> Array.make nodes Word.zeroes)
  in
  let live =
    Array.init batch_count (fun b ->
        Word.mask_low (Word.batch_width ~universe ~batch:b))
  in
  for batch = 0 to batch_count - 1 do
    let row = values.(batch) in
    Array.iter
      (fun id ->
        row.(id) <-
          (match Netlist.kind net id with
          | Gate.Input ->
            Word.input_pattern ~universe ~batch ~bit:id ~pi_count:pi
          | kind ->
            Gate.eval_word kind
              (Array.map (fun f -> row.(f)) (Netlist.fanins net id))
            land live.(batch)))
      topo
  done;
  { id = fresh_id (); net; universe; batch_count; values; live }

(* [compute] is pure per netlist and its result is immutable after
   construction, so repeated calls on the {e same} netlist (a table
   build followed by the campaign's or the transition analysis's own
   simulation of that netlist, every rebuild in a sweep) can share one
   simulation. A single-entry memo keyed by physical equality
   keeps at most one extra table alive; a lost race between domains just
   recomputes, which is always correct. *)
let memo : (Netlist.t * t) option Atomic.t = Atomic.make None

let compute net =
  match Atomic.get memo with
  | Some (n, good) when n == net -> good
  | _ ->
    let good = compute_fresh net in
    Atomic.set memo (Some (net, good));
    good

let of_vectors net vectors =
  let pi = Netlist.input_count net in
  if pi > 62 then invalid_arg "Good.of_vectors: more than 62 inputs";
  let universe = Array.length vectors in
  if universe = 0 then invalid_arg "Good.of_vectors: empty pattern list";
  let batch_count = Word.batches ~universe in
  let nodes = Netlist.node_count net in
  let topo = Netlist.topo_order net in
  let values =
    Array.init batch_count (fun _ -> Array.make nodes Word.zeroes)
  in
  let live =
    Array.init batch_count (fun b ->
        Word.mask_low (Word.batch_width ~universe ~batch:b))
  in
  (* Lane j of batch b carries pattern vectors.(b * width + j); input [id]
     reads bit (pi - 1 - id) of the pattern value, as in the paper's
     decimal vector encoding. *)
  let input_word ~batch ~bit =
    let base = batch * Word.width in
    let lanes = Word.batch_width ~universe ~batch in
    let acc = ref Word.zeroes in
    for lane = 0 to lanes - 1 do
      if (vectors.(base + lane) lsr (pi - 1 - bit)) land 1 = 1 then
        acc := Word.set !acc lane
    done;
    !acc
  in
  for batch = 0 to batch_count - 1 do
    let row = values.(batch) in
    Array.iter
      (fun id ->
        row.(id) <-
          (match Netlist.kind net id with
          | Gate.Input -> input_word ~batch ~bit:id
          | kind ->
            Gate.eval_word kind
              (Array.map (fun f -> row.(f)) (Netlist.fanins net id))
            land live.(batch)))
      topo
  done;
  { id = fresh_id (); net; universe; batch_count; values; live }

let id t = t.id
let net t = t.net
let universe t = t.universe
let batch_count t = t.batch_count
let live_mask t ~batch = t.live.(batch)
let value t ~node ~batch = t.values.(batch).(node)

let value_bit t ~node ~vector =
  if vector < 0 || vector >= t.universe then
    invalid_arg "Good.value_bit: vector outside universe";
  Word.get t.values.(vector / Word.width).(node) (vector mod Word.width)

(* Batch words and Bitvec words share a width (62), so batch [b] of the
   universe IS payload word [b] of the detection set; the live mask has
   already cleared the lanes beyond the universe. *)
let () = assert (Word.width = 62)

let detection_mask_to_set t mask_of_batch =
  let set = Bitvec.create t.universe in
  for batch = 0 to t.batch_count - 1 do
    let m = mask_of_batch ~batch land t.live.(batch) in
    if m <> Word.zeroes then Bitvec.unsafe_set_word set batch m
  done;
  set
