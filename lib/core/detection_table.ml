module Bitvec = Ndetect_util.Bitvec
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Wired = Ndetect_faults.Wired
module Good = Ndetect_sim.Good
module Fault_sim = Ndetect_sim.Fault_sim
module Telemetry = Ndetect_util.Telemetry

let c_builds = Telemetry.Counter.create "table.builds"
let c_dedup_hits = Telemetry.Counter.create "table.dedup_hits"
let c_restores = Telemetry.Counter.create "table.restores"

(* The factored bridge build forms its detection sets here rather than
   in Fault_sim, so it adds them to the simulator's set counter: one per
   bridge product, next to the victim stem sets the sweep counts. *)
let c_sets = Telemetry.Counter.create "sim.detection_sets"

type untargeted_model = Four_way | Wired of Wired.semantics

type untargeted_fault = Bridge_fault of Bridge.t | Wired_fault of Wired.t

type classes = {
  kept : int array;
  class_of : int array;
  distinct : Bitvec.t array;
}

(* One untargeted fault in one int: bit 0 the tag (0 bridge, 1 wired),
   bit 1 the victim's value (wired: 1 for OR), bit 2 the aggressor's
   value, then two node fields of [node_bits] each (victim and
   aggressor, or a and b). *)
module Packed = struct
  let node_bits = 29
  let max_nodes = 1 lsl node_bits
  let node_mask = max_nodes - 1

  let make ~tag ~first ~first_value ~second ~second_value =
    tag
    lor (Bool.to_int first_value lsl 1)
    lor (Bool.to_int second_value lsl 2)
    lor (first lsl 3)
    lor (second lsl (3 + node_bits))

  let bridge ~victim ~victim_value ~aggressor ~aggressor_value =
    make ~tag:0 ~first:victim ~first_value:victim_value ~second:aggressor
      ~second_value:aggressor_value

  let wired ~a ~b semantics =
    let is_or =
      match semantics with Wired.Wired_or -> true | Wired.Wired_and -> false
    in
    make ~tag:1 ~first:a ~first_value:is_or ~second:b ~second_value:false

  let is_wired c = c land 1 = 1
  let first c = (c lsr 3) land node_mask
  let second c = (c lsr (3 + node_bits)) land node_mask
  let first_value c = c land 2 <> 0
  let second_value c = c land 4 <> 0

  let decode c =
    if is_wired c then
      Wired_fault
        {
          Wired.a = first c;
          b = second c;
          semantics =
            (if first_value c then Wired.Wired_or else Wired.Wired_and);
        }
    else
      Bridge_fault
        {
          Bridge.victim = first c;
          victim_value = first_value c;
          aggressor = second c;
          aggressor_value = second_value c;
        }
end

let check_node_count fn net =
  if Netlist.node_count net > Packed.max_nodes then
    invalid_arg
      (Printf.sprintf
         "Detection_table.%s: %d nodes exceed the %d a packed fault holds" fn
         (Netlist.node_count net) Packed.max_nodes)

type t = {
  net : Netlist.t;
  universe : int;
  targets : Stuck.t array;
  target_sets : Bitvec.t array;
  undetectable_targets : int;
  (* One {!Packed} int per kept untargeted fault. *)
  untargeted : int array;
  (* T(g_j) is [untargeted_distinct.(untargeted_class.(j))]: one set per
     distinct content, classes numbered in first-seen order. *)
  untargeted_class : int array;
  untargeted_distinct : Bitvec.t array;
  undetectable_untargeted : int;
  (* Lazily-built memos. Tables are shared read-only across Parallel
     domains (Procedure 1 fans out over test sets), so the memos must be
     domain-safe: they are published through Atomic references (racing
     builders compute identical content; the first CAS wins and every
     domain converges on one copy). *)
  inverted : int array array option Atomic.t;
  untargeted_inverted : int array array option Atomic.t;
  layout : target_layout option Atomic.t;
  (* Labels are pure functions of net + fault, so they are derived on
     first use (reports are the only consumer) instead of being paid on
     every build or cache restore — the mmap load path stays free of
     per-fault string formatting. Same Atomic publication scheme as the
     inverted indices. Untargeted labels are formatted per call: reports
     name one or two of them. *)
  target_labels : string array option Atomic.t;
}

and target_layout = {
  rows : int;
  rep : int array;
  row_n : int array;
  blocked : Bitvec.Blocked.t;
}

(* The one class builder every fault family goes through: drop the
   empty sets (unless [keep_empty]) and give each kept set the class of
   its content in a {!Bitvec.Index}. [form i] makes the [i]-th set
   current and returns its hash, [-1] when it is empty; [current i]
   returns it. It may be a scratch buffer that the next [form]
   overwrites; [copy] says so, and a miss then copies it into the
   index. *)
let classify ?debug_trust_hash ~keep_empty ~copy n ~form ~current =
  let index = Bitvec.Index.create ?debug_trust_hash 1024 in
  let kept = Array.make n 0 and class_of = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let h = form i in
    if h >= 0 || keep_empty then begin
      let s = current i in
      let classes = Bitvec.Index.classes index in
      let hash = if h >= 0 then h else Bitvec.hash s in
      let c = Bitvec.Index.add ~copy ~hash index s in
      if c < classes then Telemetry.Counter.incr c_dedup_hits;
      kept.(!k) <- i;
      class_of.(!k) <- c;
      incr k
    end
  done;
  let trim a = if !k = n then a else Array.sub a 0 !k in
  { kept = trim kept; class_of = trim class_of;
    distinct = Bitvec.Index.to_array index }

(* [classify] over an array of finished sets. *)
let classify_sets ~keep_empty sets =
  classify ~keep_empty ~copy:false (Array.length sets)
    ~form:(fun i ->
      let s = sets.(i) in
      if Bitvec.is_empty s then -1 else Bitvec.hash s)
    ~current:(Array.get sets)

let debug_flip_aggressor = ref false
let debug_trust_hash = ref false

(* T(v, a1, u, a2) = T(v stuck-at NOT a1) AND {t : good(u, t) = a2}:
   the bridge is activated on fault-free values, where it forces the
   victim exactly as the stuck-at fault does, and every lane is
   simulated on its own. So the victims' stem sets, one good-value row
   per (aggressor, value) and one fused AND+hash pass per bridge give
   every set; only distinct products are kept. [stem_set] supplies the
   stem sets already known; one traced sweep covers the rest. *)
let bridge_classes ?(keep_undetectable = false) ?(stem_set = fun _ -> None)
    ?(cancel = Ndetect_util.Cancel.none) good pairs =
  let nodes = Netlist.node_count (Good.net good) in
  let universe = Good.universe good in
  let bridges = Bridge.count pairs in
  (* Victim stem faults and aggressor rows are both keyed by
     [2 * node + value]; victim slots are numbered in first-use order. *)
  let victim_key j =
    (2 * Bridge.victim pairs j) + Bool.to_int (Bridge.victim_value j)
  in
  let victim_slot = Array.make (2 * nodes) (-1) in
  let victims = ref [] and victim_count = ref 0 in
  for j = 0 to bridges - 1 do
    let key = victim_key j in
    if victim_slot.(key) < 0 then begin
      victim_slot.(key) <- !victim_count;
      victims :=
        { Stuck.line = Ndetect_circuit.Line.Stem (key lsr 1);
          value = key land 1 = 0 }
        :: !victims;
      incr victim_count
    end
  done;
  let victims = Array.of_list (List.rev !victims) in
  let known = Array.map stem_set victims in
  let missing =
    Array.of_list
      (List.filter
         (fun i -> Option.is_none known.(i))
         (List.init !victim_count Fun.id))
  in
  let swept =
    Fault_sim.stuck_detection_sets ~cancel good
      (Array.map (Array.get victims) missing)
  in
  Array.iteri (fun k i -> known.(i) <- Some swept.(k)) missing;
  let victim_sets = Array.map Option.get known in
  let rows = Array.make (2 * nodes) None in
  let flip = ref !debug_flip_aggressor in
  let row node value =
    let key = (2 * node) + Bool.to_int value in
    match rows.(key) with
    | Some r -> r
    | None ->
      (* The mutation self-test inverts the first row built. *)
      let value = if !flip then not value else value in
      flip := false;
      let r =
        Good.detection_mask_to_set good (fun ~batch ->
            let v = Good.value good ~node ~batch in
            if value then v else lnot v)
      in
      rows.(key) <- Some r;
      r
  in
  let scratch = Bitvec.create universe in
  Telemetry.Counter.add c_sets bridges;
  classify ~debug_trust_hash:!debug_trust_hash ~keep_empty:keep_undetectable
    ~copy:true bridges
    ~form:(fun j ->
      Bitvec.inter_hash_into scratch
        victim_sets.(victim_slot.(victim_key j))
        (row (Bridge.aggressor pairs j) (Bridge.aggressor_value j)))
    ~current:(fun _ -> scratch)

let build ?(keep_undetectable_targets = false)
    ?(keep_undetectable_untargeted = false) ?(collapse = true)
    ?(model = Four_way) ?(cancel = Ndetect_util.Cancel.none) ?vectors net =
  Telemetry.Counter.incr c_builds;
  check_node_count "build" net;
  Telemetry.with_span "table.build"
    ~args:[ ("inputs", string_of_int (Netlist.input_count net)) ]
  @@ fun () ->
  let good =
    match vectors with
    | None -> Good.compute net
    | Some vs -> Good.of_vectors net vs
  in
  Ndetect_util.Cancel.check_deadline cancel;
  let universe = Good.universe good in
  (* Each target with the faults it stands for: its equivalence class
     under collapsing, else itself. *)
  let stuck_classes =
    if collapse then Stuck.classes net
    else Array.map (fun f -> (f, [ f ])) (Stuck.all net)
  in
  let stuck_list = Array.map fst stuck_classes in
  (* "table.sim" is the fault simulation, including the bridge products
     and their classes; "table.finalize" assembles the table. *)
  let stuck_sets, (all_untargeted, packed, untargeted_classes) =
    Telemetry.with_span "table.sim" @@ fun () ->
    let stuck_sets =
      Telemetry.with_span "table.sim.targets"
        ~args:[ ("faults", string_of_int (Array.length stuck_list)) ]
        (fun () -> Fault_sim.stuck_detection_sets ~cancel good stuck_list)
    in
    let classes_args c =
      [ ("classes", string_of_int (Array.length c.distinct)) ]
    in
    let untargeted =
      match model with
      | Four_way ->
        (* "table.sim.bridges" lists the faults: the pair sweep and the
           victims' stem-set lookup. *)
        let pairs, stem_set, victims =
          Telemetry.with_span "table.sim.bridges" @@ fun () ->
          (* A victim's stem fault is a member of some target's class,
             so structurally equivalent to it: it has the target's
             set. *)
          let target_of = Hashtbl.create (2 * Array.length stuck_sets) in
          Array.iteri
            (fun i (_, members) ->
              List.iter (fun f -> Hashtbl.replace target_of f i) members)
            stuck_classes;
          let stem_set f =
            Option.map (Array.get stuck_sets) (Hashtbl.find_opt target_of f)
          in
          let pairs = Bridge.pairs net in
          let is_victim = Array.make (Netlist.node_count net) false in
          Array.iter (fun u -> is_victim.(u) <- true) pairs.Bridge.first;
          Array.iter (fun v -> is_victim.(v) <- true) pairs.Bridge.second;
          let victims =
            Array.fold_left (fun n v -> n + Bool.to_int v) 0 is_victim
          in
          (pairs, stem_set, victims)
        in
        let pack j =
          Packed.bridge ~victim:(Bridge.victim pairs j)
            ~victim_value:(Bridge.victim_value j)
            ~aggressor:(Bridge.aggressor pairs j)
            ~aggressor_value:(Bridge.aggressor_value j)
        in
        ( Bridge.count pairs,
          pack,
          Telemetry.with_span "table.sim.untargeted"
            ~args:
              [
                ("faults", string_of_int (Bridge.count pairs));
                ("victims", string_of_int victims);
              ]
            ~end_args:classes_args
            (fun () ->
              bridge_classes ~keep_undetectable:keep_undetectable_untargeted
                ~stem_set ~cancel good pairs) )
      | Wired semantics ->
        let wired = Wired.enumerate net semantics in
        let pack k =
          let w = wired.(k) in
          Packed.wired ~a:w.Wired.a ~b:w.Wired.b w.Wired.semantics
        in
        ( Array.length wired,
          pack,
          Telemetry.with_span "table.sim.untargeted"
            ~args:[ ("faults", string_of_int (Array.length wired)) ]
            ~end_args:classes_args
            (fun () ->
              classify_sets ~keep_empty:keep_undetectable_untargeted
                (Fault_sim.wired_detection_sets ~cancel good wired)) )
    in
    (stuck_sets, untargeted)
  in
  Telemetry.with_span "table.finalize" @@ fun () ->
  (* Equivalent stuck-at targets often share a set: one physical copy
     per distinct content. *)
  let target_classes =
    classify_sets ~keep_empty:keep_undetectable_targets stuck_sets
  in
  let targets = Array.map (Array.get stuck_list) target_classes.kept in
  let target_sets =
    Array.map (Array.get target_classes.distinct) target_classes.class_of
  in
  {
    net;
    universe;
    targets;
    target_sets;
    undetectable_targets = Array.length stuck_list - Array.length targets;
    untargeted = Array.map packed untargeted_classes.kept;
    untargeted_class = untargeted_classes.class_of;
    untargeted_distinct = untargeted_classes.distinct;
    undetectable_untargeted =
      all_untargeted - Array.length untargeted_classes.kept;
    inverted = Atomic.make None;
    untargeted_inverted = Atomic.make None;
    layout = Atomic.make None;
    target_labels = Atomic.make None;
  }

let net t = t.net
let universe t = t.universe
let target_count t = Array.length t.targets
let target_fault t i = t.targets.(i)
let target_set t i = t.target_sets.(i)
let target_n t i = Bitvec.count t.target_sets.(i)
let undetectable_target_count t = t.undetectable_targets
let untargeted_count t = Array.length t.untargeted
let untargeted_fault t j = Packed.decode t.untargeted.(j)
let untargeted_packed t j = t.untargeted.(j)
let untargeted_set t j = t.untargeted_distinct.(t.untargeted_class.(j))
let untargeted_class t j = t.untargeted_class.(j)
let untargeted_class_count t = Array.length t.untargeted_distinct
let untargeted_class_set t c = t.untargeted_distinct.(c)
let undetectable_untargeted_count t = t.undetectable_untargeted

(* Racing domains compute identical arrays; the first CAS wins and the
   loser's copy (same content) is returned directly. *)
let memo_labels cell compute =
  match Atomic.get cell with
  | Some labels -> labels
  | None ->
    let labels = compute () in
    ignore (Atomic.compare_and_set cell None (Some labels));
    labels

let target_labels t =
  memo_labels t.target_labels (fun () ->
      Array.map (Stuck.to_string t.net) t.targets)

let target_label t i = (target_labels t).(i)

let untargeted_label t j =
  match untargeted_fault t j with
  | Bridge_fault b -> Bridge.to_string t.net b
  | Wired_fault w -> Wired.to_string t.net w

let m t ~gj ~fi = Bitvec.inter_count t.target_sets.(fi) (untargeted_set t gj)

let overlapping_targets t ~gj =
  let g = untargeted_set t gj in
  let acc = ref [] in
  for i = Array.length t.target_sets - 1 downto 0 do
    if Bitvec.intersects t.target_sets.(i) g then acc := i :: !acc
  done;
  !acc

(* Build-or-adopt for the atomic memos: competing domains may both build
   the (deterministic, hence identical) index, but exactly one CAS
   succeeds and everyone returns the winning copy. *)
let memoized_index cell build_fn =
  match Atomic.get cell with
  | Some idx -> idx
  | None ->
    let idx = build_fn () in
    if Atomic.compare_and_set cell None (Some idx) then idx
    else (
      match Atomic.get cell with
      | Some winner -> winner
      | None -> idx (* unreachable: the cell is only ever set *))

(* Deduplicated, N-sorted, cache-blocked view of a target-set array: one
   row per distinct set (first occurrence as representative), rows sorted
   by ascending N (ties by representative index, so the order is
   deterministic), packed word-major for the batched M(g, f) kernel.
   nmin only depends on the set contents, so duplicates are counted
   once. *)
let layout_of_sets sets =
  let index = Bitvec.Index.create (Array.length sets) in
  let reps = ref [] and rows = ref 0 in
  Array.iteri
    (fun fi set ->
      if Bitvec.Index.add index set = !rows then begin
        reps := fi :: !reps;
        incr rows
      end)
    sets;
  let rep = Array.of_list (List.rev !reps) in
  let ns = Array.map (fun fi -> Bitvec.count sets.(fi)) rep in
  let order = Array.init !rows Fun.id in
  Array.sort
    (fun a b ->
      let c = Int.compare ns.(a) ns.(b) in
      if c <> 0 then c else Int.compare rep.(a) rep.(b))
    order;
  let rep = Array.map (fun row -> rep.(row)) order in
  let row_n = Array.map (fun row -> ns.(row)) order in
  let blocked = Bitvec.Blocked.pack (Array.map (fun fi -> sets.(fi)) rep) in
  { rows = !rows; rep; row_n; blocked }

let target_layout t =
  memoized_index t.layout (fun () -> layout_of_sets t.target_sets)

(* Two passes over the sets, counting then filling, so the index is
   built in its final arrays without a cons cell per (vector, set). Each
   pass takes one word block of 62 vectors across every set before the
   next block, so the rows and counts it writes stay in cache. *)
let invert_sets ~universe sets =
  let fill = Array.make universe 0 and index = Array.make universe [||] in
  (* [place]: write each entry at its vector's running count. *)
  let sweep ~place =
    for wi = 0 to Bitvec.word_count universe - 1 do
      let base = wi * Bitvec.bits_per_word in
      for i = 0 to Array.length sets - 1 do
        let w = ref (Bitvec.unsafe_get_word sets.(i) wi) in
        while !w <> 0 do
          let v = base + Bitvec.lowest_bit !w in
          if place then index.(v).(fill.(v)) <- i;
          fill.(v) <- fill.(v) + 1;
          w := !w land (!w - 1)
        done
      done
    done
  in
  sweep ~place:false;
  Array.iteri (fun v count -> index.(v) <- Array.make count 0) fill;
  Array.fill fill 0 universe 0;
  sweep ~place:true;
  index

let detectors_of_vector t =
  memoized_index t.inverted (fun () ->
      invert_sets ~universe:t.universe t.target_sets)

let untargeted_detectors_of_vector t =
  memoized_index t.untargeted_inverted (fun () ->
      invert_sets ~universe:t.universe
        (Array.map (Array.get t.untargeted_distinct) t.untargeted_class))

(* Restore: adopt detection sets (and, optionally, an already-built
   blocked layout) produced by an external decoder — the table cache's
   mmap loader. Labels are derived lazily from the
   netlist on first report use (they are pure functions of net + fault,
   so the binary format does not store them), and the layout, when
   preset, seeds the same atomic memo that [target_layout] would fill —
   the decoder adopted its rows zero-copy from the mapped file, and
   rebuilding it would both copy and re-sort for nothing. *)
let restore_parts net ~universe ~targets ~target_sets ~undetectable_targets
    ~untargeted ~untargeted_class ~untargeted_distinct ~undetectable_untargeted
    ?layout () =
  Telemetry.Counter.incr c_restores;
  check_node_count "restore_parts" net;
  if universe <> Netlist.universe_size net then
    invalid_arg "Detection_table.restore_parts: universe mismatch";
  let check_sets sets =
    Array.iter
      (fun s ->
        if Bitvec.length s <> universe then
          invalid_arg "Detection_table.restore_parts: set length mismatch")
      sets
  in
  check_sets target_sets;
  check_sets untargeted_distinct;
  let classes = Array.length untargeted_distinct in
  if
    Array.length targets <> Array.length target_sets
    || Array.length untargeted <> Array.length untargeted_class
    || not (Array.for_all (fun c -> c >= 0 && c < classes) untargeted_class)
    || undetectable_targets < 0
    || undetectable_untargeted < 0
  then invalid_arg "Detection_table.restore_parts: inconsistent parts";
  (match layout with
  | None -> ()
  | Some l ->
    if
      l.rows < 0
      || Array.length l.rep <> l.rows
      || Array.length l.row_n <> l.rows
      || Bitvec.Blocked.rows l.blocked <> l.rows
      || not
           (Array.for_all
              (fun fi -> fi >= 0 && fi < Array.length targets)
              l.rep)
    then invalid_arg "Detection_table.restore_parts: inconsistent layout");
  {
    net;
    universe;
    targets;
    target_sets;
    undetectable_targets;
    untargeted;
    untargeted_class;
    untargeted_distinct;
    undetectable_untargeted;
    inverted = Atomic.make None;
    untargeted_inverted = Atomic.make None;
    layout = Atomic.make layout;
    target_labels = Atomic.make None;
  }

let corrupt_target_set t ~fi ~vector =
  if fi < 0 || fi >= Array.length t.target_sets then
    invalid_arg "Detection_table.corrupt_target_set: bad target index";
  if vector < 0 || vector >= t.universe then
    invalid_arg "Detection_table.corrupt_target_set: vector outside universe";
  (* Detection sets are deduplicated ([classify]), so corrupt a private copy:
     the injected wrong answer must stay confined to this one target. *)
  let set = Bitvec.copy t.target_sets.(fi) in
  Bitvec.assign set vector (not (Bitvec.get set vector));
  t.target_sets.(fi) <- set

let find_untargeted t ~victim ~victim_value ~aggressor ~aggressor_value =
  let node name =
    match Netlist.find_by_name t.net name with
    | Some id -> id
    | None -> invalid_arg ("Detection_table.find_untargeted: " ^ name)
  in
  let code =
    Packed.bridge ~victim:(node victim) ~victim_value
      ~aggressor:(node aggressor) ~aggressor_value
  in
  let rec find j =
    if j >= Array.length t.untargeted then None
    else if t.untargeted.(j) = code then Some j
    else find (j + 1)
  in
  find 0
