module Bitvec = Ndetect_util.Bitvec
module Word = Ndetect_logic.Word
module Gate = Ndetect_circuit.Gate
module Line = Ndetect_circuit.Line
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge

(* Reusable propagation workspace for the fanout cone of one or two seed
   nodes. The update schedule is flattened once — per gate: its kind, and
   a [flat] slice of fanin node ids with a parallel in-cone flag — so a
   batch evaluation runs over plain int arrays into preallocated scratch
   buffers without allocating. *)
type cone = {
  seed : int;  (* primary seed; forced directly *)
  seed2 : int;  (* second forced node (wired bridges), or -1 *)
  sched : int array;  (* gates to (re)evaluate, topo order, seeds excluded *)
  kinds : Gate.kind array;  (* kinds.(i) = kind of sched.(i) *)
  offsets : int array;  (* length |sched|+1; fanins of sched.(i) live at
                           flat.(offsets.(i)) .. flat.(offsets.(i+1))-1 *)
  flat : int array;  (* flattened fanin node ids *)
  flat_in_cone : bool array;  (* parallel to flat: faulty vs fault-free *)
  in_cone : bool array;
  cone_outputs : int array;
  faulty : Word.t array;  (* indexed by node id, valid only inside cone *)
  scratch : Word.t array array;  (* scratch.(arity): reused argument buffer *)
}

let build_cone net ~in_cone ~seed ~seed2 cone_nodes =
  let sched =
    Array.of_seq
      (Seq.filter
         (fun id -> id <> seed && id <> seed2)
         (Array.to_seq cone_nodes))
  in
  let kinds = Array.map (fun id -> Netlist.kind net id) sched in
  let total_fanins =
    Array.fold_left
      (fun acc id -> acc + Array.length (Netlist.fanins net id))
      0 sched
  in
  let offsets = Array.make (Array.length sched + 1) 0 in
  let flat = Array.make (max 1 total_fanins) 0 in
  let flat_in_cone = Array.make (max 1 total_fanins) false in
  let max_arity = ref 0 in
  let next = ref 0 in
  Array.iteri
    (fun i id ->
      offsets.(i) <- !next;
      let fanins = Netlist.fanins net id in
      max_arity := max !max_arity (Array.length fanins);
      Array.iter
        (fun f ->
          flat.(!next) <- f;
          flat_in_cone.(!next) <- in_cone.(f);
          incr next)
        fanins)
    sched;
  offsets.(Array.length sched) <- !next;
  let cone_outputs =
    Array.of_seq
      (Seq.filter (fun id -> in_cone.(id)) (Array.to_seq (Netlist.outputs net)))
  in
  {
    seed;
    seed2;
    sched;
    kinds;
    offsets;
    flat;
    flat_in_cone;
    in_cone;
    cone_outputs;
    faulty = Array.make (Netlist.node_count net) Word.zeroes;
    scratch = Array.init (!max_arity + 1) (fun a -> Array.make a Word.zeroes);
  }

let make_cone net seed =
  let order = Netlist.fanout_cone_order net seed in
  let in_cone = Array.make (Netlist.node_count net) false in
  Array.iter (fun id -> in_cone.(id) <- true) order;
  build_cone net ~in_cone ~seed ~seed2:(-1) order

(* Two-seed variant for wired bridges: the faulty value is forced on both
   bridged nodes, and the update schedule is the union of the two fanout
   cones. *)
let make_cone2 net a b =
  let reach_a = Netlist.transitive_fanout net a in
  let reach_b = Netlist.transitive_fanout net b in
  let in_cone =
    Array.init (Netlist.node_count net) (fun id -> reach_a.(id) || reach_b.(id))
  in
  let order =
    Array.to_seq (Netlist.topo_order net)
    |> Seq.filter (fun id -> in_cone.(id))
    |> Array.of_seq
  in
  build_cone net ~in_cone ~seed:a ~seed2:b order

(* Per-domain cone cache: stem/branch faults that share a seed node (a
   gate's output stem and its input branches; every bridge victimizing
   the same node) reuse one flattened schedule and one scratch set.
   Cones are mutable workspaces, so the cache is domain-local
   (Domain.DLS): no locks, and no cross-domain sharing of scratch
   state. Keyed by {!Good.id} so distinct fault-free tables (even over
   the same netlist) never alias. *)
let cone_cache_limit = 1024

let cone_cache : (int * int * int, cone) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let cached ~key build =
  let tbl = Domain.DLS.get cone_cache in
  match Hashtbl.find_opt tbl key with
  | Some cone -> cone
  | None ->
    let cone = build () in
    if Hashtbl.length tbl >= cone_cache_limit then Hashtbl.reset tbl;
    Hashtbl.replace tbl key cone;
    cone

(* Work accounting lives in the Telemetry registry (one atomic add per
   fault or group, never per inner loop). "sim.detection_sets" is the
   counter the table-cache tests hold flat across a warm run;
   "sim.cone_propagations" counts per-batch propagation passes,
   "sim.stem_regions" the regions traced, "sim.cpt_faults" the member
   faults recovered by critical path tracing and "sim.stem_fallbacks"
   the faults routed to the per-fault cone path instead (wired
   bridges). All count deterministic work, so their totals are
   identical for every domain count. *)
module Telemetry = Ndetect_util.Telemetry

let c_sets = Telemetry.Counter.create "sim.detection_sets"
let c_propagations = Telemetry.Counter.create "sim.cone_propagations"
let c_stem_regions = Telemetry.Counter.create "sim.stem_regions"
let c_cpt_faults = Telemetry.Counter.create "sim.cpt_faults"
let c_stem_fallbacks = Telemetry.Counter.create "sim.stem_fallbacks"
let note_sets n = Telemetry.Counter.add c_sets n

let cone_for good seed =
  cached
    ~key:(Good.id good, seed, -1)
    (fun () -> make_cone (Good.net good) seed)

let cone2_for good a b =
  cached ~key:(Good.id good, a, b) (fun () -> make_cone2 (Good.net good) a b)

(* Evaluate every scheduled gate of the cone for one batch, reading
   forced/faulty values for in-cone fanins and the precomputed fault-free
   table for the rest. Seeds must already be set in [cone.faulty]. Every
   in-cone fanin is either a seed or an earlier schedule entry (topo
   order), so no stale value is ever read. Allocation-free. *)
let eval_sched good cone ~batch ~live =
  let n = Array.length cone.sched in
  for i = 0 to n - 1 do
    let off = cone.offsets.(i) in
    let arity = cone.offsets.(i + 1) - off in
    let args = cone.scratch.(arity) in
    for p = 0 to arity - 1 do
      let f = cone.flat.(off + p) in
      args.(p) <-
        (if cone.flat_in_cone.(off + p) then cone.faulty.(f)
         else Good.value good ~node:f ~batch)
    done;
    cone.faulty.(cone.sched.(i)) <-
      Gate.eval_word cone.kinds.(i) args land live
  done

let output_diff good cone ~batch ~live =
  let acc = ref Word.zeroes in
  Array.iter
    (fun o ->
      acc := !acc lor (cone.faulty.(o) lxor Good.value good ~node:o ~batch))
    cone.cone_outputs;
  !acc land live

(* Propagate a forced seed value through the cone for one batch and return
   the mask of lanes where some primary output differs from fault-free. *)
let propagate good cone ~batch ~seed_value =
  let live = Good.live_mask good ~batch in
  let seed_good = Good.value good ~node:cone.seed ~batch in
  if seed_value land live = seed_good land live then Word.zeroes
  else begin
    cone.faulty.(cone.seed) <- seed_value land live;
    eval_sched good cone ~batch ~live;
    output_diff good cone ~batch ~live
  end

(* A stuck fault is injected either at a stem (the node itself is forced)
   or at a branch (only one gate sees the forced value: the seed is that
   gate, whose faulty output is evaluated with the pin overridden). *)
let stuck_seed good fault =
  let net = Good.net good in
  match fault.Stuck.line with
  | Line.Stem node ->
    let forced ~batch =
      if fault.Stuck.value then Good.live_mask good ~batch else Word.zeroes
    in
    (node, forced)
  | Line.Branch { gate; pin } ->
    let forced ~batch =
      let live = Good.live_mask good ~batch in
      let pin_value p =
        if p = pin then if fault.Stuck.value then live else Word.zeroes
        else Good.value good ~node:(Netlist.fanins net gate).(p) ~batch
      in
      Gate.eval_word (Netlist.kind net gate)
        (Array.init (Array.length (Netlist.fanins net gate)) pin_value)
      land live
    in
    (gate, forced)

let detection_set_of_seed good (seed, forced) =
  note_sets 1;
  Telemetry.Counter.add c_propagations (Good.batch_count good);
  let cone = cone_for good seed in
  Good.detection_mask_to_set good (fun ~batch ->
      propagate good cone ~batch ~seed_value:(forced ~batch))

let stuck_detection_set good fault =
  detection_set_of_seed good (stuck_seed good fault)

let value_match word ~value ~live =
  if value then word else Word.lognot word land live

let bridge_seed good (fault : Bridge.t) =
  let forced ~batch =
    let live = Good.live_mask good ~batch in
    let victim_good = Good.value good ~node:fault.victim ~batch in
    let aggressor_good = Good.value good ~node:fault.aggressor ~batch in
    let activated =
      value_match victim_good ~value:fault.victim_value ~live
      land value_match aggressor_good ~value:fault.aggressor_value ~live
    in
    victim_good lxor activated
  in
  (fault.victim, forced)

let bridge_detection_set good fault =
  detection_set_of_seed good (bridge_seed good fault)

(* {2 Stem-region critical path tracing}

   Inside a fanout-free region ({!Netlist.ffr_partition}) a fault
   effect travels along a unique path to the region root, so one
   propagation of the root — flipping it in {e every} lane at once —
   plus per-gate sensitization words recovers every member fault's
   detection mask exactly:

     det(f) = act(f) AND [pinsens(entry pin)] AND sens(site -> root)
              AND stemdiff(root)

   where [act] is the fault's activation over fault-free values,
   [pinsens(g, p)] the lanes where flipping pin [p] flips gate [g]'s
   output (re-evaluated from fault-free values with the pin
   complemented), [sens] the AND of [pinsens] along the unique path,
   and [stemdiff] the lanes where some primary output differs when the
   root flips. Lanes are independent, so the all-lane root flip is a
   faithful downstream simulation per lane; the path product is exact
   (not the classic CPT stem approximation) because reconvergence can
   only happen at or beyond the root, where the real propagation takes
   over. A region with k faults costs one propagation plus O(region)
   word operations per batch instead of k propagations. *)

(* Test-only: when set, every in-region sensitization word is
   complemented, silently corrupting traced detection sets — the
   differential campaign (`ndetect check`) must catch this. *)
let debug_corrupt_sensitization = ref false

(* Flat slot-indexed description of every traced fault (structure of
   arrays): entry [s] describes the fault whose detection set is result
   slot [s] — how it enters its region: detection requires the
   fault-free value at [sj_node] to equal [sj_act_value] (NOT the stuck
   value), the effect may enter through one gate pin, and the region
   node whose path-to-root sensitization gates detection (the root
   itself for at-root faults; [sens(root)] is all live lanes). Plain
   int/bool arrays keep grouping and the traced inner loop
   allocation-free, which matters: on small universes the bookkeeping
   around the sweep costs more than the sweep itself. *)
type stem_jobs = {
  sj_root : int array;  (* region root of the fault site *)
  sj_node : int array;  (* activation node (the line's driver) *)
  sj_act_value : bool array;  (* required fault-free value there *)
  sj_pin_gate : int array;  (* gate whose pin the effect enters, or -1 *)
  sj_pin : int array;
  sj_sens : int array;  (* region node whose sens-to-root applies *)
}

let make_jobs n =
  {
    sj_root = Array.make n 0;
    sj_node = Array.make n 0;
    sj_act_value = Array.make n false;
    sj_pin_gate = Array.make n (-1);
    sj_pin = Array.make n 0;
    sj_sens = Array.make n 0;
  }

(* Live regions (those with at least one member fault), grouped by
   counting sort — no hashing, no per-member allocation. Region ids are
   assigned in first-seen job order and members keep enumeration order
   within each region, so the layout (and hence every downstream write)
   is deterministic regardless of scheduling. [rn_*] hold each region's
   non-root nodes in descending id order — consumers precede producers,
   exactly the evaluation order of the sensitization recurrence. *)
type regions = {
  rg_count : int;
  rg_root : int array;  (* region -> root node id *)
  rg_node_off : int array;  (* region -> [off, off') into rn_* *)
  rn_node : int array;
  rn_cons_gate : int array;  (* unique consumer of rn_node.(i) *)
  rn_cons_pin : int array;
  rg_mem_off : int array;  (* region -> [off, off') into rg_member *)
  rg_member : int array;  (* member slot ids *)
}

let build_regions net (part : Netlist.ffr) (jobs : stem_jobs) =
  let n_jobs = Array.length jobs.sj_root in
  let node_count = Netlist.node_count net in
  let region_of_root = Array.make node_count (-1) in
  let roots = Array.make (max 1 n_jobs) 0 in
  let count = ref 0 in
  for s = 0 to n_jobs - 1 do
    let r = jobs.sj_root.(s) in
    if region_of_root.(r) < 0 then begin
      region_of_root.(r) <- !count;
      roots.(!count) <- r;
      incr count
    end
  done;
  let count = !count in
  let rg_root = Array.sub roots 0 count in
  (* Members, bucketed by prefix sums. *)
  let rg_mem_off = Array.make (count + 1) 0 in
  for s = 0 to n_jobs - 1 do
    let g = region_of_root.(jobs.sj_root.(s)) in
    rg_mem_off.(g + 1) <- rg_mem_off.(g + 1) + 1
  done;
  for g = 1 to count do
    rg_mem_off.(g) <- rg_mem_off.(g) + rg_mem_off.(g - 1)
  done;
  let cursor = Array.sub rg_mem_off 0 count in
  let rg_member = Array.make (max 1 n_jobs) 0 in
  for s = 0 to n_jobs - 1 do
    let g = region_of_root.(jobs.sj_root.(s)) in
    rg_member.(cursor.(g)) <- s;
    cursor.(g) <- cursor.(g) + 1
  done;
  (* Non-root nodes of each live region, same bucketing; filling from
     the top of each bucket while walking ids in ascending order yields
     the required descending order. *)
  let rg_node_off = Array.make (count + 1) 0 in
  for id = 0 to node_count - 1 do
    let r = part.Netlist.ffr_root.(id) in
    if id <> r then begin
      let g = region_of_root.(r) in
      if g >= 0 then rg_node_off.(g + 1) <- rg_node_off.(g + 1) + 1
    end
  done;
  for g = 1 to count do
    rg_node_off.(g) <- rg_node_off.(g) + rg_node_off.(g - 1)
  done;
  let total_nodes = rg_node_off.(count) in
  let top = Array.init count (fun g -> rg_node_off.(g + 1) - 1) in
  let rn_node = Array.make (max 1 total_nodes) 0 in
  let rn_cons_gate = Array.make (max 1 total_nodes) 0 in
  let rn_cons_pin = Array.make (max 1 total_nodes) 0 in
  for id = 0 to node_count - 1 do
    let r = part.Netlist.ffr_root.(id) in
    if id <> r then begin
      let g = region_of_root.(r) in
      if g >= 0 then begin
        let pos = top.(g) in
        let cg, cp = (Netlist.fanouts net id).(0) in
        rn_node.(pos) <- id;
        rn_cons_gate.(pos) <- cg;
        rn_cons_pin.(pos) <- cp;
        top.(g) <- pos - 1
      end
    end
  done;
  {
    rg_count = count;
    rg_root;
    rg_node_off;
    rn_node;
    rn_cons_gate;
    rn_cons_pin;
    rg_mem_off;
    rg_member;
  }

(* Lanes where flipping pin [pin] of [gate] flips the gate's output:
   re-evaluate the gate from fault-free values with the pin
   complemented and XOR against the fault-free output. Works for every
   gate kind, including XOR-family gates where the classic
   controlling-value shortcut does not apply. *)
let pin_sensitization good scratch ~batch ~live ~gate ~pin =
  let net = Good.net good in
  let fanins = Netlist.fanins net gate in
  let arity = Array.length fanins in
  let args : Word.t array = scratch.(arity) in
  for q = 0 to arity - 1 do
    args.(q) <- Good.value good ~node:fanins.(q) ~batch
  done;
  args.(pin) <- Word.lognot args.(pin);
  (Gate.eval_word (Netlist.kind net gate) args
  lxor Good.value good ~node:gate ~batch)
  land live

let max_gate_arity net =
  let m = ref 0 in
  for id = 0 to Netlist.node_count net - 1 do
    m := max !m (Array.length (Netlist.fanins net id))
  done;
  !m

(* Batch-major parallel sweep: result Bitvecs are preallocated by the
   caller, each task owns a contiguous batch range for {e all} regions
   and writes the disjoint word range [lo, hi) of every set directly —
   no per-fault arrays to merge, and the output is identical for every
   domain count by construction. Word [b] of a detection set is batch
   [b] of the universe (asserted in good.ml). Member activations skip
   the explicit live mask: [stemdiff] is already masked, and the final
   word is ANDed with it. *)
let run_stem_regions ~cancel good (rg : regions) (jobs : stem_jobs) sets =
  let net = Good.net good in
  let batch_count = Good.batch_count good in
  let node_count = Netlist.node_count net in
  let max_arity = max_gate_arity net in
  if rg.rg_count > 0 && batch_count > 0 then begin
    (* More slices than domains so Parallel's n/2 cap still engages
       every domain; contiguous ranges keep the writes disjoint. *)
    let slice_count =
      min batch_count (4 * Ndetect_util.Parallel.default_domains ())
    in
    let slices =
      Array.init slice_count (fun s ->
          (s * batch_count / slice_count, (s + 1) * batch_count / slice_count))
    in
    Ndetect_util.Parallel.map_array
      (fun (lo, hi) ->
        let sens = Array.make node_count Word.zeroes in
        let scratch =
          Array.init (max_arity + 1) (fun a -> Array.make a Word.zeroes)
        in
        for g = 0 to rg.rg_count - 1 do
          Ndetect_util.Cancel.poll cancel;
          let root = rg.rg_root.(g) in
          let cone = cone_for good root in
          let node_lo = rg.rg_node_off.(g)
          and node_hi = rg.rg_node_off.(g + 1) in
          let mem_lo = rg.rg_mem_off.(g)
          and mem_hi = rg.rg_mem_off.(g + 1) in
          for batch = lo to hi - 1 do
            let live = Good.live_mask good ~batch in
            let root_good = Good.value good ~node:root ~batch in
            let stemdiff =
              propagate good cone ~batch
                ~seed_value:(Word.lognot root_good land live)
            in
            if stemdiff <> Word.zeroes then begin
              sens.(root) <- live;
              for i = node_lo to node_hi - 1 do
                let ps =
                  pin_sensitization good scratch ~batch ~live
                    ~gate:rg.rn_cons_gate.(i) ~pin:rg.rn_cons_pin.(i)
                in
                (* The consumer is a later region node (or the root),
                   so its sens is already set for this batch. *)
                sens.(rg.rn_node.(i)) <- sens.(rg.rn_cons_gate.(i)) land ps
              done;
              if !debug_corrupt_sensitization then
                for i = node_lo to node_hi - 1 do
                  sens.(rg.rn_node.(i)) <- sens.(rg.rn_node.(i)) lxor live
                done;
              for m = mem_lo to mem_hi - 1 do
                let s = rg.rg_member.(m) in
                let act =
                  value_match
                    (Good.value good ~node:jobs.sj_node.(s) ~batch)
                    ~value:jobs.sj_act_value.(s) ~live
                in
                let d = ref (act land stemdiff) in
                if !d <> Word.zeroes then begin
                  if jobs.sj_pin_gate.(s) >= 0 then
                    d :=
                      !d
                      land pin_sensitization good scratch ~batch ~live
                             ~gate:jobs.sj_pin_gate.(s) ~pin:jobs.sj_pin.(s);
                  if !d <> Word.zeroes then
                    d := !d land sens.(jobs.sj_sens.(s));
                  if !d <> Word.zeroes then
                    Bitvec.unsafe_set_word sets.(s) batch !d
                end
              done
            end
          done
        done)
      slices
    |> ignore
  end

let stem_detection_sets ~cancel good part jobs =
  let regions = build_regions (Good.net good) part jobs in
  let universe = Good.universe good in
  let n_jobs = Array.length jobs.sj_root in
  (* One pooled allocation for every result set: on small universes the
     per-set [Bitvec.create] calls would otherwise rival the simulation
     itself (one bigarray allocation + zero-fill per fault). *)
  let sets = Bitvec.create_many n_jobs universe in
  note_sets n_jobs;
  Telemetry.Counter.add c_cpt_faults n_jobs;
  Telemetry.Counter.add c_stem_regions regions.rg_count;
  Telemetry.Counter.add c_propagations
    (regions.rg_count * Good.batch_count good);
  run_stem_regions ~cancel good regions jobs sets;
  sets

(* A stem fault's effect starts at the node itself; a branch fault's
   effect enters one pin of its gate, activated by the driver's
   fault-free value. Either way the path-to-root sensitization applies
   from the first in-region gate output. A stuck-at-[v] fault is
   activated where the fault-free value is NOT [v]. *)
let stuck_detection_sets ?(cancel = Ndetect_util.Cancel.none) good faults =
  let net = Good.net good in
  let part = Netlist.ffr_partition net in
  let jobs = make_jobs (Array.length faults) in
  Array.iteri
    (fun s (f : Stuck.t) ->
      jobs.sj_act_value.(s) <- not f.Stuck.value;
      match f.Stuck.line with
      | Line.Stem node ->
        jobs.sj_root.(s) <- part.Netlist.ffr_root.(node);
        jobs.sj_node.(s) <- node;
        jobs.sj_sens.(s) <- node
      | Line.Branch { gate; pin } ->
        jobs.sj_root.(s) <- part.Netlist.ffr_root.(gate);
        jobs.sj_node.(s) <- (Netlist.fanins net gate).(pin);
        jobs.sj_pin_gate.(s) <- gate;
        jobs.sj_pin.(s) <- pin;
        jobs.sj_sens.(s) <- gate)
    faults;
  stem_detection_sets ~cancel good part jobs

let wired_detection_set good (fault : Ndetect_faults.Wired.t) =
  note_sets 1;
  Telemetry.Counter.add c_propagations (Good.batch_count good);
  let cone = cone2_for good fault.a fault.b in
  Good.detection_mask_to_set good (fun ~batch ->
      let live = Good.live_mask good ~batch in
      let va = Good.value good ~node:fault.a ~batch in
      let vb = Good.value good ~node:fault.b ~batch in
      let forced =
        match fault.semantics with
        | Ndetect_faults.Wired.Wired_and -> va land vb
        | Ndetect_faults.Wired.Wired_or -> (va lor vb) land live
      in
      if forced = va land live && forced = vb land live then Word.zeroes
      else begin
        cone.faulty.(fault.a) <- forced;
        cone.faulty.(fault.b) <- forced;
        eval_sched good cone ~batch ~live;
        output_diff good cone ~batch ~live
      end)

let wired_detection_sets ?(cancel = Ndetect_util.Cancel.none) good faults =
  (* Wired bridges force two seeds at once, so the single-stem trace
     does not apply; they fall back to the per-fault cone path and are
     counted so profiles show the untraced remainder. *)
  Telemetry.Counter.add c_stem_fallbacks (Array.length faults);
  Ndetect_util.Parallel.map_array
    (fun f ->
      Ndetect_util.Cancel.poll cancel;
      wired_detection_set good f)
    faults

let detects_stuck good fault ~vector =
  if vector < 0 || vector >= Good.universe good then
    invalid_arg "Fault_sim.detects_stuck: vector outside universe";
  let seed, forced = stuck_seed good fault in
  let cone = cone_for good seed in
  let batch = vector / Word.width in
  let mask = propagate good cone ~batch ~seed_value:(forced ~batch) in
  Word.get mask (vector mod Word.width)
