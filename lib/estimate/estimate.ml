module Netlist = Ndetect_circuit.Netlist
module Bitvec = Ndetect_util.Bitvec
module Cancel = Ndetect_util.Cancel
module Telemetry = Ndetect_util.Telemetry
module Detection_table = Ndetect_core.Detection_table
module Analysis = Ndetect_core.Analysis
module Worst_case = Ndetect_core.Worst_case

let c_samples = Telemetry.Counter.create "est.samples_drawn"
let c_strata = Telemetry.Counter.create "est.strata"

module Spec = struct
  type t = { samples : int; strata : int; confidence : float }

  let default_strata = 16
  let default_confidence = 0.95

  let validate t =
    if t.samples < 1 then Error "samples must be >= 1"
    else if t.strata < 1 then Error "strata must be >= 1"
    else if t.samples < t.strata then
      Error
        (Printf.sprintf
           "samples (%d) must be >= strata (%d): every stratum draws at \
            least once"
           t.samples t.strata)
    else if not (t.confidence > 0.0 && t.confidence < 1.0) then
      Error "confidence must be strictly inside (0, 1)"
    else Ok t

  let make ?strata ?confidence ~samples () =
    let strata =
      match strata with
      | Some s -> s
      | None -> if samples < default_strata then samples else default_strata
    in
    let confidence = Option.value confidence ~default:default_confidence in
    validate { samples; strata; confidence }

  let to_string t =
    Printf.sprintf "samples=%d strata=%d confidence=%g" t.samples t.strata
      t.confidence
end

let effective_strata ~spec ~universe_bits =
  let u = 1 lsl universe_bits in
  if spec.Spec.strata < u then spec.Spec.strata else u

type t = {
  name : string;
  spec : Spec.t;
  seed : int;
  universe_bits : int;
  table : Detection_table.t;
  z : float;
  target_k : int array;
  dmin : int array;
}

let name t = t.name
let spec t = t.spec
let seed t = t.seed
let universe_bits t = t.universe_bits
let table t = t.table

let check_inputs ~name net =
  let bits = Netlist.input_count net in
  if bits < 1 then failwith (name ^ ": circuit has no primary inputs");
  if bits > Sampler.max_inputs then
    failwith
      (Printf.sprintf
         "%s: %d primary inputs exceed the sampled-universe limit of %d \
          (vectors are OCaml ints)"
         name bits Sampler.max_inputs);
  bits

(* 2^bits exactly (bits <= 61, so this is an exact float). *)
let universe_float bits = Float.ldexp 1.0 bits

let debug_corrupt_scan = ref false

(* The sabotage [debug_corrupt_scan] arms: give a private copy of the
   first target the detection set of the first nonempty untargeted set
   that no nonempty target set fits inside, so the scan reports
   dmin(g) = 0 where the truth is -1 or at least 1. The table itself
   stays intact. *)
let corrupt_scan_input target_sets untargeted_sets =
  let fits g f = (not (Bitvec.is_empty f)) && Bitvec.subset f g in
  let victim =
    Array.find_opt
      (fun g ->
        (not (Bitvec.is_empty g)) && not (Array.exists (fits g) target_sets))
      untargeted_sets
  in
  match victim with
  | Some g when Array.length target_sets > 0 ->
    let sets = Array.copy target_sets in
    sets.(0) <- g;
    sets
  | _ -> target_sets

let target_sets table =
  Array.init
    (Detection_table.target_count table)
    (Detection_table.target_set table)

(* Sampled tables keep every fault — a set empty in the sample need not
   be empty in truth, and the calibration oracle indexes faults
   positionally against an exhaustive table built with the same
   flags. *)
let build_sampled_table ~cancel ~vectors net =
  Detection_table.build ~keep_undetectable_targets:true
    ~keep_undetectable_untargeted:true ~cancel ~vectors net

let analyze ?(cancel = Cancel.none) ~spec ~seed ~name net =
  let universe_bits = check_inputs ~name net in
  let strata = effective_strata ~spec ~universe_bits in
  let vectors =
    Sampler.draw ~universe_bits ~samples:spec.Spec.samples ~strata ~seed
  in
  Telemetry.Counter.add c_samples (Array.length vectors);
  Telemetry.Counter.add c_strata strata;
  let table = build_sampled_table ~cancel ~vectors net in
  let target_sets = target_sets table in
  let scanned_sets =
    if !debug_corrupt_scan then
      (* The first class meeting the victim condition holds the first
         such fault: classes are numbered in first-seen order. *)
      corrupt_scan_input target_sets
        (Array.init
           (Detection_table.untargeted_class_count table)
           (Detection_table.untargeted_class_set table))
    else target_sets
  in
  (* dmin = nmin - 1 from the worst-case scan of the table's untargeted
     classes: each distinct set is scanned once, and no per-fault set
     array is built. *)
  let dmin =
    Telemetry.with_span "est.scan"
      ~args:
        [
          ("targets", string_of_int (Array.length target_sets));
          ( "untargeted",
            string_of_int (Detection_table.untargeted_count table) );
        ]
    @@ fun () ->
    Array.map
      (fun n -> if n = Worst_case.unbounded then -1 else n - 1)
      (Worst_case.nmin_of_classes ~cancel ~target_sets:scanned_sets table)
  in
  {
    name;
    spec;
    seed;
    universe_bits;
    table;
    z = Interval.z_of_confidence spec.Spec.confidence;
    target_k = Array.map Bitvec.count target_sets;
    dmin;
  }

let dmin t gj = t.dmin.(gj)

let target_interval t fi =
  let s = t.spec.Spec.samples in
  let u = universe_float t.universe_bits in
  let lo, hi = Interval.wilson ~z:t.z ~trials:s ~successes:t.target_k.(fi) in
  ( u *. lo,
    u *. float_of_int t.target_k.(fi) /. float_of_int s,
    u *. hi )

(* For the minimizing target f, nmin(g) = |T(f) - T(g)| + 1: scale the
   sampled miss proportion dmin/s back to the count scale and add 1.
   Both Wilson endpoints are monotone in the success count, so the
   minimizing dmin yields the interval endpoints too. *)
let nmin_interval_of ~z ~samples ~universe dmin_g =
  if dmin_g < 0 then None
  else
    let lo, hi = Interval.wilson ~z ~trials:samples ~successes:dmin_g in
    Some
      ( (universe *. lo) +. 1.0,
        (universe *. float_of_int dmin_g /. float_of_int samples) +. 1.0,
        (universe *. hi) +. 1.0 )

let nmin_interval t gj =
  nmin_interval_of ~z:t.z ~samples:t.spec.Spec.samples
    ~universe:(universe_float t.universe_bits)
    t.dmin.(gj)

let hard_faults t ~nmax =
  let bound = float_of_int nmax in
  let acc = ref [] in
  for gj = Array.length t.dmin - 1 downto 0 do
    let hard =
      match nmin_interval t gj with
      | None -> true
      | Some (_, point, _) -> point > bound
    in
    if hard then acc := gj :: !acc
  done;
  Array.of_list !acc

type summary = {
  circuit : string;
  spec : Spec.t;
  universe_bits : int;
  strata_used : int;
  target_faults : int;
  untargeted_faults : int;
  percent_below : (int * float * float * float) list;
  unbounded_count : int;
}

let summary (t : t) =
  let { name; spec; universe_bits; dmin; z; target_k; _ } = t in
  let u = universe_float universe_bits in
  let samples = spec.Spec.samples in
  let total = Array.length dmin in
  let percent count =
    if total = 0 then 0.0
    else 100.0 *. float_of_int count /. float_of_int total
  in
  (* The interval depends on dmin alone, and dmin <= |T(f)| <= the
     table's universe: count the faults per value and take each
     distinct value's interval once per threshold. *)
  let faults_with = Array.make (Detection_table.universe t.table + 1) 0 in
  Array.iter
    (fun d -> if d >= 0 then faults_with.(d) <- faults_with.(d) + 1)
    dmin;
  let percent_below =
    List.map
      (fun n0 ->
        let bound = float_of_int n0 in
        let guaranteed = ref 0 and point_count = ref 0 and optimistic = ref 0 in
        Array.iteri
          (fun d faults ->
            if faults > 0 then
              match nmin_interval_of ~z ~samples ~universe:u d with
              | None -> ()
              | Some (lo, point, hi) ->
                if hi <= bound then guaranteed := !guaranteed + faults;
                if point <= bound then point_count := !point_count + faults;
                if lo <= bound then optimistic := !optimistic + faults)
          faults_with;
        (n0, percent !guaranteed, percent !point_count, percent !optimistic))
      Analysis.worst_thresholds_below
  in
  {
    circuit = name;
    spec;
    universe_bits;
    strata_used = effective_strata ~spec ~universe_bits;
    target_faults = Array.length target_k;
    untargeted_faults = total;
    percent_below;
    unbounded_count =
      Array.fold_left (fun acc d -> if d < 0 then acc + 1 else acc) 0 dmin;
  }
