module Bitvec = Ndetect_util.Bitvec
module Rng = Ndetect_util.Rng
module Parallel = Ndetect_util.Parallel
module Telemetry = Ndetect_util.Telemetry

type mode = Definition1 | Definition2 | Multi_output

let mode_name = function
  | Definition1 -> "definition1"
  | Definition2 -> "definition2"
  | Multi_output -> "multi_output"

type config = { seed : int; set_count : int; nmax : int; mode : mode }

let default_config =
  { seed = 1; set_count = 1000; nmax = 10; mode = Definition1 }

(* The per-fault arrays after [def1_counts] serve the strict modes only
   and are [||] in a Definition 1 run, which never reads them. *)
type test_set = {
  members : Bitvec.t;  (* membership over the universe *)
  mutable added : (int * int) list;  (* (vector, iteration), reverse order *)
  def1_counts : int array;  (* per target fault: |T(f) ∩ Tk| *)
  chains : int list array;  (* strict-mode counted detections, reversed *)
  chain_lens : int array;  (* |chains.(fi)|, maintained incrementally so
                              the inner loop never pays List.length *)
  output_masks : int array;  (* Multi_output: all outputs observing the fault *)
  chain_masks : int array;  (* Multi_output: outputs covered by the chain *)
  (* Once no unused test can raise a fault's strict count, none ever will
     (chains and sets only grow), so the exhausted verdict is permanent. *)
  strict_exhausted : bool array;
}

type outcome = {
  config : config;
  report : int array;
  report_pos : (int, int) Hashtbl.t;  (* gj -> position in report *)
  detected : int array array;  (* detected.(n-1).(pos) = d(n, g) *)
  sets : test_set array;
}

let build_report_index table report =
  let universe = Detection_table.universe table in
  let buckets = Array.make universe [] in
  Array.iteri
    (fun pos gj ->
      Bitvec.iter_set
        (Detection_table.untargeted_set table gj)
        (fun v -> buckets.(v) <- pos :: buckets.(v)))
    report;
  Array.map Array.of_list buckets

(* The K test sets are mutually independent: each is constructed from its
   own pre-split RNG stream against shared read-only tables. [run] fans
   the sets out over domains in contiguous chunks; because stream
   [rngs.(k)] fully determines set [k], the outcome is bit-identical for
   every domain count (including the sequential domains = 1 path). *)

(* Everything a set-construction worker reads, all of it immutable or
   domain-safe: the detection table memos are published atomically /
   under a mutex (see Detection_table), and the Multi_output per-target
   output sets are precomputed before fan-out. *)
type shared = {
  table : Detection_table.t;
  cfg : config;
  universe : int;
  f_count : int;
  target_n : int array;  (* N(f) = |T(f)| *)
  report_len : int;
  report_detectors : int array array;  (* vector -> report positions *)
  target_detectors : int array array;  (* vector -> target fault indices *)
  output_sets : Bitvec.t array array;  (* Multi_output only; fi -> per-output *)
}

(* Outputs observing target [fi] under vector [v], as a bitmask. *)
let observing_mask sh fi v =
  let sets = sh.output_sets.(fi) in
  let mask = ref 0 in
  Array.iteri
    (fun o set -> if Bitvec.get set v then mask := !mask lor (1 lsl o))
    sets;
  !mask

let debug_stale_count = ref false

(* [available] is |T(f) - Tk|, which the caller reads off its detection
   count as N(f) - |T(f) ∩ Tk|; the armed [debug_stale_count] shrinks it
   by one whenever the count is positive. *)
let pick_uniform_diff rng tf members ~available =
  if available = 0 then None
  else Some (Bitvec.nth_diff tf members (Rng.int rng ~bound:available))

let unused_count sh s fi =
  let count = s.def1_counts.(fi) in
  let available = sh.target_n.(fi) - count in
  if !debug_stale_count && count > 0 && available > 0 then available - 1
  else available

(* Uniform draw from the candidates of T(fi) - Tk satisfying [accepts]:
   a few rejection samples first, then a scan of the unused tests in a
   uniformly random order, returning the first acceptable one. Both
   phases draw uniformly over the candidate set (the first acceptable
   element of a uniform permutation is uniform over acceptables, by
   symmetry), and the permutation scan only pays for the full set when
   no candidate exists at all. [first] is that scan: the first
   acceptable element of the shuffled unused tests. *)
let pick_candidate rng ~accepts ~first ~available s tf =
  let rec sample attempts =
    if attempts = 0 then None
    else
      match pick_uniform_diff rng tf s.members ~available with
      | None -> None
      | Some v -> if accepts v then Some v else sample (attempts - 1)
  in
  match sample 8 with
  | Some v -> Some v
  | None ->
    let unused =
      Bitvec.fold_set tf ~init:[] ~f:(fun acc v ->
          if Bitvec.get s.members v then acc else v :: acc)
      |> Array.of_list
    in
    Rng.shuffle_in_place rng unused;
    first unused

(* Construct one complete n-detection test set from its own RNG stream.
   [def2] is the (chunk-local) Definition-2 oracle; [first_detected]
   records, per report position, the iteration at which the set first
   detected that fault (0 = never) — the global d(n, g) counters are
   aggregated from these after the fan-out. *)
let run_one cancel sh def2 rng =
  let strict x =
    if sh.cfg.mode = Definition1 then [||] else Array.make sh.f_count x
  in
  let s =
    {
      members = Bitvec.create sh.universe;
      added = [];
      def1_counts = Array.make sh.f_count 0;
      chains = strict [];
      chain_lens = strict 0;
      output_masks = strict 0;
      chain_masks = strict 0;
      strict_exhausted = strict false;
    }
  in
  let first_detected = Array.make sh.report_len 0 in
  let add_test ~iteration v =
    Bitvec.set s.members v;
    s.added <- (v, iteration) :: s.added;
    let detected = sh.target_detectors.(v) in
    (match def2 with
    | Some def2 ->
      (* Chains are per fault, so every open chain's verdict on [v] can
         be taken in one batch before any of them grows. *)
      let open_ =
        Array.of_seq
          (Seq.filter
             (fun fi -> s.chain_lens.(fi) < sh.cfg.nmax)
             (Array.to_seq detected))
      in
      let extends = Definition2.extend_many def2 ~chains:s.chains open_ v in
      Array.iteri
        (fun k fi ->
          if extends.(k) then begin
            s.chains.(fi) <- v :: s.chains.(fi);
            s.chain_lens.(fi) <- s.chain_lens.(fi) + 1
          end)
        open_
    | None -> ());
    (* Each vector is added once and raises exactly the counts of the
       faults it detects, so def1_counts.(fi) = |T(f) ∩ Tk| holds in
       every mode: the draws take their range from it. *)
    let counts = s.def1_counts in
    for i = 0 to Array.length detected - 1 do
      let fi = detected.(i) in
      counts.(fi) <- counts.(fi) + 1
    done;
    if sh.cfg.mode = Multi_output then
      Array.iter
        (fun fi ->
          (* A test joins the fault's counted chain iff it observes the
             fault on an output the chain has not covered yet, so the
             count stays a number of distinct tests. *)
          let m = observing_mask sh fi v in
          s.output_masks.(fi) <- s.output_masks.(fi) lor m;
          if
            s.chain_lens.(fi) < sh.cfg.nmax
            && m land lnot s.chain_masks.(fi) <> 0
          then begin
            s.chains.(fi) <- v :: s.chains.(fi);
            s.chain_lens.(fi) <- s.chain_lens.(fi) + 1;
            s.chain_masks.(fi) <- s.chain_masks.(fi) lor m
          end)
        detected;
    Array.iter
      (fun pos ->
        if first_detected.(pos) = 0 then first_detected.(pos) <- iteration)
      sh.report_detectors.(v)
  in
  (* Also the strict modes' fallback when the stricter count cannot
     reach n, so the fault is not left far below n. *)
  let def1_step ~n fi =
    if s.def1_counts.(fi) < n then (
      let tf = Detection_table.target_set sh.table fi in
      match
        pick_uniform_diff rng tf s.members ~available:(unused_count sh s fi)
      with
      | Some v -> add_test ~iteration:n v
      | None -> ())
  in
  for n = 1 to sh.cfg.nmax do
    for fi = 0 to sh.f_count - 1 do
      if fi land 63 = 0 then Ndetect_util.Cancel.poll cancel;
      match sh.cfg.mode with
      | Definition1 -> def1_step ~n fi
      | Definition2 ->
        if s.chain_lens.(fi) < n then
          if s.strict_exhausted.(fi) then def1_step ~n fi
          else begin
            let tf = Detection_table.target_set sh.table fi in
            let def2 = Option.get def2 and chain = s.chains.(fi) in
            match
              pick_candidate rng
                ~accepts:(Definition2.chain_extend def2 ~fi ~chain)
                ~first:(Definition2.first_extending def2 ~fi ~chain)
                ~available:(unused_count sh s fi) s tf
            with
            | Some v -> add_test ~iteration:n v
            | None ->
              s.strict_exhausted.(fi) <- true;
              def1_step ~n fi
          end
      | Multi_output ->
        if s.chain_lens.(fi) < n then
          if s.strict_exhausted.(fi) then def1_step ~n fi
          else begin
            let tf = Detection_table.target_set sh.table fi in
            let accepts v =
              observing_mask sh fi v land lnot s.chain_masks.(fi) <> 0
            in
            match
              pick_candidate rng ~accepts ~first:(Array.find_opt accepts)
                ~available:(unused_count sh s fi) s tf
            with
            | Some v -> add_test ~iteration:n v
            | None ->
              s.strict_exhausted.(fi) <- true;
              def1_step ~n fi
          end
    done
  done;
  (s, first_detected)

(* Shared setup of the read-only tables behind a run: everything
   [run_one] consults, fully determined by the table, the config and the
   report choice. *)
let make_shared ?report_faults table config =
  let universe = Detection_table.universe table in
  let f_count = Detection_table.target_count table in
  let report =
    match report_faults with
    | Some r -> Array.copy r
    | None -> Array.init (Detection_table.untargeted_count table) Fun.id
  in
  let report_pos = Hashtbl.create (2 * Array.length report) in
  Array.iteri (fun pos gj -> Hashtbl.replace report_pos gj pos) report;
  let report_detectors =
    match report_faults with
    (* Identity report: positions coincide with fault indices, so the
       table-wide memoized inversion is the report index — rebuilding it
       per run was the dominant cost of repeated small-K runs. *)
    | None -> Detection_table.untargeted_detectors_of_vector table
    | Some _ -> build_report_index table report
  in
  if config.mode = Multi_output && Detection_table.output_count table > 62
  then invalid_arg "Procedure1.run: Multi_output limited to 62 outputs";
  let sh =
    {
      table;
      cfg = config;
      universe;
      f_count;
      target_n = Array.init f_count (Detection_table.target_n table);
      report_len = Array.length report;
      report_detectors;
      target_detectors = Detection_table.detectors_of_vector table;
      output_sets =
        (match config.mode with
        | Multi_output ->
          (* Forced before fan-out: workers then only read. *)
          Array.init f_count (fun fi ->
              Detection_table.target_output_sets table ~fi)
        | Definition1 | Definition2 -> [||]);
    }
  in
  (sh, report, report_pos)

(* One pre-split stream per set, split in set order (explicit loop:
   Array.init's evaluation order is unspecified): the root generator
   never crosses domains, and stream k is the same whatever the
   chunking. *)
let split_streams ~seed ~count =
  let root = Rng.create ~seed in
  let rngs = Array.make count root in
  for k = 0 to count - 1 do
    rngs.(k) <- Rng.split root
  done;
  rngs

(* d(n, g) = #sets whose first detection of g happened at iteration
   <= n: bucket the first-detection iterations, then prefix-sum. *)
let aggregate_detected ~nmax ~report_len per_set =
  let detected = Array.init nmax (fun _ -> Array.make report_len 0) in
  Array.iter
    (fun (_, first_detected) ->
      Array.iteri
        (fun pos n ->
          if n > 0 then detected.(n - 1).(pos) <- detected.(n - 1).(pos) + 1)
        first_detected)
    per_set;
  for n = 1 to nmax - 1 do
    let prev = detected.(n - 1) and cur = detected.(n) in
    for pos = 0 to report_len - 1 do
      cur.(pos) <- cur.(pos) + prev.(pos)
    done
  done;
  detected

let run ?(cancel = Ndetect_util.Cancel.none) ?domains ?report_faults table
    config =
  if config.set_count < 1 || config.nmax < 1 then
    invalid_arg "Procedure1.run: bad config";
  Telemetry.with_span "procedure1.run"
    ~args:
      [
        ("sets", string_of_int config.set_count);
        ("nmax", string_of_int config.nmax);
        ("mode", mode_name config.mode);
      ]
  @@ fun () ->
  let sh, report, report_pos = make_shared ?report_faults table config in
  let rngs = split_streams ~seed:config.seed ~count:config.set_count in
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Parallel.default_domains ()
  in
  let chunk_count = if domains <= 1 then 1 else min config.set_count (2 * domains) in
  let chunk = (config.set_count + chunk_count - 1) / chunk_count in
  let bounds =
    Array.init chunk_count (fun c ->
        (c * chunk, min config.set_count ((c + 1) * chunk) - 1))
  in
  let chunk_results =
    Parallel.map_array ~domains
      (fun (lo, hi) ->
        if lo > hi then [||]
        else
          Telemetry.with_span "procedure1.chunk"
            ~args:
              [ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
          @@ fun () ->
          begin
          (* One Definition-2 oracle per chunk: its scratch rails are
             mutable, so they must not cross domains; verdicts are pure,
             so per-chunk instances do not affect the outcome. *)
          let def2 =
            match config.mode with
            | Definition2 -> Some (Definition2.create table)
            | Definition1 | Multi_output -> None
          in
          Array.init
            (hi - lo + 1)
            (fun i -> run_one cancel sh def2 rngs.(lo + i))
        end)
      bounds
  in
  let per_set = Array.concat (Array.to_list chunk_results) in
  assert (Array.length per_set = config.set_count);
  let sets = Array.map fst per_set in
  let detected =
    aggregate_detected ~nmax:config.nmax ~report_len:(Array.length report)
      per_set
  in
  { config; report; report_pos; detected; sets }

let config o = o.config
let report_faults o = Array.copy o.report

let pos_of o gj =
  match Hashtbl.find_opt o.report_pos gj with
  | Some pos -> pos
  | None -> invalid_arg "Procedure1: fault not tracked in report_faults"

let detected_count o ~n ~gj =
  if n < 1 || n > o.config.nmax then invalid_arg "Procedure1: n out of range";
  o.detected.(n - 1).(pos_of o gj)

let probability o ~n ~gj =
  float_of_int (detected_count o ~n ~gj) /. float_of_int o.config.set_count

let test_set o ~k = List.rev_map fst o.sets.(k).added

let test_set_at o ~n ~k =
  List.filter_map
    (fun (v, it) -> if it <= n then Some v else None)
    (List.rev o.sets.(k).added)

let detection_count_def1 o ~k ~fi = o.sets.(k).def1_counts.(fi)

let chain_def2 o ~k ~fi =
  match o.config.mode with
  | Definition1 -> []
  | Definition2 | Multi_output -> List.rev o.sets.(k).chains.(fi)

let output_mask o ~k ~fi =
  match o.config.mode with
  | Definition1 -> 0
  | Definition2 | Multi_output -> o.sets.(k).output_masks.(fi)
