module Bitvec = Ndetect_util.Bitvec
module Rng = Ndetect_util.Rng
module Parallel = Ndetect_util.Parallel
module Telemetry = Ndetect_util.Telemetry

type mode = Definition1 | Definition2

let mode_name = function
  | Definition1 -> "definition1"
  | Definition2 -> "definition2"

type config = { seed : int; set_count : int; nmax : int; mode : mode }

let default_config =
  { seed = 1; set_count = 1000; nmax = 10; mode = Definition1 }

(* One test set under construction. A chunk of [run] builds all of its
   sets in one [set] (cleared by [reset] before each), and [replay]
   builds one in a fresh [set]. The per-fault arrays after [def1_counts]
   serve Definition 2 only and are [||] in a Definition 1 run, which
   never reads them. *)
type set = {
  mode : mode;
  members : Bitvec.t;  (* membership over the universe *)
  mutable vectors : int array;  (* tests in insertion order; [len] valid *)
  mutable len : int;
  ends : int array;  (* ends.(n-1) = len at the end of iteration n *)
  def1_counts : int array;  (* per target fault: |T(f) ∩ Tk| *)
  chains : int list array;  (* Definition 2 counted detections, reversed *)
  chain_lens : int array;  (* |chains.(fi)|, maintained incrementally so
                              the inner loop never pays List.length *)
  (* Once no unused test can extend a fault's chain, none ever will
     (chains and sets only grow), so the exhausted verdict is permanent. *)
  strict_exhausted : bool array;
  samples : int array;  (* Definition 2: [pick_candidate]'s scratch *)
}

(* The K test sets are mutually independent: set [k] is constructed from
   its own RNG stream ({!Rng.stream} [~seed k]) against shared read-only
   tables. [run] fans the sets out over domains in contiguous chunks and
   keeps only integer tallies of them, so the outcome is bit-identical
   for every domain count (including the sequential domains = 1 path),
   and [replay] rebuilds any one set from its stream. *)

(* Everything a set-construction worker reads, all of it immutable or
   domain-safe: the detection table memos are published atomically (see
   Detection_table). *)
type shared = {
  table : Detection_table.t;
  cfg : config;
  universe : int;
  f_count : int;
  target_n : int array;  (* N(f) = |T(f)| *)
  report_len : int;
  report_detectors : int array array;  (* vector -> report positions *)
  target_detectors : int array array;  (* vector -> target fault indices *)
}

type outcome = {
  shared : shared;  (* what [replay] runs against *)
  report : int array;
  report_pos : (int, int) Hashtbl.t;  (* gj -> position in report *)
  detected : int array array;  (* detected.(n-1).(pos) = d(n, g) *)
}

let debug_stale_count = ref false
let debug_skip_open = ref false

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

let sample_count = 8

(* Uniform draw from the unused tests of T(fi) - Tk that extend the
   fault's Definition 2 chain: [first cands] is the first element of
   [cands], in array order, that [def2] accepts. Up to [sample_count]
   rejection samples first, then a scan of the unused tests in a
   uniformly random order, returning the first acceptable one. Both
   phases draw uniformly over the candidate set (the first acceptable
   element of a uniform permutation is uniform over acceptables, by
   symmetry), and the permutation scan only pays for the full set when
   no candidate exists at all.

   The samples are drawn on a copy of the stream and judged in one
   [first] call; the stream then advances by the draws one-at-a-time
   sampling makes, j + 1 if sample j is the first accepted and all of
   them if none is. Acceptance depends only on the sample, so the
   verdicts, the pick and the stream are those of judging each sample
   before drawing the next.

   The scan lists every unused test, N(f) - count of them, whatever
   range the samples took ([debug_stale_count] shrinks only that), so
   an exhausted verdict is exact. *)
let pick_candidate sh rng def2 s fi =
  let first = Definition2.first_extending def2 ~fi ~chain:s.chains.(fi) in
  let tf = Detection_table.target_set sh.table fi in
  let available = unused_count sh s fi in
  let sampled =
    if available = 0 then None
    else begin
      let probe = Rng.copy rng in
      for j = 0 to sample_count - 1 do
        s.samples.(j) <-
          Bitvec.nth_diff tf s.members (Rng.int probe ~bound:available)
      done;
      let picked = first s.samples in
      let draws =
        match picked with
        | None -> sample_count
        | Some v ->
          let j = ref 0 in
          while s.samples.(!j) <> v do
            incr j
          done;
          !j + 1
      in
      for _ = 1 to draws do
        ignore (Rng.int rng ~bound:available)
      done;
      picked
    end
  in
  match sampled with
  | Some v -> Some v
  | None ->
    (* Descending: the order the shuffle permutes, which fixes the pick. *)
    let cands = Array.make (sh.target_n.(fi) - s.def1_counts.(fi)) 0 in
    Bitvec.diff_desc_into tf s.members cands;
    Rng.shuffle_in_place rng cands;
    first cands

let make_set sh =
  let strict x =
    if sh.cfg.mode = Definition1 then [||] else Array.make sh.f_count x
  in
  {
    mode = sh.cfg.mode;
    members = Bitvec.create sh.universe;
    vectors = Array.make 16 0;
    len = 0;
    ends = Array.make sh.cfg.nmax 0;
    def1_counts = Array.make sh.f_count 0;
    chains = strict [];
    chain_lens = strict 0;
    strict_exhausted = strict false;
    samples =
      (if sh.cfg.mode = Definition1 then [||] else Array.make sample_count 0);
  }

(* Back to the empty set: a set's members are exactly its vectors. *)
let reset s =
  for i = 0 to s.len - 1 do
    Bitvec.clear s.members s.vectors.(i)
  done;
  s.len <- 0;
  Array.fill s.def1_counts 0 (Array.length s.def1_counts) 0;
  Array.fill s.chains 0 (Array.length s.chains) [];
  Array.fill s.chain_lens 0 (Array.length s.chain_lens) 0;
  Array.fill s.strict_exhausted 0 (Array.length s.strict_exhausted) false

(* Construct one complete n-detection test set in [s] from its own RNG
   stream. [def2] is the Definition-2 oracle (one per chunk, or one per
   replay). *)
let run_one cancel sh def2 rng s =
  reset s;
  (* Whether the Definition 2 batch asks fault [fi] about a new test. *)
  let is_open fi =
    s.chain_lens.(fi) < sh.cfg.nmax && not s.strict_exhausted.(fi)
  in
  let add_test v =
    Bitvec.set s.members v;
    if s.len = Array.length s.vectors then begin
      let grown = Array.make (2 * s.len) 0 in
      Array.blit s.vectors 0 grown 0 s.len;
      s.vectors <- grown
    end;
    s.vectors.(s.len) <- v;
    s.len <- s.len + 1;
    let detected = sh.target_detectors.(v) in
    (match def2 with
    | Some def2 ->
      (* Chains are per fault, so every open chain's verdict on [v] can
         be taken in one batch before any of them grows. An exhausted
         fault's verdict is already known: its scan rejected every unused
         test of T(f) against its chain, [v] was unused then, and the
         chain has only grown since. *)
      let count = ref 0 in
      Array.iter (fun fi -> if is_open fi then incr count) detected;
      let open_ = Array.make !count 0 and next = ref 0 in
      Array.iter
        (fun fi ->
          if is_open fi then begin
            open_.(!next) <- fi;
            incr next
          end)
        detected;
      let open_ =
        if !debug_skip_open && !count > 0 then Array.sub open_ 1 (!count - 1)
        else open_
      in
      let extends = Definition2.extend_many def2 ~chains:s.chains open_ v in
      for k = 0 to Array.length open_ - 1 do
        if extends.(k) then begin
          let fi = open_.(k) in
          s.chains.(fi) <- v :: s.chains.(fi);
          s.chain_lens.(fi) <- s.chain_lens.(fi) + 1
        end
      done
    | None -> ());
    (* Each vector is added once and raises exactly the counts of the
       faults it detects, so def1_counts.(fi) = |T(f) ∩ Tk| holds in
       every mode: the draws take their range from it. *)
    let counts = s.def1_counts in
    for i = 0 to Array.length detected - 1 do
      let fi = detected.(i) in
      counts.(fi) <- counts.(fi) + 1
    done
  in
  (* Also Definition 2's fallback when the stricter count cannot
     reach n, so the fault is not left far below n. *)
  let def1_step ~n fi =
    if s.def1_counts.(fi) < n then (
      let tf = Detection_table.target_set sh.table fi in
      match
        pick_uniform_diff rng tf s.members ~available:(unused_count sh s fi)
      with
      | Some v -> add_test v
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
            match pick_candidate sh rng (Option.get def2) s fi with
            | Some v -> add_test v
            | None ->
              s.strict_exhausted.(fi) <- true;
              def1_step ~n fi
          end
    done;
    s.ends.(n - 1) <- s.len
  done

(* Fold a finished set into a chunk's tallies: [hist.((n-1) * report_len
   + pos)] counts the sets whose first detection of the report fault at
   [pos] came at iteration [n]. [seen.(pos) = stamp] marks the faults
   this set has already detected; [stamp] is distinct per set of the
   chunk, so [seen] is never cleared. *)
let tally sh s ~stamp seen hist =
  let start = ref 0 in
  for n = 1 to sh.cfg.nmax do
    let row = (n - 1) * sh.report_len in
    for i = !start to s.ends.(n - 1) - 1 do
      Array.iter
        (fun pos ->
          if seen.(pos) <> stamp then begin
            seen.(pos) <- stamp;
            hist.(row + pos) <- hist.(row + pos) + 1
          end)
        sh.report_detectors.(s.vectors.(i))
    done;
    start := s.ends.(n - 1)
  done

(* Shared setup of the read-only tables behind a run: everything
   [run_one] consults, fully determined by the table, the config and the
   report choice. *)
let make_shared ?report_faults table (config : config) =
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
    | Some _ ->
      Detection_table.invert_sets ~universe
        (Array.map (Detection_table.untargeted_set table) report)
  in
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
    }
  in
  (sh, report, report_pos)

(* A Definition-2 oracle's scratch rails are mutable, so each chunk (and
   each replay) makes its own; verdicts are pure, so per-chunk instances
   do not affect the outcome. *)
let oracle sh =
  match sh.cfg.mode with
  | Definition2 -> Some (Definition2.create sh.table)
  | Definition1 -> None

(* d(n, g) = #sets whose first detection of g happened at iteration
   <= n: sum the chunks' first-detection histograms, then prefix-sum. *)
let aggregate_detected ~nmax ~report_len hists =
  let detected =
    Array.init nmax (fun n0 ->
        Array.init report_len (fun pos ->
            Array.fold_left
              (fun acc hist -> acc + hist.((n0 * report_len) + pos))
              0 hists))
  in
  for n = 1 to nmax - 1 do
    let prev = detected.(n - 1) and cur = detected.(n) in
    for pos = 0 to report_len - 1 do
      cur.(pos) <- cur.(pos) + prev.(pos)
    done
  done;
  detected

let run ?(cancel = Ndetect_util.Cancel.none) ?domains ?report_faults table
    (config : config) =
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
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Parallel.default_domains ()
  in
  let set_count = config.set_count in
  let chunk_count = if domains <= 1 then 1 else min set_count (2 * domains) in
  (* Chunk c holds sets [c K / C, (c + 1) K / C): none is empty. *)
  let bounds =
    Array.init chunk_count (fun c ->
        (c * set_count / chunk_count, ((c + 1) * set_count / chunk_count) - 1))
  in
  let hists =
    Parallel.map_array ~domains
      (fun (lo, hi) ->
        Telemetry.with_span "procedure1.chunk"
          ~args:[ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
        @@ fun () ->
        let def2 = oracle sh and s = make_set sh in
        let seen = Array.make sh.report_len 0 in
        let hist = Array.make (config.nmax * sh.report_len) 0 in
        for k = lo to hi do
          run_one cancel sh def2 (Rng.stream ~seed:config.seed k) s;
          tally sh s ~stamp:(k + 1) seen hist
        done;
        hist)
      bounds
  in
  let detected =
    aggregate_detected ~nmax:config.nmax ~report_len:sh.report_len hists
  in
  { shared = sh; report; report_pos; detected }

let config o = o.shared.cfg
let report_faults o = Array.copy o.report

let pos_of o gj =
  match Hashtbl.find_opt o.report_pos gj with
  | Some pos -> pos
  | None -> invalid_arg "Procedure1: fault not tracked in report_faults"

let detected_count o ~n ~gj =
  if n < 1 || n > o.shared.cfg.nmax then
    invalid_arg "Procedure1: n out of range";
  o.detected.(n - 1).(pos_of o gj)

let probability o ~n ~gj =
  float_of_int (detected_count o ~n ~gj)
  /. float_of_int o.shared.cfg.set_count

let replay o ~k =
  let sh = o.shared in
  if k < 0 || k >= sh.cfg.set_count then
    invalid_arg "Procedure1.replay: k out of range";
  let s = make_set sh in
  run_one Ndetect_util.Cancel.none sh (oracle sh)
    (Rng.stream ~seed:sh.cfg.seed k) s;
  s

let test_set s = List.init s.len (fun i -> s.vectors.(i))

let test_set_at s ~n =
  if n < 1 || n > Array.length s.ends then
    invalid_arg "Procedure1: n out of range";
  List.init s.ends.(n - 1) (fun i -> s.vectors.(i))

let detection_count_def1 s ~fi = s.def1_counts.(fi)

let chain_def2 s ~fi =
  match s.mode with
  | Definition1 -> []
  | Definition2 -> List.rev s.chains.(fi)
