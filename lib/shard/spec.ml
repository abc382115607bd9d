module Registry = Ndetect_suite.Registry
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Estimate = Ndetect_estimate.Estimate
module Netlist = Ndetect_circuit.Netlist

type campaign = {
  format_version : int;
  tier : string;
  circuits : string list;
  seed : int;
  set_count : int;
  nmax : int;
  fault_block : int;
  set_chunk : int;
  (* Sampled-universe campaigns: [samples = 0] is the exhaustive
     default (strata/confidence are then 0/0.0 placeholders, never
     read). Non-zero fields always form a validated Estimate.Spec. *)
  samples : int;
  strata : int;
  confidence : float;
}

(* v2: sampled-universe campaigns (samples/strata/confidence in the
   record and stamp, [pi] in plan results, [Sample] units).
   v3: [Sample] results no longer carry per-target counts. *)
let format_version = 3

let estimate_spec c =
  if c.samples = 0 then None
  else
    Some
      { Estimate.Spec.samples = c.samples; strata = c.strata;
        confidence = c.confidence }

let make_campaign ?(fault_block = 256) ?set_chunk ?(nmax = 10) ?circuits
    ?samples ?strata ?confidence ~tier ~seed ~set_count () =
  if fault_block < 1 then invalid_arg "Spec.make_campaign: fault_block < 1";
  if set_count < 1 then invalid_arg "Spec.make_campaign: set_count < 1";
  let set_chunk =
    match set_chunk with Some c -> c | None -> max 1 (set_count / 8)
  in
  if set_chunk < 1 then invalid_arg "Spec.make_campaign: set_chunk < 1";
  let samples, strata, confidence =
    match samples with
    | None ->
      (match (strata, confidence) with
      | None, None -> (0, 0, 0.0)
      | _ ->
        invalid_arg
          "Spec.make_campaign: strata/confidence require samples")
    | Some samples -> (
      match Estimate.Spec.make ?strata ?confidence ~samples () with
      | Ok spec ->
        (spec.Estimate.Spec.samples, spec.Estimate.Spec.strata,
         spec.Estimate.Spec.confidence)
      | Error msg -> invalid_arg ("Spec.make_campaign: " ^ msg))
  in
  let tier_circuits =
    List.map (fun e -> e.Registry.name) (Registry.of_tier tier)
  in
  let circuits =
    match circuits with
    | None -> tier_circuits
    | Some only ->
      List.iter
        (fun name ->
          if not (List.mem name tier_circuits) then
            invalid_arg
              (Printf.sprintf
                 "Spec.make_campaign: %S is not a %s-tier suite circuit" name
                 (Registry.tier_name tier)))
        only;
      (* Keep registry order regardless of how the filter was given. *)
      List.filter (fun name -> List.mem name only) tier_circuits
  in
  {
    format_version;
    tier = Registry.tier_name tier;
    circuits;
    seed;
    set_count;
    nmax;
    fault_block;
    set_chunk;
    samples;
    strata;
    confidence;
  }

let stamp c =
  Printf.sprintf
    "v%d tier=%s seed=%d K=%d nmax=%d block=%d chunk=%d samples=%d \
     strata=%d conf=%g [%s]"
    c.format_version c.tier c.seed c.set_count c.nmax c.fault_block
    c.set_chunk c.samples c.strata c.confidence
    (String.concat "," c.circuits)

type kind =
  | Plan of { circuit : string }
  | Worst of { circuit : string; lo : int; hi : int }
  | Avg of { circuit : string; lo : int; hi : int; hard : int array }
  | Sample of { circuit : string; lo : int; hi : int }

type t = { id : string; kind : kind }

let circuit_of t =
  match t.kind with
  | Plan { circuit }
  | Worst { circuit; _ }
  | Avg { circuit; _ }
  | Sample { circuit; _ } -> circuit

(* Registry names are already alphanumeric, but unit ids become ledger
   filenames, so neutralise anything else defensively. *)
let safe name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> ch
      | _ -> '_')
    name

let plan_unit circuit =
  { id = Printf.sprintf "plan-%s" (safe circuit); kind = Plan { circuit } }

let worst_unit circuit ~lo ~hi =
  {
    id = Printf.sprintf "worst-%s-%d-%d" (safe circuit) lo hi;
    kind = Worst { circuit; lo; hi };
  }

let avg_unit circuit ~lo ~hi ~hard =
  {
    id = Printf.sprintf "avg-%s-%d-%d" (safe circuit) lo hi;
    kind = Avg { circuit; lo; hi; hard };
  }

let sample_unit circuit ~lo ~hi =
  {
    id = Printf.sprintf "sample-%s-%d-%d" (safe circuit) lo hi;
    kind = Sample { circuit; lo; hi };
  }

let fingerprint c t =
  let spec =
    match t.kind with
    | Plan { circuit } -> Printf.sprintf "plan %s" circuit
    | Worst { circuit; lo; hi } -> Printf.sprintf "worst %s %d %d" circuit lo hi
    | Avg { circuit; lo; hi; hard } ->
        Printf.sprintf "avg %s %d %d [%s]" circuit lo hi
          (String.concat "," (Array.to_list (Array.map string_of_int hard)))
    | Sample { circuit; lo; hi } ->
        Printf.sprintf "sample %s %d %d" circuit lo hi
  in
  Digest.to_hex (Digest.string (stamp c ^ "|" ^ t.id ^ "|" ^ spec))

let ranges ~total ~step =
  let rec go lo acc =
    if lo >= total then List.rev acc
    else
      let hi = min total (lo + step) in
      go hi ((lo, hi) :: acc)
  in
  go 0 []

let plan_units c = List.map plan_unit c.circuits

let worst_units c ~circuit ~untargeted =
  List.map
    (fun (lo, hi) -> worst_unit circuit ~lo ~hi)
    (ranges ~total:untargeted ~step:c.fault_block)

let avg_units c ~circuit ~hard =
  if Array.length hard = 0 then []
  else
    List.map
      (fun (lo, hi) -> avg_unit circuit ~lo ~hi ~hard)
      (ranges ~total:c.set_count ~step:c.set_chunk)

let sample_units c ~circuit ~pi =
  match estimate_spec c with
  | None -> []
  | Some spec ->
    let strata = Estimate.effective_strata ~spec ~universe_bits:pi in
    (* Same granularity heuristic as K-chunks: about eight units per
       circuit, at least one stratum each. *)
    let step = max 1 (strata / 8) in
    List.map
      (fun (lo, hi) -> sample_unit circuit ~lo ~hi)
      (ranges ~total:strata ~step)

type plan_info = { untargeted : int; target_faults : int; pi : int }

type result =
  | Plan_result of plan_info
  | Worst_result of int array
  | Avg_result of int array array
  | Sample_result of Estimate.slice

let net_of circuit =
  match Registry.find circuit with
  | None -> failwith (Printf.sprintf "unknown circuit %S" circuit)
  | Some entry -> Registry.circuit entry

let table_of ~cancel ~tables_dir circuit =
  Ndetect_harness.Api.detection_table ~cache_dir:tables_dir ~cancel
    (net_of circuit)

let compute ?(cancel = Ndetect_util.Cancel.none) ~tables_dir c t =
  Ndetect_util.Supervise.inject ~cancel ("unit:" ^ t.id);
  match t.kind with
  | Plan { circuit } when estimate_spec c <> None ->
      (* Sampled campaigns never touch the exhaustive table (or its
         cache). Fault counts are vector-independent — sampled tables
         keep every enumerated fault — so a one-vector build yields the
         exact counts and the PI the sample units shard over. *)
      let net = net_of circuit in
      let table =
        Detection_table.build ~cancel ~keep_undetectable_targets:true
          ~keep_undetectable_untargeted:true ~vectors:[| 0 |] net
      in
      Plan_result
        {
          untargeted = Detection_table.untargeted_count table;
          target_faults = Detection_table.target_count table;
          pi = Netlist.input_count net;
        }
  | Plan { circuit } ->
      let table = table_of ~cancel ~tables_dir circuit in
      Plan_result
        {
          untargeted = Detection_table.untargeted_count table;
          target_faults = Detection_table.target_count table;
          pi = Netlist.input_count (Detection_table.net table);
        }
  | Worst { circuit; lo; hi } ->
      let table = table_of ~cancel ~tables_dir circuit in
      Worst_result (Worst_case.compute_slice ~cancel table ~lo ~hi)
  | Avg { circuit; lo; hi; hard } ->
      let table = table_of ~cancel ~tables_dir circuit in
      let config =
        {
          Procedure1.seed = c.seed;
          set_count = c.set_count;
          nmax = c.nmax;
          mode = Procedure1.Definition1;
        }
      in
      Avg_result (Procedure1.run_slice ~cancel ~report_faults:hard table config ~lo ~hi)
  | Sample { circuit; lo; hi } -> (
      match estimate_spec c with
      | None ->
          failwith
            (Printf.sprintf "unit %s in an exhaustive campaign" t.id)
      | Some spec ->
          Sample_result
            (Estimate.stratum_slice ~cancel ~spec ~seed:c.seed ~lo ~hi
               (net_of circuit)))
