(* The request corpora of the four workloads, generated from the bench
   seed. The analysis program only ever sees the generated requests.

   The bench seed draws the order of every corpus and the sampler seeds
   of sampled-wide from a small fixed pool, so every answer a seed can
   ask for has a pinned digest in [Pins]. *)

module Api = Ndetect_harness.Api
module Rng = Ndetect_util.Rng
module Registry = Ndetect_suite.Registry
module Estimate = Ndetect_estimate.Estimate

type workload = Exhaustive_large | Def2_small_k | Sampled_wide | Serve_mixed

let workloads =
  [
    ("exhaustive-large", Exhaustive_large);
    ("def2-small-k", Def2_small_k);
    ("sampled-wide", Sampled_wide);
    ("serve-mixed", Serve_mixed);
  ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)
let workload_of_name name = List.assoc_opt name workloads

(* exhaustive-large: large exhaustive universes. log (14 PI) spends most
   of its time in bridge fault simulation, cse (11 PI, 168k bridging
   faults) in the worst-case kernel scan. Larger circuits (keyb, rie)
   take 4-8 s and 350-740 MB each: too long for a run to repeat the
   corpus, too large for a shared host. *)
let exhaustive_circuits = [ "log"; "cse" ]

(* def2-small-k: Tables 5 and 6 in miniature; Definition 2 dominates
   (about 0.7 s per test set on mark1, 1.1 s on ex4). Four sets is the
   fewest that Procedure 1 splits across two domains when the default
   domain count is 2 or more (it makes 2 x domains chunks, and
   [Parallel.map_array] runs fewer than 4 items sequentially). The
   Procedure-1 seed stays 1: with so few test sets, Definition 2's time
   and memory differ by 10-15% between seeds. *)
let def2_circuits = [ "mark1"; "ex4" ]
let def2_k = 100
let def2_k2 = 4

(* sampled-wide: the 36-PI netlist, where enumeration is infeasible, and
   the largest suite circuit, each under one sampler seed. *)
let iscas_path = "examples/iscas85_scale.bench"
let sampled_circuits = [ ("iscas85_scale", 8000); ("rie", 2000) ]
let sampled_strata = 16

(* serve-mixed: the small tier plus the medium circuits the paper's
   average-case tables use, in registry order. *)
let serve_extra = [ "mark1"; "ex4"; "opus"; "ex6"; "bbara"; "ex2" ]

let serve_circuits =
  List.filter_map
    (fun (e : Registry.entry) ->
      if e.tier = Registry.Small || List.mem e.name serve_extra then
        Some e.name
      else None)
    Registry.all

let serve_requests = 200
let serve_k = 1000

(* Sampler seeds with pinned answers. *)
let seed_pool = [| 1; 2; 3; 4; 5; 6; 7; 8 |]

let source_of label =
  if label = "iscas85_scale" then Api.Request.File iscas_path
  else Api.Request.Suite label

let exhaustive label = Api.Request.make ~label (source_of label)

let def2 label =
  Api.Request.make ~sections:[ Average; Average_def2 ] ~k:def2_k ~k2:def2_k2
    ~label (source_of label)

let spec samples =
  match Estimate.Spec.make ~strata:sampled_strata ~samples () with
  | Ok spec -> spec
  | Error message -> invalid_arg message

let sampled ~samples ~seed label =
  Api.Request.make ~universe:(Sampled (spec samples)) ~seed ~label
    (source_of label)

let serve label =
  Api.Request.make ~sections:[ Worst; Average ] ~k:serve_k ~label
    (source_of label)

(* Zipf(s = 1) proportions over [n] ranks, apportioned to [total] draws
   by largest remainder (ties to the lower rank). Every seed therefore
   sends the same multiset, so run-to-run differences in work come from
   the order alone. *)
let zipf_quotas ~n ~total =
  let weights = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let sum = Array.fold_left ( +. ) 0.0 weights in
  let exact = Array.map (fun w -> float_of_int total *. w /. sum) weights in
  let quotas = Array.map int_of_float exact in
  let left = total - Array.fold_left ( + ) 0 quotas in
  let by_remainder =
    List.init n Fun.id
    |> List.stable_sort (fun a b ->
           Float.compare
             (exact.(b) -. float_of_int quotas.(b))
             (exact.(a) -. float_of_int quotas.(a)))
  in
  List.iteri (fun rank i -> if rank < left then quotas.(i) <- quotas.(i) + 1)
    by_remainder;
  quotas

(* The serve-mixed sequence: indices into [serve_circuits]. *)
let zipf_sequence ~seed ~n ~total =
  let quotas = zipf_quotas ~n ~total in
  let seq =
    Array.concat (Array.to_list (Array.mapi (fun i q -> Array.make q i) quotas))
  in
  Rng.shuffle_in_place (Rng.create ~seed) seq;
  seq

let shuffled ~rng list =
  let a = Array.of_list list in
  Rng.shuffle_in_place rng a;
  Array.to_list a

let pool_seed ~rng = seed_pool.(Rng.int rng ~bound:(Array.length seed_pool))

let requests workload ~seed =
  let rng = Rng.create ~seed in
  match workload with
  | Exhaustive_large -> List.map exhaustive (shuffled ~rng exhaustive_circuits)
  | Def2_small_k ->
    List.map def2 (shuffled ~rng def2_circuits)
  | Sampled_wide ->
    List.map
      (fun (label, samples) -> sampled ~samples ~seed:(pool_seed ~rng) label)
      sampled_circuits
    |> shuffled ~rng
  | Serve_mixed ->
    let names = Array.of_list serve_circuits in
    zipf_sequence ~seed ~n:(Array.length names) ~total:serve_requests
    |> Array.to_list
    |> List.map (fun i -> serve names.(i))

(* One cheap request of each workload's shape, on mc: the smoke test. *)
let smoke_requests = function
  | Exhaustive_large -> [ exhaustive "mc" ]
  | Def2_small_k -> [ def2 "mc" ]
  | Sampled_wide -> [ sampled ~samples:64 ~seed:1 "mc" ]
  | Serve_mixed -> List.init 4 (fun _ -> serve "mc")

(* Every request some seed can produce, plus the smoke requests: the
   set [Pins] covers. *)
let pinnable () =
  let all = ref [] in
  let add r = if not (List.mem r !all) then all := r :: !all in
  List.iter (fun c -> add (exhaustive c)) exhaustive_circuits;
  List.iter (fun c -> add (def2 c)) def2_circuits;
  Array.iter
    (fun seed ->
      List.iter (fun (c, samples) -> add (sampled ~samples ~seed c))
        sampled_circuits)
    seed_pool;
  List.iter (fun c -> add (serve c)) serve_circuits;
  List.iter (fun (_, w) -> List.iter add (smoke_requests w)) workloads;
  List.rev !all

(* The pin key: every field that changes the answer, readably. *)
let key (r : Api.Request.t) =
  let universe =
    match r.universe with
    | Exhaustive -> "exhaustive"
    | Sampled s ->
      Printf.sprintf "sampled:%d/%d" s.Estimate.Spec.samples s.Estimate.Spec.strata
  in
  Printf.sprintf "%s %s %s k=%d k2=%d seed=%d" r.label
    (String.concat "," (List.map Api.Request.section_name r.sections))
    universe r.k r.k2 r.seed

(* The digest of one run of a workload over the per-request render
   digests, slot [i] holding request [i]'s: request-index order, whatever
   order the answers completed in. *)
let workload_digest (digests : string array) =
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list digests)))
