(* Per-layer metrics of two traced benchmark runs, side by side:

     layers.exe [--bench BENCHMARK.json] BASE.json... -- CHANGE.json...

   Each argument is an ndetect-bench/2 record written by
   `e2ebench/run.sh --trace 1 --json FILE`, at most one per workload
   and side. For every workload and every per_layer metric of
   BENCHMARK.json it prints the parent's value, the change's and their
   ratio. One traced run per side has no spread: the table explains a
   difference that tools/ab.sh measured, it does not judge one. *)

module Rpc = Ndetect_harness.Rpc

let fail fmt =
  Printf.ksprintf
    (fun message ->
      prerr_endline ("layers: " ^ message);
      exit 2)
    fmt

let read_json path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error message -> fail "%s" message
  in
  match Rpc.of_string (String.trim text) with
  | Ok j -> j
  | Error message -> fail "%s: %s" path message

let str name j = Option.bind (Rpc.member name j) Rpc.to_str

let number = function
  | Rpc.Float f -> Some f
  | Rpc.Int n -> Some (float_of_int n)
  | _ -> None

(* (name, unit) of each per_layer metric, in BENCHMARK.json order. *)
let per_layer path =
  match Rpc.member "per_layer" (read_json path) with
  | Some (Rpc.List items) ->
    List.map
      (fun m ->
        match (str "name" m, str "unit" m) with
        | Some name, Some unit -> (name, unit)
        | _ -> fail "%s: a per_layer entry lacks name or unit" path)
      items
  | _ -> fail "%s: per_layer is not a list" path

(* (workload, metric values) of one traced record. *)
let load path =
  let j = read_json path in
  if Rpc.member "trace" j <> Some (Rpc.Bool true) then
    fail "%s: not a traced record" path;
  let workload =
    match str "workload" j with
    | Some w -> w
    | None -> fail "%s: missing workload" path
  in
  match Rpc.member "metrics" j with
  | Some (Rpc.Obj members) ->
    ( workload,
      List.filter_map
        (fun (name, m) ->
          Option.map
            (fun v -> (name, v))
            (Option.bind (Rpc.member "value" m) number))
        members )
  | _ -> fail "%s: metrics is not an object" path

let by_workload paths =
  let records = List.map load paths in
  List.iter
    (fun (w, _) ->
      if List.length (List.filter (fun (w', _) -> w' = w) records) > 1 then
        fail "more than one %s record on one side" w)
    records;
  records

let () =
  let rec split bench base = function
    | "--bench" :: path :: rest -> split path base rest
    | "--" :: rest -> (bench, List.rev base, rest)
    | path :: rest -> split bench (path :: base) rest
    | [] ->
      fail "usage: layers.exe [--bench BENCHMARK.json] BASE... -- CHANGE..."
  in
  let bench, base_paths, change_paths =
    split "BENCHMARK.json" [] (List.tl (Array.to_list Sys.argv))
  in
  let metrics = per_layer bench in
  let base = by_workload base_paths and change = by_workload change_paths in
  let workloads = List.sort_uniq compare (List.map fst (base @ change)) in
  let show = function Some v -> Printf.sprintf "%.4g" v | None -> "-" in
  let row = Printf.printf "%-16s %-28s %-6s %12s %12s %8s\n" in
  row "workload" "layer metric" "unit" "parent" "change" "ratio";
  List.iter
    (fun w ->
      match (List.assoc_opt w base, List.assoc_opt w change) with
      | Some b, Some c ->
        List.iter
          (fun (name, unit) ->
            let pv = List.assoc_opt name b and cv = List.assoc_opt name c in
            let ratio =
              match (pv, cv) with
              | Some p, Some c when p <> 0.0 -> Printf.sprintf "%.2f" (c /. p)
              | _ -> "-"
            in
            row w name unit (show pv) (show cv) ratio)
          metrics
      | _ -> Printf.printf "%-16s (a traced record on one side only)\n" w)
    workloads
