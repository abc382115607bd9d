(* Compare two sets of ndetect-bench/2 records (written by
   `e2e.exe --json`), parent first:

     compare.exe [--bench BENCHMARK.json] BASE.json... -- CHANGE.json...

   For every workload and every end-to-end metric of BENCHMARK.json it
   prints each side's quartiles over the untraced records, the pairs the
   change won, and a verdict:

     better      the change wins at least 9/10 of the pairs (runs paired
                 by seed) and the medians differ by more than the
                 parent's interquartile range;
     worse       the change's median is worse than the parent's by more
                 than the metric's bound;
     unresolved  either side's interquartile range, as a share of its
                 median, is wider than the bound;
     unchanged   otherwise.

   It refuses records of another schema, records whose kernel backend,
   simulation strategy or domain count differ, and records of one
   workload and seed whose answer digests differ. Exit status: 0, 1 if
   any verdict is "worse", 2 on a refusal. *)

module Rpc = Ndetect_harness.Rpc

let refuse fmt =
  Printf.ksprintf
    (fun message ->
      prerr_endline ("compare: " ^ message);
      exit 2)
    fmt

let read_json path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error message -> refuse "%s" message
  in
  match Rpc.of_string (String.trim text) with
  | Ok j -> j
  | Error message -> refuse "%s: %s" path message

let field path name j =
  match Rpc.member name j with
  | Some v -> v
  | None -> refuse "%s: missing field %S" path name

let str path name j =
  match Rpc.to_str (field path name j) with
  | Some s -> s
  | None -> refuse "%s: field %S is not a string" path name

let number = function
  | Rpc.Float f -> Some f
  | Rpc.Int n -> Some (float_of_int n)
  | _ -> None

type metric = { name : string; unit : string; lower_better : bool; bound : float }

let bench_metrics path =
  let j = read_json path in
  match field path "end_to_end" j with
  | Rpc.List items ->
    List.map
      (fun m ->
        {
          name = str path "name" m;
          unit = str path "unit" m;
          lower_better = str path "better" m = "lower";
          bound =
            (match number (field path "bound" m) with
            | Some b -> b
            | None -> refuse "%s: a bound is not a number" path);
        })
      items
  | _ -> refuse "%s: end_to_end is not a list" path

type record = {
  path : string;
  workload : string;
  seed : int;
  traced : bool;
  settings : string;
  digest : string;
  values : (string * float) list;
}

let load_record path =
  let j = read_json path in
  let schema = str path "schema" j in
  if schema <> "ndetect-bench/2" then refuse "%s: unknown schema %S" path schema;
  let values =
    match field path "metrics" j with
    | Rpc.Obj members ->
      List.filter_map
        (fun (name, m) ->
          Option.map (fun v -> (name, v)) (Option.bind (Rpc.member "value" m) number))
        members
    | _ -> refuse "%s: metrics is not an object" path
  in
  {
    path;
    workload = str path "workload" j;
    seed =
      (match Rpc.to_int (field path "seed" j) with
      | Some s -> s
      | None -> refuse "%s: seed is not an integer" path);
    traced = field path "trace" j = Rpc.Bool true;
    settings = Rpc.to_string (field path "settings" j);
    digest = str path "digest" j;
    values;
  }

let check_consistent records =
  match records with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun r ->
        if r.settings <> first.settings then
          refuse "%s runs with settings %s but %s with %s" r.path r.settings
            first.path first.settings)
      records;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a.workload = b.workload && a.seed = b.seed && a.digest <> b.digest
            then
              refuse "%s and %s: %s seed %d answered differently" a.path b.path
                a.workload a.seed)
          records)
      records

type verdict = Better | Worse | Unresolved | Unchanged

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

(* [base] and [change] are (seed, value) lists. *)
let judge m ~base ~change =
  let values l = List.map snd l in
  let b1, bm, b3 = Stats.quartiles (values base) in
  let c1, cm, c3 = Stats.quartiles (values change) in
  let improves ~from ~to_ = if m.lower_better then to_ < from else to_ > from in
  let by_seed l = List.stable_sort (fun (a, _) (b, _) -> compare a b) l in
  let rec zip a b =
    match (a, b) with
    | (_, x) :: a, (_, y) :: b -> (x, y) :: zip a b
    | _ -> []
  in
  let pairs = zip (by_seed base) (by_seed change) in
  let wins = List.length (List.filter (fun (x, y) -> improves ~from:x ~to_:y) pairs) in
  let spread q1 med q3 = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
  let worsening = if m.lower_better then cm -. bm else bm -. cm in
  let verdict =
    if
      pairs <> []
      && 10 * wins >= 9 * List.length pairs
      && improves ~from:bm ~to_:cm
      && Float.abs (cm -. bm) > b3 -. b1
    then Better
    else if worsening > m.bound *. Float.abs bm then Worse
    else if spread b1 bm b3 > m.bound || spread c1 cm c3 > m.bound then Unresolved
    else Unchanged
  in
  ((b1, bm, b3), (c1, cm, c3), wins, List.length pairs, verdict)

let () =
  let rec split bench base = function
    | "--bench" :: path :: rest -> split path base rest
    | "--" :: rest -> (bench, List.rev base, rest)
    | path :: rest -> split bench (path :: base) rest
    | [] -> refuse "usage: compare.exe [--bench BENCHMARK.json] BASE... -- CHANGE..."
  in
  let bench, base_paths, change_paths =
    split "BENCHMARK.json" [] (List.tl (Array.to_list Sys.argv))
  in
  if base_paths = [] || change_paths = [] then refuse "both sides need records";
  let metrics = bench_metrics bench in
  let base = List.map load_record base_paths in
  let change = List.map load_record change_paths in
  check_consistent (base @ change);
  let untraced rs w = List.filter (fun r -> (not r.traced) && r.workload = w) rs in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (base @ change))
  in
  let worse = ref false in
  Printf.printf "%-16s %-12s %-6s %-32s %-32s %-6s %s\n" "workload" "metric" "unit"
    "parent q1/median/q3" "change q1/median/q3" "wins" "verdict";
  List.iter
    (fun w ->
      match (untraced base w, untraced change w) with
      | [], _ | _, [] -> Printf.printf "%-16s (untraced records on one side only)\n" w
      | b, c ->
        List.iter
          (fun m ->
            let side rs =
              List.map
                (fun r ->
                  match List.assoc_opt m.name r.values with
                  | Some v -> (r.seed, v)
                  | None -> refuse "%s: no metric %S" r.path m.name)
                rs
            in
            let (b1, bm, b3), (c1, cm, c3), wins, pairs, v =
              judge m ~base:(side b) ~change:(side c)
            in
            if v = Worse then worse := true;
            let q (a, b, c) = Printf.sprintf "%.4g / %.4g / %.4g" a b c in
            Printf.printf "%-16s %-12s %-6s %-32s %-32s %-6s %s\n" w m.name m.unit
              (q (b1, bm, b3)) (q (c1, cm, c3))
              (Printf.sprintf "%d/%d" wins pairs)
              (verdict_name v))
          metrics)
    workloads;
  if !worse then exit 1
