(* Check ndetect-bench/2 records against BENCHMARK.json:

     validate.exe BENCHMARK.json RECORD.json...

   Every workload of BENCHMARK.json has a record; every record is
   correct, failed nothing, names every end-to-end and per-layer metric
   of BENCHMARK.json with its unit and a numeric value, closed every span
   it opened, and carries the unattributed residual row. Run by
   `dune runtest` on the smoke records (`e2e.exe --smoke`). *)

module Rpc = Ndetect_harness.Rpc

let problems = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

let read_json path =
  match
    Rpc.of_string (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with
  | Ok j -> j
  | Error message -> failwith (path ^ ": " ^ message)

let strs name j =
  match Rpc.member name j with
  | Some (Rpc.List items) -> items
  | _ -> failwith ("BENCHMARK.json: " ^ name ^ " is not a list")

let name_unit m =
  ( Option.value ~default:"" (Option.bind (Rpc.member "name" m) Rpc.to_str),
    Option.value ~default:"" (Option.bind (Rpc.member "unit" m) Rpc.to_str) )

let check_record ~metrics path =
  let j = read_json path in
  let get name = Rpc.member name j in
  if get "schema" <> Some (Rpc.Str "ndetect-bench/2") then
    problem "%s: schema is not ndetect-bench/2" path;
  if get "correct" <> Some (Rpc.Bool true) then problem "%s: not correct" path;
  if get "failed" <> Some (Rpc.Int 0) then problem "%s: failed is not 0" path;
  (match Option.bind (get "attempted") Rpc.to_int with
  | Some n when n >= 1 -> ()
  | _ -> problem "%s: nothing attempted" path);
  (match get "spans" with
  | Some s -> (
    match
      ( Option.bind (Rpc.member "begun" s) Rpc.to_int,
        Option.bind (Rpc.member "ended" s) Rpc.to_int )
    with
    | Some b, Some e when b = e && b > 0 -> ()
    | Some b, Some e -> problem "%s: %d spans begun, %d ended" path b e
    | _ -> problem "%s: span counts missing" path)
  | None -> problem "%s: span counts missing" path);
  (match get "layers" with
  | Some (Rpc.List rows)
    when List.exists
           (fun r -> Rpc.member "layer" r = Some (Rpc.Str "unattributed"))
           rows -> ()
  | _ -> problem "%s: no unattributed layer row" path);
  let values = match get "metrics" with Some (Rpc.Obj m) -> m | _ -> [] in
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | None -> problem "%s: metric %s missing" path name
      | Some v -> (
        if Rpc.member "unit" v <> Some (Rpc.Str unit) then
          problem "%s: metric %s is not in %s" path name unit;
        match Rpc.member "value" v with
        | Some (Rpc.Float _ | Rpc.Int _) -> ()
        | _ -> problem "%s: metric %s has no numeric value" path name))
    metrics;
  Option.bind (get "workload") Rpc.to_str

let () =
  match List.tl (Array.to_list Sys.argv) with
  | bench :: (_ :: _ as records) ->
    let b = read_json bench in
    let metrics =
      List.map name_unit (strs "end_to_end" b @ strs "per_layer" b)
    in
    let seen = List.filter_map (check_record ~metrics) records in
    List.iter
      (fun w ->
        let name = fst (name_unit w) in
        if not (List.mem name seen) then problem "workload %s has no record" name)
      (strs "workloads" b);
    if !problems <> [] then begin
      List.iter (fun m -> prerr_endline ("validate: " ^ m)) (List.rev !problems);
      exit 1
    end
  | _ ->
    prerr_endline "usage: validate.exe BENCHMARK.json RECORD.json...";
    exit 2
