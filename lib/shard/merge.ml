module Analysis = Ndetect_core.Analysis
module Average_case = Ndetect_core.Average_case
module Paper_tables = Ndetect_report.Paper_tables
module Estimate = Ndetect_estimate.Estimate

type outcome = {
  report : string;
  failed_circuits : int;
  poisoned_units : (string * string) list;
}

type unit_state =
  | Computed of Spec.result
  | Poisoned of string  (** First recorded reason. *)

let state_of ledger u =
  match Ledger.read_result ledger u with
  | Some (_worker, result) -> Some (Computed result)
  | None -> (
    match Ledger.poisoned ledger u with
    | Some reasons ->
      Some (Poisoned (match reasons with r :: _ -> r | [] -> "poisoned"))
    | None -> None)

let of_circuit circuit (u : Spec.t) = Spec.circuit_of u = circuit

(* Sampled campaigns: reassemble each circuit's detection-set slices in
   stratum order and run the scan [Estimate.analyze] runs
   ({!Estimate.scan}, the worst-case scanner over set arrays), so the
   merged summary is bit-identical to a single-process
   [ndetect analyze --samples] of the same seed and spec. *)
let merge_sampled c spec states poisoned_units =
  let entries = ref [] in
  List.iter
    (fun circuit ->
      let mine =
        List.filter (fun ((u : Spec.t), _) -> of_circuit circuit u) states
      in
      let plan =
        List.find_map
          (function
            | ({ Spec.kind = Plan _; _ } : Spec.t), s -> Some s | _ -> None)
          mine
      in
      let sample =
        List.filter
          (function
            | ({ Spec.kind = Sample _; _ } : Spec.t), _ -> true | _ -> false)
          mine
      in
      let failed reason =
        entries := Paper_tables.Est_failed_row { circuit; reason } :: !entries
      in
      match plan with
      | None | Some (Poisoned _) ->
        failed
          (match plan with
          | Some (Poisoned r) -> "poisoned: " ^ r
          | _ -> "no plan unit")
      | Some (Computed (Spec.Plan_result info)) -> (
        match
          List.find_map (function _, Poisoned r -> Some r | _ -> None) sample
        with
        | Some r -> failed ("poisoned: " ^ r)
        | None -> (
          let slices =
            List.sort
              (fun a b -> compare a.Estimate.slice_lo b.Estimate.slice_lo)
              (List.filter_map
                 (function
                   | _, Computed (Spec.Sample_result s) -> Some s | _ -> None)
                 sample)
          in
          match Estimate.concat_slices ~spec slices with
          | exception Invalid_argument msg -> failed msg
          | target_sets, untargeted_sets ->
            if
              Array.length target_sets <> info.target_faults
              || Array.length untargeted_sets <> info.untargeted
            then
              failed
                (Printf.sprintf
                   "merge mismatch: %d/%d fault sets for %d/%d faults"
                   (Array.length target_sets)
                   (Array.length untargeted_sets)
                   info.target_faults info.untargeted)
            else
              let dmin = Estimate.scan ~target_sets ~untargeted_sets () in
              entries :=
                Paper_tables.Est_row
                  (Estimate.summary_of_scan ~name:circuit ~spec
                     ~universe_bits:info.pi ~target_faults:info.target_faults
                     ~dmin)
                :: !entries))
      | Some (Computed _) -> failed "plan unit carries a non-plan result")
    c.Spec.circuits;
  let entries = List.rev !entries in
  let count pred =
    List.length (List.filter (fun ((u : Spec.t), _) -> pred u.kind) states)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "ndetect campaign report (ndetect-campaign/1)\n";
  Buffer.add_string buf
    (Printf.sprintf "tier=%s seed=%d samples=%d strata=%d confidence=%g nmax=%d\n"
       c.Spec.tier c.Spec.seed spec.Estimate.Spec.samples
       spec.Estimate.Spec.strata spec.Estimate.Spec.confidence c.Spec.nmax);
  Buffer.add_string buf
    (Printf.sprintf "circuits=%d units: plan=%d sample=%d poisoned=%d\n\n"
       (List.length c.Spec.circuits)
       (count (function Spec.Plan _ -> true | _ -> false))
       (count (function Spec.Sample _ -> true | _ -> false))
       (List.length poisoned_units));
  Buffer.add_string buf
    (Paper_tables.est_entries ~confidence:spec.Estimate.Spec.confidence entries);
  Buffer.add_char buf '\n';
  (match poisoned_units with
  | [] -> Buffer.add_string buf "poisoned units: (none)\n"
  | ps ->
    Buffer.add_string buf "poisoned units:\n";
    List.iter
      (fun (id, reason) ->
        Buffer.add_string buf (Printf.sprintf "  %s: %s\n" id reason))
      ps);
  let failed_circuits =
    List.length
      (List.filter
         (function Paper_tables.Est_failed_row _ -> true | _ -> false)
         entries)
  in
  Ok { report = Buffer.contents buf; failed_circuits; poisoned_units }

(* Concatenate a circuit's worst-case slices (already in ascending [lo]
   order from the deterministic unit enumeration). *)
let merged_nmin states =
  Array.concat
    (List.map
       (function
         | _, Computed (Spec.Worst_result slice) -> slice
         | _ -> [||])
       states)

let merge ledger =
  let c = Ledger.campaign ledger in
  let units = Ledger.units ledger in
  let sealed =
    match Ledger.sealed_gens ledger with
    | Some gens -> Ledger.generations ledger >= gens
    | None -> false
  in
  let states = List.map (fun u -> (u, state_of ledger u)) units in
  let unresolved =
    List.filter_map (function (u : Spec.t), None -> Some u.id | _ -> None) states
  in
  if not sealed then Error "campaign ledger is not sealed"
  else if unresolved <> [] then
    Error
      (Printf.sprintf "campaign incomplete: %d unresolved unit(s), first %s"
         (List.length unresolved) (List.hd unresolved))
  else
    let states = List.map (fun (u, s) -> (u, Option.get s)) states in
    let poisoned_units =
      List.filter_map
        (function (u : Spec.t), Poisoned r -> Some (u.id, r) | _ -> None)
        states
    in
    match Spec.estimate_spec c with
    | Some spec -> merge_sampled c spec states poisoned_units
    | None ->
    (* Per circuit, in campaign order: a worst-case table entry, and —
       when it has hard faults and a complete avg generation — a
       Table 5 row. *)
    let entries = ref [] in
    let avg_rows = ref [] in
    let avg_failures = ref [] in
    List.iter
      (fun circuit ->
        let mine =
          List.filter (fun ((u : Spec.t), _) -> of_circuit circuit u) states
        in
        let plan =
          List.find_map
            (function
              | ({ Spec.kind = Plan _; _ } : Spec.t), s -> Some s | _ -> None)
            mine
        in
        let worst =
          List.filter
            (function ({ Spec.kind = Worst _; _ } : Spec.t), _ -> true | _ -> false)
            mine
        in
        let avg =
          List.filter
            (function ({ Spec.kind = Avg _; _ } : Spec.t), _ -> true | _ -> false)
            mine
        in
        let failed reason =
          entries :=
            Paper_tables.Failed_row { circuit; reason } :: !entries
        in
        match plan with
        | None | Some (Poisoned _) ->
          failed
            (match plan with
            | Some (Poisoned r) -> "poisoned: " ^ r
            | _ -> "no plan unit")
        | Some (Computed (Spec.Plan_result info)) -> (
          match
            List.find_map
              (function u, Poisoned r -> Some ((u : Spec.t).id, r) | _ -> None)
              worst
          with
          | Some (_, r) -> failed ("poisoned: " ^ r)
          | None ->
            let nmin = merged_nmin worst in
            if Array.length nmin <> info.untargeted then
              failed
                (Printf.sprintf "merge mismatch: %d of %d nmin entries"
                   (Array.length nmin) info.untargeted)
            else
              let summary =
                Analysis.summary_of_nmin ~name:circuit
                  ~target_faults:info.target_faults nmin
              in
              entries := Paper_tables.Row summary :: !entries;
              let hard = ref [] in
              for gj = Array.length nmin - 1 downto 0 do
                if nmin.(gj) > c.nmax then hard := gj :: !hard
              done;
              let hard_count = List.length !hard in
              if hard_count > 0 then (
                match
                  List.find_map
                    (function _, Poisoned r -> Some r | _ -> None)
                    avg
                with
                | Some r ->
                  avg_failures := (circuit, "poisoned: " ^ r) :: !avg_failures
                | None ->
                  let totals = Array.make hard_count 0 in
                  List.iter
                    (function
                      | _, Computed (Spec.Avg_result d) ->
                        let last = d.(Array.length d - 1) in
                        Array.iteri
                          (fun pos v -> totals.(pos) <- totals.(pos) + v)
                          last
                      | _ -> ())
                    avg;
                  let probs =
                    Array.map
                      (fun d -> float_of_int d /. float_of_int c.set_count)
                      totals
                  in
                  avg_rows :=
                    {
                      Paper_tables.circuit;
                      hard_faults = hard_count;
                      row = Average_case.summarize_probabilities probs;
                    }
                    :: !avg_rows))
        | Some (Computed _) -> failed "plan unit carries a non-plan result")
      c.circuits;
    let entries = List.rev !entries in
    let avg_rows = List.rev !avg_rows in
    let avg_failures = List.rev !avg_failures in
    let count_units kind =
      List.length
        (List.filter
           (fun ((u : Spec.t), _) ->
             match (u.kind, kind) with
             | Spec.Plan _, `Plan | Spec.Worst _, `Worst | Spec.Avg _, `Avg ->
               true
             | _ -> false)
           states)
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "ndetect campaign report (ndetect-campaign/1)\n";
    Buffer.add_string buf
      (Printf.sprintf
         "tier=%s seed=%d K=%d nmax=%d fault-block=%d set-chunk=%d\n" c.tier
         c.seed c.set_count c.nmax c.fault_block c.set_chunk);
    Buffer.add_string buf
      (Printf.sprintf "circuits=%d units: plan=%d worst=%d avg=%d poisoned=%d\n\n"
         (List.length c.circuits) (count_units `Plan) (count_units `Worst)
         (count_units `Avg)
         (List.length poisoned_units));
    Buffer.add_string buf (Paper_tables.table2_entries entries);
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Paper_tables.table3_entries entries);
    Buffer.add_char buf '\n';
    if avg_rows <> [] then (
      Buffer.add_string buf (Paper_tables.table5 ~nmax:c.nmax avg_rows);
      Buffer.add_char buf '\n')
    else
      Buffer.add_string buf
        "Table 5: no circuit with hard faults completed the average-case \
         analysis.\n\n";
    List.iter
      (fun (circuit, reason) ->
        Buffer.add_string buf
          (Printf.sprintf "average-case failed for %s: %s\n" circuit reason))
      avg_failures;
    if avg_failures <> [] then Buffer.add_char buf '\n';
    (match poisoned_units with
    | [] -> Buffer.add_string buf "poisoned units: (none)\n"
    | ps ->
      Buffer.add_string buf "poisoned units:\n";
      List.iter
        (fun (id, reason) ->
          Buffer.add_string buf (Printf.sprintf "  %s: %s\n" id reason))
        ps);
    let failed_circuits =
      List.length
        (List.filter
           (function Paper_tables.Failed_row _ -> true | _ -> false)
           entries)
    in
    Ok { report = Buffer.contents buf; failed_circuits; poisoned_units }
