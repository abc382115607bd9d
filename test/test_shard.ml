(* Tests for the sharded campaign runner: the unit spec, the crash-safe
   work ledger (claims, results, failures, poison, and an exhaustive
   damage sweep mirroring the Table_cache one), the slice-merge
   identities the multi-process merge relies on, and the coordinator's
   in-process degradation path. The multi-process paths (worker
   subprocesses, chaos, SIGTERM) are exercised end to end by
   bin/campaign_smoke.ml. *)

module Spec = Ndetect_shard.Spec
module Ledger = Ndetect_shard.Ledger
module Worker = Ndetect_shard.Worker
module Coordinator = Ndetect_shard.Coordinator
module Registry = Ndetect_suite.Registry
module Detection_table = Ndetect_core.Detection_table
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Telemetry = Ndetect_util.Telemetry

let with_temp_dir f =
  let dir = Filename.temp_file "ndetect-shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* A tiny campaign over the smallest suite circuit; every ledger test
   below runs in well under a second. *)
let tiny_campaign ?(seed = 1) () =
  Spec.make_campaign ~tier:Registry.Small ~circuits:[ "mc" ] ~seed
    ~set_count:4 ~nmax:2 ~fault_block:64 ~set_chunk:2 ()

let unit_of_id c id =
  match List.find_opt (fun (u : Spec.t) -> u.id = id) (Spec.plan_units c) with
  | Some u -> u
  | None -> Alcotest.fail ("no unit " ^ id)

let mc_table =
  lazy (Detection_table.build (Registry.circuit (Option.get (Registry.find "mc"))))

(* --- spec --- *)

let test_spec_units_partition () =
  let c = tiny_campaign () in
  (match Spec.plan_units c with
  | [ { Spec.id = "plan-mc"; kind = Spec.Plan { circuit = "mc" } } ] -> ()
  | _ -> Alcotest.fail "plan units");
  let worst = Spec.worst_units c ~circuit:"mc" ~untargeted:150 in
  Alcotest.(check (list string)) "worst ids"
    [ "worst-mc-0-64"; "worst-mc-64-128"; "worst-mc-128-150" ]
    (List.map (fun (u : Spec.t) -> u.id) worst);
  (* The ranges partition [0, untargeted): consecutive and exact. *)
  let bounds =
    List.map
      (fun (u : Spec.t) ->
        match u.kind with
        | Spec.Worst { lo; hi; _ } -> (lo, hi)
        | _ -> Alcotest.fail "kind")
      worst
  in
  ignore
    (List.fold_left
       (fun expect (lo, hi) ->
         Alcotest.(check int) "contiguous" expect lo;
         Alcotest.(check bool) "non-empty" true (hi > lo);
         hi)
       0 bounds);
  Alcotest.(check int) "covers untargeted" 150 (snd (List.nth bounds 2));
  let avg = Spec.avg_units c ~circuit:"mc" ~hard:[| 3; 7 |] in
  Alcotest.(check (list string)) "avg ids" [ "avg-mc-0-2"; "avg-mc-2-4" ]
    (List.map (fun (u : Spec.t) -> u.id) avg);
  Alcotest.(check (list string)) "no hard faults, no avg units" []
    (List.map
       (fun (u : Spec.t) -> u.id)
       (Spec.avg_units c ~circuit:"mc" ~hard:[||]))

let test_spec_fingerprint_binds_parameters () =
  let c = tiny_campaign () in
  let u = unit_of_id c "plan-mc" in
  Alcotest.(check string) "deterministic" (Spec.fingerprint c u)
    (Spec.fingerprint c u);
  (* Any result-affecting parameter change re-fingerprints every unit:
     a record written under other parameters can never be mistaken for
     this campaign's. *)
  let different = tiny_campaign ~seed:2 () in
  Alcotest.(check bool) "seed changes fingerprint" false
    (Spec.fingerprint c u = Spec.fingerprint different u)

let test_spec_validation () =
  let expect_invalid label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "unknown circuit" (fun () ->
      Spec.make_campaign ~tier:Registry.Small ~circuits:[ "nope" ] ~seed:1
        ~set_count:4 ());
  expect_invalid "zero fault_block" (fun () ->
      Spec.make_campaign ~tier:Registry.Small ~fault_block:0 ~seed:1
        ~set_count:4 ());
  expect_invalid "zero set_chunk" (fun () ->
      Spec.make_campaign ~tier:Registry.Small ~set_chunk:0 ~seed:1
        ~set_count:4 ());
  (* Subsets keep registry order however they were spelled. *)
  let c =
    Spec.make_campaign ~tier:Registry.Small ~circuits:[ "s8"; "mc" ] ~seed:1
      ~set_count:4 ()
  in
  let full =
    Spec.make_campaign ~tier:Registry.Small ~seed:1 ~set_count:4 ()
  in
  Alcotest.(check (list string)) "registry order"
    (List.filter (fun n -> n = "mc" || n = "s8") full.Spec.circuits)
    c.Spec.circuits

(* --- ledger --- *)

let test_ledger_create_and_resume () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led =
        match Ledger.create ~dir c with
        | Ok l -> l
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "one generation" 1 (Ledger.generations led);
      Alcotest.(check (list string)) "plan units recorded" [ "plan-mc" ]
        (List.map (fun (u : Spec.t) -> u.id) (Ledger.units led));
      (* Resume = the same call; reopening changes nothing. *)
      (match Ledger.create ~dir c with
      | Ok led' ->
        Alcotest.(check int) "still one generation" 1
          (Ledger.generations led')
      | Error e -> Alcotest.fail e);
      (match Ledger.open_existing ~dir with
      | Ok led' ->
        Alcotest.(check string) "campaign stamp round-trips"
          (Spec.stamp c)
          (Spec.stamp (Ledger.campaign led'))
      | Error e -> Alcotest.fail e);
      (* A different parameter set must not share the directory. *)
      match Ledger.create ~dir (tiny_campaign ~seed:99 ()) with
      | Ok _ -> Alcotest.fail "campaign mismatch accepted"
      | Error m ->
        Alcotest.(check bool) "error names the mismatch" true
          (Helpers.contains_substring m "different campaign"))

(* A directory written under the previous format (whose Sample results
   carry another record shape) is refused, never read. *)
let test_ledger_refuses_old_format () =
  with_temp_dir (fun dir ->
      let c =
        Spec.make_campaign ~tier:Registry.Small ~circuits:[ "mc" ] ~seed:1
          ~set_count:4 ~samples:64 ~strata:4 ()
      in
      let old = { c with Spec.format_version = Spec.format_version - 1 } in
      ignore (Result.get_ok (Ledger.create ~dir old));
      let refused label = function
        | Ok _ -> Alcotest.failf "%s: old-format ledger accepted" label
        | Error m ->
          Alcotest.(check bool) (label ^ " names the mismatch") true
            (Helpers.contains_substring m "different campaign")
      in
      refused "create" (Ledger.create ~dir c);
      refused "open_existing" (Ledger.open_existing ~dir))

let test_ledger_claim_exclusive () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led = Result.get_ok (Ledger.create ~dir c) in
      let u = unit_of_id c "plan-mc" in
      Alcotest.(check bool) "first claim wins" true
        (Ledger.claim led ~worker:"w0" u);
      Alcotest.(check bool) "second claim loses" false
        (Ledger.claim led ~worker:"w1" u);
      (match Ledger.claimant led u with
      | Some ("w0", age) ->
        Alcotest.(check bool) "age sane" true (age >= 0.0 && age < 60.0)
      | _ -> Alcotest.fail "claimant should be w0");
      (match Ledger.claims led with
      | [ ("plan-mc", "w0", _) ] -> ()
      | _ -> Alcotest.fail "claims enumeration");
      Ledger.release led u;
      Ledger.release led u;
      (* idempotent *)
      Alcotest.(check bool) "claimable after release" true
        (Ledger.claim led ~worker:"w1" u))

let test_ledger_result_first_wins () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led = Result.get_ok (Ledger.create ~dir c) in
      let u = unit_of_id c "plan-mc" in
      Alcotest.(check bool) "unresolved at start" false
        (Ledger.resolved led u);
      let r1 = Spec.Plan_result { untargeted = 10; target_faults = 3; pi = 4 } in
      let r2 = Spec.Plan_result { untargeted = 99; target_faults = 9; pi = 4 } in
      Alcotest.(check bool) "first result stored" true
        (Ledger.write_result led ~worker:"w0" u r1 = `Stored);
      Alcotest.(check bool) "speculative loser told so" true
        (Ledger.write_result led ~worker:"w1" u r2 = `Lost_race);
      (match Ledger.read_result led u with
      | Some ("w0", Spec.Plan_result { untargeted = 10; _ }) -> ()
      | _ -> Alcotest.fail "first result must win");
      Alcotest.(check bool) "resolved by result" true (Ledger.resolved led u))

let test_ledger_failures_and_poison () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led = Result.get_ok (Ledger.create ~dir c) in
      let u = unit_of_id c "plan-mc" in
      Alcotest.(check (list string)) "no failures" [] (Ledger.failures led u);
      Ledger.record_failure led ~worker:"w0" u "first crash";
      Ledger.record_failure led ~worker:"w1" u "second crash";
      Alcotest.(check (list string)) "slot order"
        [ "first crash"; "second crash" ]
        (Ledger.failures led u);
      Alcotest.(check bool) "failures alone do not resolve" false
        (Ledger.resolved led u);
      Ledger.poison led u ~reasons:[ "first crash"; "second crash" ];
      (match Ledger.poisoned led u with
      | Some [ "first crash"; "second crash" ] -> ()
      | _ -> Alcotest.fail "poison reasons round-trip");
      Alcotest.(check bool) "poison resolves" true (Ledger.resolved led u))

let test_ledger_heartbeat () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led = Result.get_ok (Ledger.create ~dir c) in
      Alcotest.(check bool) "no heartbeat yet" true
        (Ledger.heartbeat_age led ~worker:"w7" = None);
      Ledger.heartbeat led ~worker:"w7";
      match Ledger.heartbeat_age led ~worker:"w7" with
      | Some age -> Alcotest.(check bool) "fresh" true (age >= 0.0 && age < 60.0)
      | None -> Alcotest.fail "heartbeat should exist")

(* Damage sweep, mirroring the Table_cache one: truncations at
   structural boundaries and single-bit flips anywhere in a ledger
   record must degrade to "record absent" — never raise, never yield a
   wrong payload — bump "shard.ledger_corrupt", and DELETE the damaged
   file so the unit becomes claimable/computable again (self-healing).
   The Marshal payload cannot detect bit damage itself; only the header
   digest makes this safe. *)
let unit_of_id_worst () =
  let c = tiny_campaign () in
  match Spec.worst_units c ~circuit:"mc" ~untargeted:64 with
  | u :: _ -> u
  | [] -> Alcotest.fail "no worst unit"

let test_ledger_damage_sweep () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led = Result.get_ok (Ledger.create ~dir c) in
      let u = unit_of_id c "plan-mc" in
      let result = Spec.Plan_result { untargeted = 10; target_faults = 3; pi = 4 } in
      ignore (Ledger.write_result led ~worker:"w0" u result);
      let file = Filename.concat dir "result-plan-mc.rec" in
      let pristine = In_channel.with_open_bin file In_channel.input_all in
      let len = String.length pristine in
      (* "ndetect-result\n4 <fingerprint> <len> <fnv>\n", zero pad to
         the next 8-byte boundary, payload. *)
      let header_end = String.index_from pristine 15 '\n' in
      let payload_start = (header_end + 8) land lnot 7 in
      let len_field_end = String.rindex_from pristine header_end ' ' - 1 in
      let write raw =
        let oc = open_out_bin file in
        output_string oc raw;
        close_out oc
      in
      let flip raw pos =
        let b = Bytes.of_string raw in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        Bytes.to_string b
      in
      let expect_healed label raw =
        write raw;
        let corrupt_before = Telemetry.counter_value Ledger.corrupt_counter in
        Alcotest.(check bool)
          (label ^ ": reported absent")
          true
          (Ledger.read_result led u = None);
        Alcotest.(check int)
          (label ^ ": counted corrupt")
          (corrupt_before + 1)
          (Telemetry.counter_value Ledger.corrupt_counter);
        Alcotest.(check bool)
          (label ^ ": damaged file deleted")
          false (Sys.file_exists file);
        Alcotest.(check bool)
          (label ^ ": unit reclaimable")
          false (Ledger.resolved led u)
      in
      (* Truncations: empty, torn magic, torn header, header only,
         header and pad only, torn payload. *)
      List.iter
        (fun cut ->
          expect_healed
            (Printf.sprintf "truncated to %d/%d bytes" cut len)
            (String.sub pristine 0 cut))
        [ 0; 7; header_end - 3; header_end + 1; payload_start; len / 2;
          len - 1 ];
      (* Single-bit flips: magic, version, kind, fingerprint, length
         field, digest, pad, payload start / middle / end. *)
      List.iter
        (fun pos ->
          expect_healed
            (Printf.sprintf "bit flip at byte %d/%d" pos len)
            (flip pristine pos))
        ([ 0; 10; 15; 17; 24; len_field_end; header_end - 2; payload_start;
           (payload_start + len) / 2; len - 1 ]
        @ if payload_start > header_end + 1 then [ header_end + 1 ] else []);
      (* The pristine bytes restored still read back. *)
      write pristine;
      (match Ledger.read_result led u with
      | Some ("w0", Spec.Plan_result { untargeted = 10; _ }) -> ()
      | _ -> Alcotest.fail "pristine record reads again");
      (* Cross-unit replay: a valid record copied onto another unit's
         name fails the fingerprint check and heals the same way. *)
      let worst = unit_of_id_worst () in
      let stray = Filename.concat dir ("result-" ^ worst.Spec.id ^ ".rec") in
      write pristine;
      let oc = open_out_bin stray in
      output_string oc pristine;
      close_out oc;
      let corrupt_before = Telemetry.counter_value Ledger.corrupt_counter in
      Alcotest.(check bool) "replayed record rejected" true
        (Ledger.read_result led worst = None);
      Alcotest.(check int) "replay counted corrupt" (corrupt_before + 1)
        (Telemetry.counter_value Ledger.corrupt_counter);
      Alcotest.(check bool) "replayed file deleted" false
        (Sys.file_exists stray))

(* --- slice-merge identities --- *)

(* Concatenating worst slices over any partition of the untargeted
   faults rebuilds the full nmin distribution bit for bit — the
   property that makes the coordinator's merge of fault-block units
   byte-identical to a single-process run. *)
let test_worst_slice_concat () =
  let table = Lazy.force mc_table in
  let total = Detection_table.untargeted_count table in
  let full = Worst_case.compute_slice table ~lo:0 ~hi:total in
  Alcotest.(check (array int)) "slice concat = distribution"
    (Worst_case.distribution (Worst_case.compute table))
    full;
  List.iter
    (fun step ->
      let rec chunks lo acc =
        if lo >= total then List.concat (List.rev acc)
        else
          let hi = min total (lo + step) in
          chunks hi
            (Array.to_list (Worst_case.compute_slice table ~lo ~hi) :: acc)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "block size %d" step)
        full
        (Array.of_list (chunks 0 [])))
    [ 1; 17; 64; total ]

(* Summing avg-slice detection matrices over any partition of [0, K)
   equals the full run's detected-count table. *)
let test_avg_slice_sum () =
  let table = Lazy.force mc_table in
  let config =
    { Procedure1.default_config with seed = 5; set_count = 6; nmax = 2 }
  in
  let hard = [| 0; 3; 9 |] in
  let full =
    Procedure1.run_slice ~report_faults:hard table config ~lo:0 ~hi:6
  in
  List.iter
    (fun step ->
      let sum =
        Array.map (fun row -> Array.map (fun _ -> 0) row) full
      in
      let rec go lo =
        if lo < 6 then begin
          let hi = min 6 (lo + step) in
          let d =
            Procedure1.run_slice ~report_faults:hard table config ~lo ~hi
          in
          Array.iteri
            (fun n row -> Array.iteri (fun p v -> sum.(n).(p) <- sum.(n).(p) + v) row)
            d;
          go hi
        end
      in
      go 0;
      Alcotest.(check bool)
        (Printf.sprintf "chunk size %d sums to full" step)
        true (sum = full))
    [ 1; 2; 4 ]

(* --- worker + coordinator (in-process paths) --- *)

let test_worker_execute () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led = Result.get_ok (Ledger.create ~dir c) in
      let u = unit_of_id c "plan-mc" in
      Alcotest.(check bool) "claimed" true (Ledger.claim led ~worker:"w0" u);
      (match Worker.execute led ~worker:"w0" u with
      | `Completed -> ()
      | `Failed r -> Alcotest.fail ("execute failed: " ^ r)
      | `Terminating -> Alcotest.fail "unexpected termination");
      (match Ledger.read_result led u with
      | Some ("w0", Spec.Plan_result { untargeted; target_faults; pi = _ }) ->
        let table = Lazy.force mc_table in
        Alcotest.(check int) "untargeted"
          (Detection_table.untargeted_count table)
          untargeted;
        Alcotest.(check int) "target faults"
          (Detection_table.target_count table)
          target_faults
      | _ -> Alcotest.fail "plan result recorded");
      Alcotest.(check bool) "claim released" true (Ledger.claimant led u = None))

(* A worker may exit only when every sealed generation is readable and
   resolved: generation 0 resolved with generation 1 open, or with
   generation 1 not yet written, is not drained under a seal at 2. *)
let test_worker_drained () =
  with_temp_dir (fun dir ->
      let c = tiny_campaign () in
      let led = Result.get_ok (Ledger.create ~dir c) in
      let plan = unit_of_id c "plan-mc" in
      ignore (Ledger.claim led ~worker:"w0" plan);
      ignore (Worker.execute led ~worker:"w0" plan);
      Alcotest.(check bool) "unsealed" false (Worker.drained led);
      Ledger.seal led ~total_gens:2;
      Alcotest.(check bool) "generation 1 unwritten" false
        (Worker.drained led);
      let worst = Spec.worst_units c ~circuit:"mc" ~untargeted:100 in
      Ledger.write_units led ~gen:1 worst;
      Alcotest.(check bool) "generation 1 open" false (Worker.drained led);
      List.iter (fun u -> Ledger.poison led u ~reasons:[ "test" ]) worst;
      Alcotest.(check bool) "every generation resolved" true
        (Worker.drained led))

(* Every spawn fails (the worker binary does not exist), so the
   coordinator must degrade to in-process execution and still complete
   the campaign — with the same report a pure in-process run yields. *)
let test_coordinator_degrades_in_process () =
  with_temp_dir (fun root ->
      let c = tiny_campaign () in
      let run ~workers ~worker_cmd sub =
        let cfg =
          {
            (Coordinator.default_config
               ~ledger_dir:(Filename.concat root sub))
            with
            workers;
            worker_cmd;
            lease_secs = 2.0;
            log = ignore;
          }
        in
        match Coordinator.run cfg c with
        | Ok outcome -> outcome
        | Error e -> Alcotest.fail ("campaign failed: " ^ e)
      in
      let inline = run ~workers:0 ~worker_cmd:None "inline" in
      Alcotest.(check bool) "inline report has Table 2" true
        (Helpers.contains_substring inline.Coordinator.report "Table 2:");
      Alcotest.(check (list (pair string string))) "nothing poisoned" []
        inline.Coordinator.poisoned_units;
      let degraded =
        run ~workers:2
          ~worker_cmd:(Some [| "/nonexistent-ndetect-worker" |])
          "degraded"
      in
      Alcotest.(check bool) "spawn failures observed" true
        (degraded.Coordinator.spawn_failures >= 1);
      Alcotest.(check string) "degraded report byte-identical"
        inline.Coordinator.report degraded.Coordinator.report)

let () =
  Alcotest.run "shard"
    [
      ( "spec",
        [
          Alcotest.test_case "units partition" `Quick
            test_spec_units_partition;
          Alcotest.test_case "fingerprint binds parameters" `Quick
            test_spec_fingerprint_binds_parameters;
          Alcotest.test_case "validation" `Quick test_spec_validation;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "create and resume" `Quick
            test_ledger_create_and_resume;
          Alcotest.test_case "old format refused" `Quick
            test_ledger_refuses_old_format;
          Alcotest.test_case "claim exclusivity" `Quick
            test_ledger_claim_exclusive;
          Alcotest.test_case "result first wins" `Quick
            test_ledger_result_first_wins;
          Alcotest.test_case "failures and poison" `Quick
            test_ledger_failures_and_poison;
          Alcotest.test_case "heartbeat" `Quick test_ledger_heartbeat;
          Alcotest.test_case "damage sweep: truncations and bit flips" `Quick
            test_ledger_damage_sweep;
        ] );
      ( "slice merge",
        [
          Alcotest.test_case "worst slices concatenate" `Quick
            test_worst_slice_concat;
          Alcotest.test_case "avg slices sum" `Quick test_avg_slice_sum;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "worker execute" `Quick test_worker_execute;
          Alcotest.test_case "worker drained reads every sealed generation"
            `Quick test_worker_drained;
          Alcotest.test_case "degrades to in-process" `Quick
            test_coordinator_degrades_in_process;
        ] );
    ]
