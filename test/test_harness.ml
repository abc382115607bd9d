(* Tests for the reproduction driver behind bin/reproduce and
   `ndetect tables`. *)

module Driver = Ndetect_harness.Driver
module Checkpoint = Ndetect_harness.Checkpoint
module Fs = Ndetect_harness.Fs
module Api = Ndetect_harness.Api
module Registry = Ndetect_suite.Registry

let with_temp_dir f =
  let dir = Filename.temp_file "ndetect-test" "" in
  Sys.remove dir;
  Fs.mkdir_recursive dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun entry -> Sys.remove (Filename.concat dir entry))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let small_options =
  {
    Driver.default_options with
    tier = Registry.Small;
    k = 20;
    k2 = 10;
    seed = 1;
    only = "all";
    quiet = true;
  }

let parse_ok args =
  match Driver.parse_args_result args with
  | Ok opts -> opts
  | Error m -> Alcotest.fail ("unexpected parse error: " ^ m)

let test_parse_args_defaults () =
  let opts = parse_ok [] in
  Alcotest.(check int) "k" 1000 opts.Driver.k;
  Alcotest.(check int) "k2" 200 opts.Driver.k2;
  Alcotest.(check string) "only" "all" opts.Driver.only;
  Alcotest.(check bool) "not quiet" false opts.Driver.quiet

let test_parse_args_full () =
  let opts =
    parse_ok
      [ "--tier"; "large"; "--k"; "42"; "--k2"; "7"; "--seed"; "9";
        "--only"; "Table5"; "--quiet" ]
  in
  Alcotest.(check bool) "tier" true (opts.Driver.tier = Registry.Large);
  Alcotest.(check int) "k" 42 opts.Driver.k;
  Alcotest.(check int) "k2" 7 opts.Driver.k2;
  Alcotest.(check int) "seed" 9 opts.Driver.seed;
  Alcotest.(check string) "only lowercased" "table5" opts.Driver.only;
  Alcotest.(check bool) "quiet" true opts.Driver.quiet

let test_parse_args_csv () =
  let opts = parse_ok [ "--csv"; "out/dir" ] in
  Alcotest.(check (option string)) "csv dir" (Some "out/dir")
    opts.Driver.csv_dir;
  Alcotest.(check (option string)) "default none" None
    (parse_ok []).Driver.csv_dir

let test_parse_args_errors () =
  Alcotest.(check bool) "bad tier" true
    (Result.is_error (Driver.parse_args_result [ "--tier"; "gigantic" ]));
  Alcotest.(check bool) "unknown flag" true
    (Result.is_error (Driver.parse_args_result [ "--frobnicate" ]))

let failure_message args =
  match Driver.parse_args_result args with
  | Ok _ -> Alcotest.fail "expected parse failure"
  | Error m -> m

let test_parse_args_friendly_messages () =
  let m = failure_message [ "--k"; "abc" ] in
  Alcotest.(check bool) "names flag and value" true
    (Helpers.contains_substring m "--k expects an integer, got \"abc\"");
  let m = failure_message [ "--seed" ] in
  Alcotest.(check bool) "missing value" true
    (Helpers.contains_substring m "--seed requires a value");
  let m = failure_message [ "--wat" ] in
  Alcotest.(check bool) "unknown arg quoted" true
    (Helpers.contains_substring m "unknown argument \"--wat\"");
  Alcotest.(check bool) "usage appended" true
    (Helpers.contains_substring m "usage: reproduce");
  let m = failure_message [ "--timeout-per-circuit"; "-3" ] in
  Alcotest.(check bool) "non-positive timeout names the flag" true
    (Helpers.contains_substring m "--timeout-per-circuit: ");
  Alcotest.(check bool) "non-positive timeout names the bound" true
    (Helpers.contains_substring m "must be a positive number")

let test_parse_args_result () =
  (match Driver.parse_args_result [ "--k"; "5" ] with
  | Ok opts -> Alcotest.(check int) "ok carries options" 5 opts.Driver.k
  | Error _ -> Alcotest.fail "expected Ok");
  (match Driver.parse_args_result [ "--k"; "abc" ] with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error m ->
    Alcotest.(check bool) "error names the flag" true
      (Helpers.contains_substring m "--k expects an integer"))

(* Flag combinations that every individual parser accepts but that are
   wrong as a whole must be an [Error], not a run that silently does
   nothing (an unknown --only section selects zero tables; k/k2 < 1
   render every sampled table vacuously). The numeric bounds are
   [Api.Request.validate]'s, reported under reproduce's flag names. *)
let test_parse_args_rejects_contradictions () =
  let expect_error label args needle =
    match Driver.parse_args_result args with
    | Ok _ -> Alcotest.fail (label ^ ": expected Error")
    | Error m ->
      Alcotest.(check bool)
        (label ^ " message mentions cause")
        true
        (Helpers.contains_substring m needle)
  in
  expect_error "unknown section" [ "--only"; "table9" ] "unknown section";
  expect_error "zero k" [ "--k"; "0" ] "--k: request field \"k\" must be >= 1";
  expect_error "negative k2" [ "--k2"; "-5" ]
    "--k2: request field \"k2\" must be >= 1";
  expect_error "zero domains" [ "--domains"; "0" ]
    "--domains: request field \"domains\" must be >= 1";
  expect_error "domains above the cap" [ "--domains"; "1000" ]
    "--domains: request field \"domains\" must be <= 64";
  expect_error "bounds hold without a suite section"
    [ "--only"; "table4"; "--k"; "0" ]
    "--k: ";
  expect_error "resume without checkpoint" [ "--resume" ]
    "--resume requires --checkpoint";
  (* Flags reproduce does not own are unknown arguments, not values
     parsed and then ignored. *)
  List.iter
    (fun flag ->
      expect_error ("foreign flag " ^ flag) [ flag ] "unknown argument")
    [ "--workers"; "--lease-secs"; "--max-unit-retries"; "--chaos";
      "--ledger"; "--samples"; "--strata"; "--confidence" ];
  (* Case-insensitivity and the valid spellings stay accepted. *)
  List.iter
    (fun args ->
      match Driver.parse_args_result args with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("unexpected Error: " ^ m))
    [
      [ "--only"; "Table5" ];
      [ "--only"; "figure2" ];
      [ "--only"; "all" ];
      [ "--k"; "1" ];
      [ "--resume"; "--checkpoint"; "ck" ];
      [ "--domains"; "1"; "--timeout-per-circuit"; "0.5" ];
    ]

let test_parse_args_telemetry_flags () =
  let opts = parse_ok [ "--trace"; "out.jsonl"; "--metrics" ] in
  Alcotest.(check (option string)) "trace file" (Some "out.jsonl")
    opts.Driver.trace;
  Alcotest.(check bool) "metrics" true opts.Driver.metrics;
  let defaults = parse_ok [] in
  Alcotest.(check (option string)) "trace off by default" None
    defaults.Driver.trace;
  Alcotest.(check bool) "metrics off by default" false
    defaults.Driver.metrics;
  Alcotest.(check bool) "--trace requires a value" true
    (Helpers.contains_substring
       (failure_message [ "--trace" ])
       "--trace requires a value")

let test_parse_args_supervision_flags () =
  let opts =
    parse_ok
      [ "--checkpoint"; "ck/dir"; "--resume"; "--timeout-per-circuit"; "2.5";
        "--inject"; "crash=analyze:mc" ]
  in
  Alcotest.(check (option string)) "checkpoint" (Some "ck/dir")
    opts.Driver.checkpoint_dir;
  Alcotest.(check bool) "resume" true opts.Driver.resume;
  Alcotest.(check bool) "timeout" true
    (opts.Driver.timeout_per_circuit = Some 2.5);
  Alcotest.(check (option string)) "inject" (Some "crash=analyze:mc")
    opts.Driver.inject;
  Alcotest.(check bool) "resume needs checkpoint" true
    (Helpers.contains_substring
       (failure_message [ "--resume" ])
       "--resume requires --checkpoint");
  Alcotest.(check bool) "bad inject spec" true
    (Helpers.contains_substring
       (failure_message [ "--inject"; "frazzle=x" ])
       "--inject")

(* checkpoint *)

let stamp : Checkpoint.stamp =
  { Checkpoint.version = Checkpoint.version; seed = 1; tier = "small";
    k = 20; k2 = 10 }

(* Checkpoint entries are responses; a label tells them apart. *)
let response label =
  {
    Api.Response.label;
    sections = [ (Api.Request.Worst, Api.Response.Worst_rows []) ];
    failures = [];
    counters = [ ("sim.detection_sets", 1) ];
  }

let load_label ck ~key =
  Option.map (fun r -> r.Api.Response.label) (Checkpoint.load ck ~key)

let test_checkpoint_roundtrip () =
  with_temp_dir (fun dir ->
      let ck = Checkpoint.create ~dir ~stamp in
      Alcotest.(check bool) "absent" false (Checkpoint.mem ck ~key:"xs");
      Checkpoint.store ck ~key:"xs" (response "a");
      Alcotest.(check bool) "present" true (Checkpoint.mem ck ~key:"xs");
      Alcotest.(check bool) "roundtrip" true
        (Checkpoint.load ck ~key:"xs" = Some (response "a"));
      (* Overwrite is atomic-replace, last write wins. *)
      Checkpoint.store ck ~key:"xs" (response "b");
      Alcotest.(check (option string)) "overwritten" (Some "b")
        (load_label ck ~key:"xs"))

let test_checkpoint_stamp_mismatch () =
  with_temp_dir (fun dir ->
      let ck = Checkpoint.create ~dir ~stamp in
      Checkpoint.store ck ~key:"xs" (response "a");
      let other = Checkpoint.create ~dir ~stamp:{ stamp with seed = 2 } in
      Alcotest.(check (option string)) "different seed sees nothing" None
        (load_label other ~key:"xs");
      let same = Checkpoint.create ~dir ~stamp in
      Alcotest.(check (option string)) "same stamp still loads" (Some "a")
        (load_label same ~key:"xs"))

let test_checkpoint_corruption () =
  with_temp_dir (fun dir ->
      let ck = Checkpoint.create ~dir ~stamp in
      Checkpoint.store ck ~key:"xs" (response "a");
      (* Clobber the entry on disk; load must degrade to None, not raise. *)
      Array.iter
        (fun entry ->
          let oc = open_out (Filename.concat dir entry) in
          output_string oc "garbage";
          close_out oc)
        (Sys.readdir dir);
      Alcotest.(check (option string)) "corrupt entry ignored" None
        (load_label ck ~key:"xs");
      (* Damage sweep: every truncation and every single-bit flip of a
         real entry loads as None, never raises, never returns a
         different response; the pristine bytes load again after. *)
      Checkpoint.store ck ~key:"xs" (response "a");
      let path = Filename.concat dir "xs.ckpt" in
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length pristine in
      let expect_none label raw =
        Fs.write_atomic ~path raw;
        match Checkpoint.load ck ~key:"xs" with
        | None -> ()
        | Some _ -> Alcotest.fail (label ^ ": damaged entry loaded")
        | exception e ->
          Alcotest.fail (label ^ ": raised " ^ Printexc.to_string e)
      in
      for cut = 0 to len - 1 do
        expect_none (Printf.sprintf "truncated to %d/%d" cut len)
          (String.sub pristine 0 cut)
      done;
      for pos = 0 to len - 1 do
        for bit = 0 to 7 do
          expect_none
            (Printf.sprintf "bit %d flipped at byte %d/%d" bit pos len)
            (String.mapi
               (fun i c ->
                 if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
               pristine)
        done
      done;
      Fs.write_atomic ~path pristine;
      Alcotest.(check (option string)) "pristine entry loads again" (Some "a")
        (load_label ck ~key:"xs"))

let test_write_atomic () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "out.csv" in
      Fs.write_atomic ~path "a,b\n1,2\n";
      Alcotest.(check string) "contents" "a,b\n1,2\n"
        (In_channel.with_open_bin path In_channel.input_all);
      Fs.write_atomic ~path "new\n";
      Alcotest.(check string) "replaced" "new\n"
        (In_channel.with_open_bin path In_channel.input_all);
      (* No stray temp files left behind. *)
      Alcotest.(check (list string)) "single file" [ "out.csv" ]
        (Array.to_list (Sys.readdir dir)))

(* table cache *)

module Table_cache = Ndetect_harness.Table_cache
module Detection_table = Ndetect_core.Detection_table
module Telemetry = Ndetect_util.Telemetry
module Bitvec = Ndetect_util.Bitvec

let tables_identical a b =
  Detection_table.target_count a = Detection_table.target_count b
  && Detection_table.untargeted_count a = Detection_table.untargeted_count b
  && Detection_table.universe a = Detection_table.universe b
  && Detection_table.undetectable_target_count a
     = Detection_table.undetectable_target_count b
  && List.for_all
       (fun fi ->
         Bitvec.equal
           (Detection_table.target_set a fi)
           (Detection_table.target_set b fi)
         && Detection_table.target_label a fi = Detection_table.target_label b fi)
       (List.init (Detection_table.target_count a) Fun.id)
  && List.for_all
       (fun gj ->
         Bitvec.equal
           (Detection_table.untargeted_set a gj)
           (Detection_table.untargeted_set b gj)
         && Detection_table.untargeted_label a gj
            = Detection_table.untargeted_label b gj)
       (List.init (Detection_table.untargeted_count a) Fun.id)

let test_table_cache_roundtrip () =
  with_temp_dir (fun dir ->
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let built = Detection_table.build net in
      let key = Table_cache.key net in
      Table_cache.store ~dir ~key built;
      match Table_cache.load ~dir ~key net with
      | None -> Alcotest.fail "expected a cache hit"
      | Some restored ->
        Alcotest.(check bool) "bit-identical tables" true
          (tables_identical built restored);
        (* The restored table feeds the analyses exactly like a built
           one: worst-case distributions agree entry for entry. *)
        let module Worst_case = Ndetect_core.Worst_case in
        Alcotest.(check (array int)) "same nmin distribution"
          (Worst_case.distribution (Worst_case.compute built))
          (Worst_case.distribution (Worst_case.compute restored)))

(* [restore_parts] checks the parts a decoder read from disk against
   the netlist before adopting them: a universe other than the
   netlist's exhaustive one, or a set of another length, is an
   [Invalid_argument] naming the check, which the cache turns into a
   miss. The same parts, unchanged, restore the built table. *)
let test_table_cache_restore_checks () =
  let net = Registry.circuit (Option.get (Registry.find "lion")) in
  let t = Detection_table.build net in
  let universe = Detection_table.universe t in
  let target_sets =
    Array.init (Detection_table.target_count t) (Detection_table.target_set t)
  in
  let restore ~universe ~target_sets =
    Detection_table.restore_parts net ~universe
      ~targets:
        (Array.init (Detection_table.target_count t)
           (Detection_table.target_fault t))
      ~target_sets
      ~undetectable_targets:(Detection_table.undetectable_target_count t)
      ~untargeted:
        (Array.init (Detection_table.untargeted_count t)
           (Detection_table.untargeted_packed t))
      ~untargeted_class:
        (Array.init (Detection_table.untargeted_count t)
           (Detection_table.untargeted_class t))
      ~untargeted_distinct:
        (Array.init
           (Detection_table.untargeted_class_count t)
           (Detection_table.untargeted_class_set t))
      ~undetectable_untargeted:
        (Detection_table.undetectable_untargeted_count t)
      ()
  in
  Alcotest.(check bool) "consistent parts restore the table" true
    (tables_identical t (restore ~universe ~target_sets));
  let rejects label expected f =
    match f () with
    | _ -> Alcotest.failf "%s: restored" label
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names the check" label msg)
        true
        (Helpers.contains_substring msg expected)
  in
  rejects "doubled universe" "universe mismatch" (fun () ->
      restore ~universe:(2 * universe) ~target_sets);
  let short = Array.copy target_sets in
  short.(0) <- Bitvec.create (universe - 1);
  rejects "short target set" "set length mismatch" (fun () ->
      restore ~universe ~target_sets:short)

(* The cache is best-effort: a directory that cannot exist (its path
   runs through a regular file) makes [store] a no-op and [table] a
   plain build, never an exception. *)
let test_table_cache_unusable_dir () =
  with_temp_dir (fun dir ->
      let file = Filename.concat dir "not-a-dir" in
      Out_channel.with_open_bin file (fun oc -> output_string oc "x");
      let bad = Filename.concat file "sub" in
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let built = Detection_table.build net in
      Table_cache.store ~dir:bad ~key:(Table_cache.key net) built;
      Alcotest.(check bool) "table is the build" true
        (tables_identical built (Table_cache.table ~dir:bad net)))

(* The cache stores one pool index per untargeted class and rebuilds
   the classes on load: a cold store (a build, then its record) and a
   warm load agree on every class, every nmin and the rendered
   report. *)
let test_table_cache_classes_roundtrip () =
  with_temp_dir (fun dir ->
      let module Worst_case = Ndetect_core.Worst_case in
      let module Analysis = Ndetect_core.Analysis in
      let module Paper_tables = Ndetect_report.Paper_tables in
      let net = Registry.circuit (Option.get (Registry.find "bbara")) in
      let cold = Table_cache.table ~dir net in
      match Table_cache.load ~dir ~key:(Table_cache.key net) net with
      | None -> Alcotest.fail "expected a cache hit"
      | Some warm ->
        let classes t =
          ( Detection_table.untargeted_class_count t,
            List.init (Detection_table.untargeted_count t)
              (Detection_table.untargeted_class t) )
        in
        Alcotest.(check (pair int (list int)))
          "same classes" (classes cold) (classes warm);
        Alcotest.(check bool)
          "classes shared" true
          (fst (classes cold) < Detection_table.untargeted_count cold);
        let worst t = Worst_case.compute t in
        Alcotest.(check (array int))
          "same nmin"
          (Worst_case.distribution (worst cold))
          (Worst_case.distribution (worst warm));
        let report t =
          let w = worst t in
          let summary = Analysis.summary_of_worst ~name:"bbara" w in
          Paper_tables.table2 [ summary ]
          ^ Paper_tables.table3 [ summary ]
          ^ Paper_tables.figure2 w ~min_value:1
        in
        Alcotest.(check string) "same report" (report cold) (report warm))

(* Warm load against cold build, fault by fault: the packed untargeted
   faults decode to the same faults and labels, and [find_untargeted]
   finds every 17th bridge (a scan each) at the same index. Four-way on
   mc and bbara, and a wired-AND table. *)
let test_table_cache_untargeted_roundtrip () =
  let module Wired = Ndetect_faults.Wired in
  let check ?model name =
    with_temp_dir (fun dir ->
        let net = Registry.circuit (Option.get (Registry.find name)) in
        let cold = Table_cache.table ~dir ?model net in
        match Table_cache.load ~dir ~key:(Table_cache.key ?model net) net with
        | None -> Alcotest.fail "expected a cache hit"
        | Some warm ->
          let count = Detection_table.untargeted_count cold in
          Alcotest.(check int)
            (name ^ " untargeted count") count
            (Detection_table.untargeted_count warm);
          Alcotest.(check bool)
            (name ^ " has untargeted faults") true (count > 0);
          for gj = 0 to count - 1 do
            let fault = Detection_table.untargeted_fault cold gj in
            Alcotest.(check bool)
              (Printf.sprintf "%s g%d fault" name gj)
              true
              (fault = Detection_table.untargeted_fault warm gj);
            Alcotest.(check string)
              (Printf.sprintf "%s g%d label" name gj)
              (Detection_table.untargeted_label cold gj)
              (Detection_table.untargeted_label warm gj);
            match fault with
            | Detection_table.Wired_fault _ -> ()
            | Detection_table.Bridge_fault _ when gj mod 17 <> 0 -> ()
            | Detection_table.Bridge_fault b ->
              let find t =
                Detection_table.find_untargeted t
                  ~victim:(Ndetect_circuit.Netlist.name net b.victim)
                  ~victim_value:b.victim_value
                  ~aggressor:(Ndetect_circuit.Netlist.name net b.aggressor)
                  ~aggressor_value:b.aggressor_value
              in
              Alcotest.(check (option int))
                (Printf.sprintf "%s g%d found" name gj)
                (Some gj) (find cold);
              Alcotest.(check (option int))
                (Printf.sprintf "%s g%d found warm" name gj)
                (Some gj) (find warm)
          done)
  in
  check "mc";
  check "bbara";
  check ~model:(Detection_table.Wired Wired.Wired_and) "bbara"

(* The loader checks every node id and pin against the netlist. Each
   record below carries a checksum that holds (re-sealed with
   [Record.encode]) but names a line outside [net]: a stem node, a
   branch gate or pin, a bridge victim or aggressor, a wired node. It
   must load as a corrupt miss, not as a table whose labels raise. *)
let test_table_cache_rejects_out_of_range_lines () =
  let module Record = Ndetect_util.Record in
  let module Wired = Ndetect_faults.Wired in
  let module Netlist = Ndetect_circuit.Netlist in
  let net = Registry.circuit (Option.get (Registry.find "mc")) in
  let nodes = Netlist.node_count net in
  let tampered ?model label patch =
    with_temp_dir (fun dir ->
        let key = Table_cache.key ?model net in
        let path = Filename.concat dir (key ^ ".tbl") in
        Table_cache.store ~dir ~key (Detection_table.build ?model net);
        let payload =
          Result.get_ok
            (Record.decode ~kind:"table" ~key
               (In_channel.with_open_bin path In_channel.input_all))
        in
        let field i = Int64.to_int (String.get_int64_le payload (8 * i)) in
        let t_count = field 2 in
        (* Meta offsets: ten fixed fields, then four per target, one pool
           index per target, then five per untargeted fault. *)
        let target k = 10 + (4 * k)
        and untargeted j = 10 + (5 * t_count) + (5 * j) in
        let at, value = patch ~field ~target ~untargeted in
        let bytes = Bytes.of_string payload in
        Bytes.set_int64_le bytes (8 * at) (Int64.of_int value);
        Fs.write_atomic ~path
          (Record.encode ~kind:"table" ~key (Bytes.to_string bytes));
        let corrupt_before = Telemetry.counter_value "table_cache.corrupt" in
        Alcotest.(check bool)
          (label ^ " is a miss") true
          (Table_cache.load ~dir ~key net = None);
        Alcotest.(check int)
          (label ^ " counted as corrupt") (corrupt_before + 1)
          (Telemetry.counter_value "table_cache.corrupt"))
  in
  (* The first target whose line tag is [tag] (0 stem, 1 branch). *)
  let first_target ~field ~target tag =
    let rec go k = if field (target k) = tag then k else go (k + 1) in
    go 0
  in
  tampered "stem node" (fun ~field ~target ~untargeted:_ ->
      (target (first_target ~field ~target 0) + 1, nodes));
  tampered "branch gate" (fun ~field ~target ~untargeted:_ ->
      (target (first_target ~field ~target 1) + 1, nodes));
  tampered "branch pin" (fun ~field ~target ~untargeted:_ ->
      let k = first_target ~field ~target 1 in
      ( target k + 2,
        Array.length (Netlist.fanins net (field (target k + 1))) ));
  tampered "bridge victim" (fun ~field:_ ~target:_ ~untargeted ->
      (untargeted 0 + 1, nodes));
  tampered "bridge aggressor" (fun ~field:_ ~target:_ ~untargeted ->
      (untargeted 0 + 3, nodes));
  let model = Detection_table.Wired Wired.Wired_and in
  tampered ~model "wired node a" (fun ~field:_ ~target:_ ~untargeted ->
      (untargeted 0 + 1, nodes));
  tampered ~model "wired node b" (fun ~field:_ ~target:_ ~untargeted ->
      (untargeted 0 + 2, nodes))

(* Transition_analysis keeps its bridges as indices into the pair
   sweep: its labels are the detectable bridges of the reference
   enumeration, in order. *)
let test_transition_labels_unchanged () =
  let module Transition_analysis = Ndetect_core.Transition_analysis in
  let module Bridge = Ndetect_faults.Bridge in
  let module Good = Ndetect_sim.Good in
  let module Fault_sim = Ndetect_sim.Fault_sim in
  List.iter
    (fun name ->
      let net = Registry.circuit (Option.get (Registry.find name)) in
      let good = Good.compute net in
      let expected =
        List.filter_map
          (fun b ->
            if Bitvec.is_empty (Fault_sim.bridge_detection_set good b) then
              None
            else Some (Bridge.to_string net b))
          (Array.to_list (Ndetect_check.Ref_table.bridges net))
      in
      let t = Transition_analysis.compute net in
      Alcotest.(check (list string))
        (name ^ " labels") expected
        (List.init
           (Transition_analysis.untargeted_count t)
           (Transition_analysis.untargeted_label t)))
    [ "mc"; "bbara" ]

let test_table_cache_corruption () =
  with_temp_dir (fun dir ->
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let key = Table_cache.key net in
      Table_cache.store ~dir ~key (Detection_table.build net);
      let path = Filename.concat dir (key ^ ".tbl") in
      (* Truncate mid-payload: the magic survives but the snapshot blob
         is torn. Load must miss, not raise. *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub raw 0 (String.length raw / 2));
      close_out oc;
      Alcotest.(check bool) "torn file is a miss" true
        (Table_cache.load ~dir ~key net = None);
      (* Arbitrary garbage (wrong magic). *)
      let oc = open_out_bin path in
      output_string oc "not a table at all";
      close_out oc;
      Alcotest.(check bool) "garbage is a miss" true
        (Table_cache.load ~dir ~key net = None))

(* Exhaustive damage sweep over the record format: truncations at
   structural boundaries and single-bit flips in every region — magic,
   header fields (version, key, length, digest), the alignment pad, the
   meta section, and the raw words (first, middle, last — meta and
   words are covered by one FNV digest and the 62-bit range check) —
   must all degrade to a miss, never raise, never return a wrong
   table. Each must bump the "table_cache.corrupt"
   counter and delete the damaged file (corrupt entries can only miss
   again). *)
let test_table_cache_damage_sweep () =
  with_temp_dir (fun dir ->
      let module Telemetry = Ndetect_util.Telemetry in
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let key = Table_cache.key net in
      Table_cache.store ~dir ~key (Detection_table.build net);
      let path = Filename.concat dir (key ^ ".tbl") in
      let pristine = In_channel.with_open_bin path In_channel.input_all in
      let len = String.length pristine in
      let header_end = String.index_from pristine 14 '\n' in
      (* Region boundaries from the header "4 key len fnv" and the
         meta's fixed fields: the pad runs to the next 8-byte boundary,
         where the payload (meta, then words) starts. *)
      let payload_len =
        match
          String.split_on_char ' '
            (String.sub pristine 14 (header_end - 14))
        with
        | [ _v; _key; payload_len; _fnv ] -> int_of_string payload_len
        | _ -> Alcotest.fail "unexpected record header shape"
      in
      let pad_start = header_end + 1 in
      let meta_start = (pad_start + 7) land lnot 7 in
      let field i =
        Int64.to_int (String.get_int64_le pristine (meta_start + (8 * i)))
      in
      let words_off =
        meta_start + (8 * (10 + (5 * field 2) + (6 * field 3) + (2 * field 7)))
      in
      let nwords = (len - words_off) / 8 in
      Alcotest.(check int) "file size = payload offset + length" len
        (meta_start + payload_len);
      let write raw =
        let oc = open_out_bin path in
        output_string oc raw;
        close_out oc
      in
      let flip raw pos =
        let b = Bytes.of_string raw in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
        Bytes.to_string b
      in
      let expect_corrupt_miss label raw =
        write raw;
        let corrupt_before = Telemetry.counter_value "table_cache.corrupt" in
        Alcotest.(check bool)
          (label ^ " is a miss")
          true
          (Table_cache.load ~dir ~key net = None);
        Alcotest.(check int)
          (label ^ " counted as corrupt")
          (corrupt_before + 1)
          (Telemetry.counter_value "table_cache.corrupt");
        Alcotest.(check bool)
          (label ^ " file deleted")
          false (Sys.file_exists path)
      in
      (* Truncations: empty file, torn magic, torn header, meta torn,
         words torn mid-word and at the last byte. *)
      List.iter
        (fun cut ->
          expect_corrupt_miss
            (Printf.sprintf "truncated to %d/%d bytes" cut len)
            (String.sub pristine 0 cut))
        [ 0; 7; header_end - 3; meta_start; words_off - 1; words_off + 3;
          len - 8; len - 1 ];
      (* Single-bit flips, one per structural region: magic, version
         digit (to an older version: a newer one is spared, see the
         version test), key, length/digest, meta fixed fields, meta arrays,
         alignment pad (must be zero), first / middle / last word —
         including the top bit of a word, which an OCaml bigarray read
         cannot even see (Val_long drops bit 63) but the C digest pass
         over the raw mapped memory must catch. *)
      let top_bit_of_last_word =
        let b = Bytes.of_string pristine in
        (* Words are little-endian: byte 7 of the word holds bit 63. *)
        let pos = len - 1 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x80));
        Bytes.to_string b
      in
      let older_version =
        let b = Bytes.of_string pristine in
        Bytes.set b 14 (Char.chr (Char.code (Bytes.get b 14) lxor 4));
        Bytes.to_string b
      in
      expect_corrupt_miss "version digit flipped to an older version"
        older_version;
      List.iter
        (fun pos ->
          expect_corrupt_miss
            (Printf.sprintf "bit flip at byte %d/%d" pos len)
            (flip pristine pos))
        ([ 0; 16; String.rindex_from pristine header_end ' ' - 1;
           header_end - 2; header_end - 1; meta_start;
           meta_start + 40; words_off - 1; words_off;
           words_off + (8 * (nwords / 2)); len - 1 ]
        @ (if meta_start > pad_start then [ pad_start ] else []));
      expect_corrupt_miss "top bit of last word" top_bit_of_last_word;
      (* And the pristine bytes restored still hit. *)
      write pristine;
      Alcotest.(check bool) "pristine file hits again" true
        (Table_cache.load ~dir ~key net <> None))

let test_table_cache_version_mismatch () =
  with_temp_dir (fun dir ->
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let key = Table_cache.key net in
      (* A file from a future format version: consistent header and
         digest, but the payload type is unknowable — it must be
         rejected from the version field alone, and (unlike a corrupt
         file) left on disk: a rolled-back binary must not destroy a
         newer binary's cache. *)
      let payload = Marshal.to_string () [] in
      let buf = Buffer.create 256 in
      Buffer.add_string buf "ndetect-table\n";
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s %d\n" (Table_cache.version + 1) key
           (Digest.to_hex (Digest.string payload))
           (String.length payload))
      ;
      Buffer.add_string buf payload;
      let path = Filename.concat dir (key ^ ".tbl") in
      Fs.write_atomic ~path (Buffer.contents buf);
      Alcotest.(check bool) "future version is a miss" true
        (Table_cache.load ~dir ~key net = None);
      Alcotest.(check bool) "future-version file is spared deletion" true
        (Sys.file_exists path);
      (* A past version that is no longer read at all (v1) is ordinary
         corruption: miss, and reclaimed. *)
      let v1 = Buffer.contents buf in
      let v1 =
        let b = Bytes.of_string v1 in
        Bytes.set b 14 '1';
        Bytes.to_string b
      in
      Fs.write_atomic ~path v1;
      Alcotest.(check bool) "unreadable past version is a miss" true
        (Table_cache.load ~dir ~key net = None);
      Alcotest.(check bool) "unreadable past version reclaimed" false
        (Sys.file_exists path))

(* Upgrade from the previous on-disk layout (version 3: a bespoke
   header "3 key meta_fnv meta_len words_off nwords fnv", then the same
   meta and words). Such a file, even one intact under its own digests,
   is an unreadable past version: a corrupt miss, deleted. The next
   [Table_cache.table] rebuilds the table and stores a record that
   loads. *)
let test_table_cache_upgrade () =
  with_temp_dir (fun dir ->
      let module Telemetry = Ndetect_util.Telemetry in
      let module Record = Ndetect_util.Record in
      let net = Registry.circuit (Option.get (Registry.find "lion")) in
      let built = Detection_table.build net in
      let key = Table_cache.key net in
      let path = Filename.concat dir (key ^ ".tbl") in
      (* Re-frame a current payload in the version-3 layout. *)
      Table_cache.store ~dir ~key built;
      let payload =
        Result.get_ok
          (Record.decode ~kind:"table" ~key
             (In_channel.with_open_bin path In_channel.input_all))
      in
      let field i = Int64.to_int (String.get_int64_le payload (8 * i)) in
      let meta_len = 8 * (10 + (5 * field 2) + (6 * field 3) + (2 * field 7)) in
      let meta = String.sub payload 0 meta_len in
      let words =
        String.sub payload meta_len (String.length payload - meta_len)
      in
      let hex s = Printf.sprintf "%016Lx" (Record.digest s) in
      let rec fit words_off =
        let header =
          Printf.sprintf "ndetect-table\n3 %s %s %d %d %d %s\n" key (hex meta)
            meta_len words_off
            (String.length words / 8)
            (hex words)
        in
        let meta_off = (String.length header + 7) land lnot 7 in
        if meta_off + meta_len = words_off then
          header ^ String.make (meta_off - String.length header) '\000'
        else fit (meta_off + meta_len)
      in
      Fs.write_atomic ~path (fit 0 ^ payload);
      let corrupt_before = Telemetry.counter_value "table_cache.corrupt" in
      Alcotest.(check bool) "version-3 file is a miss" true
        (Table_cache.load ~dir ~key net = None);
      Alcotest.(check int) "counted as corrupt" (corrupt_before + 1)
        (Telemetry.counter_value "table_cache.corrupt");
      Alcotest.(check bool) "version-3 file deleted" false
        (Sys.file_exists path);
      let sims_before = Telemetry.counter_value "sim.detection_sets" in
      let rebuilt = Table_cache.table ~dir net in
      Alcotest.(check bool) "rebuilt by fault simulation" true
        (Telemetry.counter_value "sim.detection_sets" > sims_before);
      Alcotest.(check bool) "rebuilt table identical" true
        (tables_identical built rebuilt);
      match Table_cache.load ~dir ~key net with
      | None -> Alcotest.fail "the rebuilt entry must load"
      | Some restored ->
        Alcotest.(check bool) "stored record loads identically" true
          (tables_identical built restored))

let test_table_cache_key_covers_params () =
  let net = Registry.circuit (Option.get (Registry.find "lion")) in
  let base = Table_cache.key net in
  Alcotest.(check bool) "collapse in key" true
    (base <> Table_cache.key ~collapse:false net);
  Alcotest.(check bool) "model in key" true
    (base
    <> Table_cache.key
         ~model:(Detection_table.Wired Ndetect_faults.Wired.Wired_and)
         net);
  let other = Registry.circuit (Option.get (Registry.find "mc")) in
  Alcotest.(check bool) "netlist in key" true (base <> Table_cache.key other)

let test_table_cache_warm_run_simulates_nothing () =
  with_temp_dir (fun dir ->
      let opts = { small_options with Driver.table_cache = Some dir } in
      let reference = Driver.create small_options in
      let cold = Driver.create opts in
      let expected_t2 = Driver.table2_csv reference in
      Alcotest.(check string) "cold cached run matches uncached" expected_t2
        (Driver.table2_csv cold);
      (* Warm run: every table restored from disk, zero fault
         simulations, byte-identical output. *)
      let before = Telemetry.counter_value "sim.detection_sets" in
      let warm = Driver.create opts in
      Alcotest.(check string) "warm run byte-identical" expected_t2
        (Driver.table2_csv warm);
      Alcotest.(check int) "zero fault simulations when warm" before
        (Telemetry.counter_value "sim.detection_sets");
      Alcotest.(check int) "no failures" 0
        (List.length (Driver.failures warm)))

(* telemetry wiring: tracing/metrics never change results, warm cache
   runs trace no simulation, deterministic counters ignore --domains *)

let test_output_identical_with_telemetry () =
  with_temp_dir (fun dir ->
      let plain = Driver.create small_options in
      let expected = Driver.run_table2 plain in
      let path = Filename.concat dir "trace.jsonl" in
      let traced =
        Driver.create
          { small_options with Driver.trace = Some path; metrics = true }
      in
      let got = Driver.run_table2 traced in
      Driver.finish traced;
      Alcotest.(check string) "table2 byte-identical" expected got;
      Alcotest.(check bool) "trace written" true (Sys.file_exists path);
      (* finish is idempotent. *)
      Driver.finish traced)

let trace_begin_names path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         Helpers.contains_substring l "\"type\":\"begin\"")

let test_warm_cache_trace_has_no_sim_spans () =
  with_temp_dir (fun cache ->
      with_temp_dir (fun dir ->
          (* Cold run fills the cache (untraced). *)
          let cold =
            Driver.create
              { small_options with Driver.table_cache = Some cache }
          in
          ignore (Driver.run_table2 cold);
          let path = Filename.concat dir "trace.jsonl" in
          let warm =
            Driver.create
              { small_options with
                Driver.table_cache = Some cache;
                trace = Some path }
          in
          ignore (Driver.run_table2 warm);
          Driver.finish warm;
          let begins = trace_begin_names path in
          Alcotest.(check bool) "cache lookups traced" true
            (List.exists
               (fun l ->
                 Helpers.contains_substring l "\"name\":\"table_cache.lookup\"")
               begins);
          (* The whole point of a warm cache: no table construction, no
             fault simulation — so no such spans in the trace. *)
          List.iter
            (fun forbidden ->
              Alcotest.(check bool) (forbidden ^ " absent") true
                (not
                   (List.exists
                      (fun l -> Helpers.contains_substring l forbidden)
                      begins)))
            [
              "\"name\":\"table.build\"";
              "\"name\":\"table.sim.targets\"";
              "\"name\":\"table.sim.untargeted\"";
            ]))

(* The deterministic work counters (simulation, kernel, dedup activity)
   must not depend on the domain count; sample them per supervised unit
   via --metrics and compare across --domains values. *)
let deterministic_unit_metrics driver =
  List.map
    (fun (label, delta) ->
      ( label,
        List.filter
          (fun (name, _) ->
            List.exists
              (fun prefix -> String.starts_with ~prefix name)
              [ "sim."; "worst."; "table." ])
          delta ))
    (Driver.unit_metrics driver)

let test_metrics_domain_invariant () =
  let run domains =
    let driver =
      Driver.create
        { small_options with Driver.metrics = true; domains = Some domains }
    in
    ignore (Driver.run_table2 driver);
    let m = deterministic_unit_metrics driver in
    Driver.finish driver;
    m
  in
  let reference = run 1 in
  Alcotest.(check bool) "counters moved" true
    (List.exists (fun (_, delta) -> delta <> []) reference);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "domains %d matches domains 1" domains)
        true
        (run domains = reference))
    [ 2; 4 ]

(* supervision: containment, timeout rows, kill-and-resume *)

let test_crash_containment () =
  let clean = Driver.create small_options in
  let clean_t2 = Driver.run_table2 clean in
  let faulty =
    Driver.create
      { small_options with
        Driver.inject = Some "crash=analyze:mc,crash=analyze:lion" }
  in
  let t2 = Driver.run_table2 faulty in
  Alcotest.(check int) "both failures recorded" 2
    (List.length (Driver.failures faulty));
  Alcotest.(check bool) "crashed rows rendered" true
    (Helpers.contains_substring t2 "(crashed: injected fault: at analyze:mc)"
    && Helpers.contains_substring t2 "(crashed: injected fault")
  ;
  (* Unaffected circuits produce their normal cells. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " intact") true
        (Helpers.contains_substring t2 needle
        && Helpers.contains_substring clean_t2 needle))
    [ "bbtas"; "modulo12" ];
  Driver.create small_options |> ignore
(* final create clears the global injection plan *)

let test_timeout_row () =
  let driver =
    Driver.create
      { small_options with
        Driver.inject = Some "stall=analyze:mc:30";
        timeout_per_circuit = Some 2.0 }
  in
  let t2 = Driver.run_table2 driver in
  Alcotest.(check bool) "timed out row" true
    (Helpers.contains_substring t2 "(timed out after 2s)");
  (match Driver.failures driver with
  | [ (label, failure) ] ->
    Alcotest.(check string) "label" "analyze mc" label;
    Alcotest.(check bool) "failure kind" true
      (match failure with
      | Ndetect_util.Supervise.Timed_out _ -> true
      | _ -> false)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d"
                           (List.length fs)));
  Driver.create small_options |> ignore

let test_kill_and_resume_equivalence () =
  with_temp_dir (fun dir ->
      let clean = Driver.create small_options in
      let expected_t2 = Driver.table2_csv clean in
      let expected_t3 = Driver.table3_csv clean in
      (* "Kill": a run that checkpoints but crashes on one circuit. *)
      let interrupted =
        Driver.create
          { small_options with
            Driver.checkpoint_dir = Some dir;
            inject = Some "crash=analyze:mc" }
      in
      let broken_t2 = Driver.table2_csv interrupted in
      Alcotest.(check bool) "interrupted run differs" true
        (broken_t2 <> expected_t2);
      Alcotest.(check int) "one failure" 1
        (List.length (Driver.failures interrupted));
      (* Resume without the fault: only mc is recomputed, the rest is
         loaded, and the output is byte-identical to the clean run. *)
      let resumed =
        Driver.create
          { small_options with
            Driver.checkpoint_dir = Some dir;
            resume = true }
      in
      Alcotest.(check string) "table2 csv identical" expected_t2
        (Driver.table2_csv resumed);
      Alcotest.(check string) "table3 csv identical" expected_t3
        (Driver.table3_csv resumed);
      Alcotest.(check int) "no failures after resume" 0
        (List.length (Driver.failures resumed)))

(* The same kill/resume contract under parallel execution: a
   checkpointed --domains 2 run crashed mid-run, then resumed with
   --domains 2, must be byte-identical to an uninterrupted --domains 2
   run — and to the sequential one (parallel analysis is
   deterministic), so a checkpoint written by a parallel run cannot
   poison a later resume in either configuration. *)
let test_kill_and_resume_equivalence_parallel () =
  with_temp_dir (fun dir ->
      let parallel_options = { small_options with Driver.domains = Some 2 } in
      let clean = Driver.create parallel_options in
      let expected_t2 = Driver.table2_csv clean in
      let expected_t3 = Driver.table3_csv clean in
      Alcotest.(check string) "parallel clean run matches sequential"
        (Driver.table2_csv (Driver.create small_options))
        expected_t2;
      let interrupted =
        Driver.create
          { parallel_options with
            Driver.checkpoint_dir = Some dir;
            inject = Some "crash=analyze:mc" }
      in
      Alcotest.(check bool) "interrupted parallel run differs" true
        (Driver.table2_csv interrupted <> expected_t2);
      Alcotest.(check int) "one failure" 1
        (List.length (Driver.failures interrupted));
      let resumed =
        Driver.create
          { parallel_options with
            Driver.checkpoint_dir = Some dir;
            resume = true }
      in
      Alcotest.(check string) "table2 csv identical" expected_t2
        (Driver.table2_csv resumed);
      Alcotest.(check string) "table3 csv identical" expected_t3
        (Driver.table3_csv resumed);
      Alcotest.(check int) "no failures after resume" 0
        (List.length (Driver.failures resumed)))

let test_resume_skips_checkpointed_work () =
  with_temp_dir (fun dir ->
      let opts = { small_options with Driver.checkpoint_dir = Some dir } in
      let first = Driver.create opts in
      ignore (Driver.run_table2 first);
      (* A resumed driver must answer from the checkpoint without
         reanalyzing: inject crashes at every analysis site; loads make
         them unreachable. *)
      let entries = Registry.of_tier small_options.Driver.tier in
      let everything_crashes =
        String.concat ","
          (List.map (fun e -> "crash=analyze:" ^ e.Registry.name) entries)
      in
      let resumed =
        Driver.create
          { opts with Driver.resume = true;
            inject = Some everything_crashes }
      in
      Alcotest.(check string) "answered from checkpoint"
        (Driver.table2_csv first) (Driver.table2_csv resumed);
      Alcotest.(check int) "no analysis ran" 0
        (List.length (Driver.failures resumed));
      Driver.create small_options |> ignore)

(* A checkpoint write that fails costs its entry, not the run: every
   table is the clean run's, each circuit gets one recorded
   "checkpoint CIRCUIT" failure, and a resume recomputes them all. *)
let test_checkpoint_write_failure_recorded () =
  with_temp_dir (fun dir ->
      let expected = Driver.table2_csv (Driver.create small_options) in
      let opts = { small_options with Driver.checkpoint_dir = Some dir } in
      let failing =
        Driver.create { opts with Driver.inject = Some "crash=checkpoint:store" }
      in
      Alcotest.(check string) "tables unchanged" expected
        (Driver.table2_csv failing);
      let entries = Registry.of_tier small_options.Driver.tier in
      Alcotest.(check (list string))
        "one failure per circuit"
        (List.map (fun e -> "checkpoint " ^ e.Registry.name) entries)
        (List.map fst (Driver.failures failing));
      List.iter
        (fun (_, failure) ->
          match failure with
          | Ndetect_util.Supervise.Crashed e ->
            Alcotest.(check string) "injected kind" "injected fault"
              (Ndetect_util.Error.kind_to_string e.Ndetect_util.Error.kind)
          | _ -> Alcotest.fail "expected Crashed")
        (Driver.failures failing);
      Alcotest.(check int) "nothing stored" 0 (Array.length (Sys.readdir dir));
      let resumed = Driver.create { opts with Driver.resume = true } in
      Alcotest.(check string) "resume recomputes" expected
        (Driver.table2_csv resumed);
      Alcotest.(check int) "resume clean" 0
        (List.length (Driver.failures resumed)))

(* A checkpoint directory in an older layout — version-1 stamps, the old
   per-summary/per-section keys, even a current key holding another
   payload type — is ignored on --resume: every circuit is recomputed
   (byte-identical) and re-stored; nothing is read at the wrong type. *)
let test_resume_ignores_old_layout () =
  with_temp_dir (fun dir ->
      let clean = Driver.create small_options in
      let expected =
        (Driver.table2_csv clean, Driver.run_table5 clean, Driver.run_table6 clean)
      in
      let old_stamp = { stamp with Checkpoint.version = 1 } in
      let write key payload =
        let file = String.map (fun c -> if c = '+' then '_' else c) key in
        Fs.write_atomic
          ~path:(Filename.concat dir (file ^ ".ckpt"))
          (Marshal.to_string (("ndetect-checkpoint", old_stamp, key), payload) [])
      in
      let names =
        List.map (fun e -> e.Registry.name) (Registry.of_tier Registry.Small)
      in
      let current_key name = name ^ "-worst+average+average_def2" in
      List.iter
        (fun name ->
          write ("summary-" ^ name) "not a summary";
          write ("table5-" ^ name) (Some 42);
          write (current_key name) "not a response")
        names;
      List.iter
        (fun key -> write key ("stale text", None))
        [ "section-table2"; "section-table5"; "figure2" ];
      let resumed =
        Driver.create
          { small_options with
            Driver.checkpoint_dir = Some dir;
            resume = true }
      in
      Alcotest.(check bool) "recomputed output identical" true
        (( Driver.table2_csv resumed,
           Driver.run_table5 resumed,
           Driver.run_table6 resumed )
        = expected);
      Alcotest.(check int) "no failures" 0
        (List.length (Driver.failures resumed));
      let ck = Checkpoint.create ~dir ~stamp in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " re-stored") true
            (Checkpoint.mem ck ~key:(current_key name)))
        names)

let test_table1_content () =
  let driver = Driver.create small_options in
  let out = Driver.run_table1 driver in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Helpers.contains_substring out needle))
    [ "T((9,0,10,1)) = {6 7}"; "nmin((9,0,10,1)) = 3"; "9/1"; "11/0" ]

let test_table4_content () =
  let driver = Driver.create small_options in
  let out = Driver.run_table4 driver in
  Alcotest.(check bool) "has g6 line" true
    (Helpers.contains_substring out "T(g6) = {12}")

let test_tables_2_3_shape () =
  let driver = Driver.create small_options in
  let t2 = Driver.run_table2 driver in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in table 2") true
        (Helpers.contains_substring t2 name))
    [ "lion"; "mc"; "bbtas"; "modulo12" ];
  let t3 = Driver.run_table3 driver in
  Alcotest.(check bool) "table 3 rendered" true
    (Helpers.contains_substring t3 "n>=100")

let test_figure2_runs () =
  let driver = Driver.create small_options in
  let out = Driver.run_figure2 driver in
  Alcotest.(check bool) "names a circuit" true
    (Helpers.contains_substring out "circuit:")

(* Every table renders from the circuit's one response: Table 2 builds
   each circuit's detection table once, and Tables 5/6 afterwards build
   and simulate nothing. *)
let test_caching () =
  let module Telemetry = Ndetect_util.Telemetry in
  let work () =
    ( Telemetry.counter_value "table.builds",
      Telemetry.counter_value "sim.detection_sets" )
  in
  let driver = Driver.create small_options in
  let before = work () in
  ignore (Driver.run_table2 driver);
  let after_t2 = work () in
  Alcotest.(check int) "one table build per circuit"
    (List.length (Registry.of_tier Registry.Small))
    (fst after_t2 - fst before);
  ignore (Driver.run_table5 driver);
  ignore (Driver.run_table6 driver);
  Alcotest.(check (pair int int)) "tables 5/6 reuse the responses" after_t2
    (work ())

let () =
  Alcotest.run "harness"
    [
      ( "args",
        [
          Alcotest.test_case "defaults" `Quick test_parse_args_defaults;
          Alcotest.test_case "full" `Quick test_parse_args_full;
          Alcotest.test_case "csv flag" `Quick test_parse_args_csv;
          Alcotest.test_case "errors" `Quick test_parse_args_errors;
          Alcotest.test_case "friendly messages" `Quick
            test_parse_args_friendly_messages;
          Alcotest.test_case "result form" `Quick test_parse_args_result;
          Alcotest.test_case "contradictory flags rejected" `Quick
            test_parse_args_rejects_contradictions;
          Alcotest.test_case "telemetry flags" `Quick
            test_parse_args_telemetry_flags;
          Alcotest.test_case "supervision flags" `Quick
            test_parse_args_supervision_flags;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "stamp mismatch" `Quick
            test_checkpoint_stamp_mismatch;
          Alcotest.test_case "corruption tolerated" `Quick
            test_checkpoint_corruption;
          Alcotest.test_case "atomic writes" `Quick test_write_atomic;
        ] );
      ( "table-cache",
        [
          Alcotest.test_case "roundtrip bit-identical" `Quick
            test_table_cache_roundtrip;
          Alcotest.test_case "unusable directory is a plain build" `Quick
            test_table_cache_unusable_dir;
          Alcotest.test_case "restore checks universe and set lengths"
            `Quick test_table_cache_restore_checks;
          Alcotest.test_case "classes survive store and warm load" `Quick
            test_table_cache_classes_roundtrip;
          Alcotest.test_case "untargeted faults survive store and warm load"
            `Quick test_table_cache_untargeted_roundtrip;
          Alcotest.test_case "out-of-range lines rejected" `Quick
            test_table_cache_rejects_out_of_range_lines;
          Alcotest.test_case "transition labels unchanged" `Quick
            test_transition_labels_unchanged;
          Alcotest.test_case "corruption tolerated" `Quick
            test_table_cache_corruption;
          Alcotest.test_case "damage sweep: truncations and bit flips" `Quick
            test_table_cache_damage_sweep;
          Alcotest.test_case "version mismatch tolerated" `Quick
            test_table_cache_version_mismatch;
          Alcotest.test_case "upgrade: version-3 file rebuilt" `Quick
            test_table_cache_upgrade;
          Alcotest.test_case "key covers parameters" `Quick
            test_table_cache_key_covers_params;
          Alcotest.test_case "warm run simulates nothing" `Quick
            test_table_cache_warm_run_simulates_nothing;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "output identical with telemetry" `Quick
            test_output_identical_with_telemetry;
          Alcotest.test_case "warm cache trace has no sim spans" `Quick
            test_warm_cache_trace_has_no_sim_spans;
          Alcotest.test_case "metrics ignore domain count" `Quick
            test_metrics_domain_invariant;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash containment" `Quick
            test_crash_containment;
          Alcotest.test_case "timeout row" `Quick test_timeout_row;
          Alcotest.test_case "kill and resume" `Quick
            test_kill_and_resume_equivalence;
          Alcotest.test_case "kill and resume (domains 2)" `Quick
            test_kill_and_resume_equivalence_parallel;
          Alcotest.test_case "resume skips work" `Quick
            test_resume_skips_checkpointed_work;
          Alcotest.test_case "resume ignores old checkpoint layout" `Quick
            test_resume_ignores_old_layout;
          Alcotest.test_case "failed checkpoint write is recorded" `Quick
            test_checkpoint_write_failure_recorded;
        ] );
      ( "driver",
        [
          Alcotest.test_case "table 1 content" `Quick test_table1_content;
          Alcotest.test_case "table 4 content" `Quick test_table4_content;
          Alcotest.test_case "tables 2/3" `Quick test_tables_2_3_shape;
          Alcotest.test_case "figure 2" `Quick test_figure2_runs;
          Alcotest.test_case "analysis caching" `Quick test_caching;
        ] );
    ]
