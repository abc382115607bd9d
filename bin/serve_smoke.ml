(* End-to-end smoke for the analysis daemon, part of `dune runtest`
   (see docs/internals.md, "Analysis service").

   Takes the paths of the ndetect CLI and the trace validator and
   drives one daemon through the acceptance properties of the service:

   1. byte identity: `ndetect client` against the daemon prints exactly
      what `ndetect analyze` prints for the same request — both are
      Api.Response.render of the same value — for an exhaustive and a
      sampled-universe (--samples/--strata/--confidence) request;
   2. deduplication: two identical requests in flight at once (the
      daemon is started with --inject stall=analyze:lion:0.75 to hold
      the first one open) cost one computation — serve.dedup_joins >= 1
      on the stats frame, and exactly one of the two streamed traces
      carries spans (the joiner's is the schema-valid empty document);
   3. warm residency: a later identical request answers from the
      resident table — its trace has no sim.* or table.build spans;
   4. deadlines: a request whose budget is smaller than the stall comes
      back as a structured timeout row (client exit 3) and the daemon
      keeps serving;
   5. drain: SIGTERM exits 0 and leaves a sealed daemon telemetry file
      that validate_trace accepts, as do all streamed traces;
   6. a daemon whose --trace file cannot be written (/dev/full) still
      drains on SIGTERM, then exits 3 and names the file on stderr. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("serve-smoke: FAIL: " ^ msg);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run [exe args], stdout to [out], returning the exit code. *)
let run exe args ~out =
  let open_sink path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let fd_out = open_sink out in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin fd_out Unix.stderr
  in
  Unix.close fd_out;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n

let begin_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun line ->
         let needle = "\"type\":\"begin\"" in
         let nl = String.length line and nn = String.length needle in
         let rec go i =
           i + nn <= nl && (String.sub line i nn = needle || go (i + 1))
         in
         go 0)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* Wait up to 10 s for a daemon's socket to come up. *)
let await_socket socket =
  let rec go n =
    if Sys.file_exists socket then ()
    else if n = 0 then die "daemon socket %s never appeared" socket
    else begin
      Unix.sleepf 0.1;
      go (n - 1)
    end
  in
  go 100

(* Value printed by `ndetect client --stats` for [name]. *)
let stats_counter out name =
  String.split_on_char '\n' (read_file out)
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)

let () =
  let cli, validator =
    match Sys.argv with
    | [| _; cli; validator |] ->
      (* dune hands rule-relative paths; create_process must not rely
         on PATH or the cwd. *)
      let absolute p =
        if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p
        else p
      in
      (absolute cli, absolute validator)
    | _ -> die "usage: serve_smoke NDETECT_CLI VALIDATE_TRACE"
  in
  let dir = Filename.temp_file "ndsrv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  let socket = path "s" in
  let cache = path "tables" in
  Unix.mkdir cache 0o755;
  let daemon_trace = path "daemon.jsonl" in
  let daemon =
    Unix.create_process cli
      [|
        cli; "serve"; "--socket"; socket; "--table-cache"; cache;
        "--trace"; daemon_trace; "--quiet";
        "--inject"; "stall=analyze:lion:0.75";
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let daemon_running = ref true in
  at_exit (fun () ->
      if !daemon_running then (try Unix.kill daemon Sys.sigkill with _ -> ()));
  await_socket socket;

  (* 1. Byte identity daemon vs CLI. *)
  let cli_out = path "cli.out" and client_out = path "client.out" in
  let code = run cli [ "analyze"; "lion" ] ~out:cli_out in
  if code <> 0 then die "ndetect analyze lion exited %d" code;
  let code = run cli [ "client"; "--socket"; socket; "lion" ] ~out:client_out in
  if code <> 0 then die "ndetect client exited %d" code;
  let expected = read_file cli_out in
  if read_file client_out <> expected then
    die "daemon answer differs from the CLI's for the same request";
  if expected = "" then die "empty render cannot witness byte identity";

  (* 1b. Byte identity for a sampled-universe request: the daemon must
     thread the universe spec through Api.Request untouched, so the
     estimated table (point [lo,hi] cells) matches the CLI byte for
     byte. A different spec must not alias to the exhaustive answer. *)
  let sampled = [ "--samples"; "150"; "--strata"; "8"; "--confidence"; "0.9" ] in
  let cli_sampled = path "cli-sampled.out" in
  let client_sampled = path "client-sampled.out" in
  let code = run cli ([ "analyze"; "lion" ] @ sampled) ~out:cli_sampled in
  if code <> 0 then die "sampled ndetect analyze lion exited %d" code;
  let sampled_trace = path "sampled.jsonl" in
  let code =
    run cli
      ([ "client"; "--socket"; socket; "lion"; "--trace"; sampled_trace ]
      @ sampled)
      ~out:client_sampled
  in
  if code <> 0 then die "sampled ndetect client exited %d" code;
  let sampled_spans = read_file sampled_trace in
  if not (contains sampled_spans "\"name\":\"est.scan\"") then
    die "sampled trace has no est.scan span";
  if not (contains sampled_spans "est.samples_drawn") then
    die "sampled trace has no est.samples_drawn counter";
  if not (contains sampled_spans "est.strata") then
    die "sampled trace has no est.strata counter";
  let expected_sampled = read_file cli_sampled in
  if read_file client_sampled <> expected_sampled then
    die "daemon sampled answer differs from the CLI's for the same request";
  if expected_sampled = expected then
    die "sampled request aliased to the exhaustive answer";
  if not (contains expected_sampled "sampled") then
    die "sampled render lacks the sampled table marker";

  (* 2. Two identical requests in flight cost one computation. *)
  let trace_prefix = path "pair.jsonl" in
  let code =
    run cli
      [ "client"; "--socket"; socket; "lion"; "--count"; "2";
        "--trace"; trace_prefix ]
      ~out:(path "pair.out")
  in
  if code <> 0 then die "concurrent client pair exited %d" code;
  if read_file (path "pair.out") <> expected then
    die "concurrent pair rendered a different answer";
  let stats = path "stats.out" in
  let code = run cli [ "client"; "--socket"; socket; "--stats" ] ~out:stats in
  if code <> 0 then die "client --stats exited %d" code;
  (match stats_counter stats "serve.dedup_joins" with
  | Some n when n >= 1 -> ()
  | Some n -> die "expected serve.dedup_joins >= 1, got %d" n
  | None -> die "stats output has no serve.dedup_joins");
  let spans i = List.length (begin_lines (Printf.sprintf "%s.%d" trace_prefix i)) in
  let counts = List.sort compare [ spans 1; spans 2 ] in
  if not (List.hd counts = 0 && List.nth counts 1 > 0) then
    die "expected exactly one traced computation, got %d and %d spans"
      (List.hd counts) (List.nth counts 1);

  (* 3. Warm residency: no simulation, no build in the trace. *)
  let warm_trace = path "warm.jsonl" in
  let code =
    run cli
      [ "client"; "--socket"; socket; "lion"; "--trace"; warm_trace ]
      ~out:(path "warm.out")
  in
  if code <> 0 then die "warm client exited %d" code;
  if read_file (path "warm.out") <> expected then
    die "warm request rendered a different answer";
  let warm_begins = begin_lines warm_trace in
  if warm_begins = [] then die "warm request streamed no trace";
  List.iter
    (fun line ->
      if contains line "\"name\":\"sim." || contains line "\"name\":\"table.build\""
      then die "warm request trace still simulates: %s" line)
    warm_begins;

  (* 4. A deadline shorter than the stall is a structured timeout row;
     the daemon survives it. *)
  let code =
    run cli
      [ "client"; "--socket"; socket; "lion"; "--deadline"; "0.3" ]
      ~out:(path "deadline.out")
  in
  if code <> 3 then die "deadline-exceeded client exited %d, want 3" code;
  if not (contains (read_file (path "deadline.out")) "timed out") then
    die "deadline-exceeded render lacks a timeout row";
  let code =
    run cli [ "client"; "--socket"; socket; "--stats" ] ~out:(path "alive.out")
  in
  if code <> 0 then die "daemon did not survive the timeout (stats exited %d)" code;

  (* 5. SIGTERM drains: exit 0, sealed telemetry. *)
  Unix.kill daemon Sys.sigterm;
  let _, status = Unix.waitpid [] daemon in
  daemon_running := false;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> die "daemon exited %d on SIGTERM, want 0" n
  | Unix.WSIGNALED n -> die "daemon killed by signal %d" n
  | Unix.WSTOPPED n -> die "daemon stopped by signal %d" n);
  if Sys.file_exists socket then die "socket file survived the drain";
  List.iter
    (fun trace ->
      let code = run validator [ trace ] ~out:(path "validate.out") in
      if code <> 0 then
        die "validate_trace rejected %s:\n%s" trace
          (read_file (path "validate.out")))
    [
      daemon_trace; sampled_trace; trace_prefix ^ ".1"; trace_prefix ^ ".2";
      warm_trace;
    ];

  (* 6. A failed trace write is reported, not an uncaught exception. *)
  if Sys.file_exists "/dev/full" then begin
    let socket = path "full" and err = path "full.err" in
    let fd_err =
      Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let full =
      Unix.create_process cli
        [| cli; "serve"; "--socket"; socket; "--trace"; "/dev/full"; "--quiet" |]
        Unix.stdin Unix.stdout fd_err
    in
    Unix.close fd_err;
    let full_running = ref true in
    at_exit (fun () ->
        if !full_running then (try Unix.kill full Sys.sigkill with _ -> ()));
    await_socket socket;
    Unix.kill full Sys.sigterm;
    let _, status = Unix.waitpid [] full in
    full_running := false;
    (match status with
    | Unix.WEXITED 3 -> ()
    | Unix.WEXITED n -> die "/dev/full trace daemon exited %d, want 3" n
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      die "/dev/full trace daemon ended by signal %d" n);
    if not (contains (read_file err) "trace /dev/full: ") then
      die "stderr does not name the failed trace file:\n%s" (read_file err)
  end;
  print_endline "serve-smoke: OK"
