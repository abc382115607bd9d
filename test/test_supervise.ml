(* Tests for the supervision layer: cancellation tokens, the error
   taxonomy, supervised execution and deterministic fault injection. *)

module Cancel = Ndetect_util.Cancel
module Uerror = Ndetect_util.Error
module Supervise = Ndetect_util.Supervise

let kind =
  Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (Uerror.kind_to_string k))
    ( = )

(* cancel *)

let test_cancel_flag () =
  let t = Cancel.create () in
  Cancel.poll t;
  Alcotest.(check bool) "not cancelled" false (Cancel.cancelled t);
  Cancel.cancel t;
  Alcotest.(check bool) "cancelled" true (Cancel.cancelled t);
  Alcotest.check_raises "poll raises" Cancel.Cancelled (fun () ->
      Cancel.poll t)

let test_cancel_none_inert () =
  Cancel.cancel Cancel.none;
  Alcotest.(check bool) "none never cancels" false
    (Cancel.cancelled Cancel.none);
  Cancel.poll Cancel.none

let test_cancel_deadline () =
  let t = Cancel.create ~deadline_in:0.02 () in
  Cancel.check_deadline t;
  Unix.sleepf 0.03;
  Alcotest.check_raises "deadline expired" Cancel.Cancelled (fun () ->
      Cancel.check_deadline t);
  (* Once expired, the flag stays set: plain polls raise too. *)
  Alcotest.check_raises "flag sticky" Cancel.Cancelled (fun () ->
      Cancel.poll t)

let test_cancel_bad_deadline () =
  Alcotest.(check bool) "non-positive rejected" true
    (try
       ignore (Cancel.create ~deadline_in:0.0 ());
       false
     with Invalid_argument _ -> true)

(* error taxonomy *)

let test_error_classification () =
  let k e = (Uerror.of_exn e).Uerror.kind in
  Alcotest.check kind "Sys_error" Uerror.Io (k (Sys_error "x"));
  Alcotest.check kind "Unix_error" Uerror.Io
    (k (Unix.Unix_error (Unix.ENOENT, "open", "x")));
  Alcotest.check kind "Failure" Uerror.Invalid_input (k (Failure "x"));
  Alcotest.check kind "Invalid_argument" Uerror.Invalid_input
    (k (Invalid_argument "x"));
  Alcotest.check kind "Cancelled" Uerror.Timeout (k Cancel.Cancelled);
  Alcotest.check kind "Not_found" Uerror.Internal (k Not_found);
  Alcotest.check kind "Injected" Uerror.Injected
    (k (Uerror.Injected_fault "site"))

let test_error_context () =
  let e =
    Uerror.of_exn (Failure "boom")
    |> Uerror.with_context "inner" |> Uerror.with_context "outer"
  in
  let s = Uerror.to_string e in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Helpers.contains_substring s needle))
    [ "outer"; "inner"; "boom" ]

(* supervised execution *)

let test_run_ok () =
  Alcotest.(check bool) "ok" true (Supervise.run (fun _ -> 42) = Ok 42)

let test_run_crash () =
  match Supervise.run (fun _ -> failwith "boom") with
  | Error (Supervise.Crashed e) ->
    Alcotest.check kind "kind" Uerror.Invalid_input e.Uerror.kind;
    Alcotest.(check bool) "describe" true
      (Helpers.contains_substring
         (Supervise.describe (Supervise.Crashed e))
         "crashed")
  | _ -> Alcotest.fail "expected Crashed"

let test_run_timeout () =
  Supervise.set_injection [ ("slow", Supervise.Inject_stall 10.0) ];
  Fun.protect
    ~finally:(fun () -> Supervise.set_injection [])
    (fun () ->
      match
        Supervise.run ~deadline:0.05 (fun cancel ->
            Supervise.inject ~cancel "slow";
            0)
      with
      | Error (Supervise.Timed_out { budget; _ }) ->
        Alcotest.(check bool) "budget recorded" true (budget = 0.05)
      | _ -> Alcotest.fail "expected Timed_out")

(* A unit runs once: neither a deterministic crash nor an I/O error is
   re-run, and the I/O error keeps its Io kind. *)
let test_run_no_retry_for_crash () =
  let attempts = ref 0 in
  let result =
    Supervise.run (fun _ ->
        incr attempts;
        failwith "deterministic")
  in
  Alcotest.(check bool) "crashed" true
    (match result with Error (Supervise.Crashed _) -> true | _ -> false);
  Alcotest.(check int) "single attempt" 1 !attempts

let test_run_io_runs_once () =
  let attempts = ref 0 in
  let result =
    Supervise.run (fun _ ->
        incr attempts;
        raise (Sys_error "flaky"))
  in
  (match result with
  | Error (Supervise.Crashed e) ->
    Alcotest.check kind "Io failure" Uerror.Io e.Uerror.kind
  | _ -> Alcotest.fail "expected Crashed");
  Alcotest.(check int) "single attempt" 1 !attempts

(* fault injection *)

let test_inject_crash_site () =
  Supervise.set_injection [ ("analyze:mc", Supervise.Inject_crash) ];
  Fun.protect
    ~finally:(fun () -> Supervise.set_injection [])
    (fun () ->
      (match
         Supervise.run (fun cancel ->
             Supervise.inject ~cancel "analyze:mc";
             1)
       with
      | Error (Supervise.Crashed e) ->
        Alcotest.check kind "injected kind" Uerror.Injected e.Uerror.kind
      | _ -> Alcotest.fail "expected injected crash");
      (* Other sites are untouched. *)
      Alcotest.(check bool) "other site ok" true
        (Supervise.run (fun cancel ->
             Supervise.inject ~cancel "analyze:lion";
             2)
        = Ok 2))

let test_inject_disabled_noop () =
  Supervise.set_injection [];
  Supervise.inject "anything"

let test_parse_injection_spec () =
  (match Supervise.parse_injection_spec "crash=analyze:mc" with
  | Ok [ ("analyze:mc", Supervise.Inject_crash) ] -> ()
  | _ -> Alcotest.fail "single crash item");
  (match Supervise.parse_injection_spec "stall=analyze:dk27:2.5" with
  | Ok [ ("analyze:dk27", Supervise.Inject_stall s) ] ->
    Alcotest.(check bool) "seconds" true (s = 2.5)
  | _ -> Alcotest.fail "single stall item");
  (match Supervise.parse_injection_spec "crash=a,stall=b:1" with
  | Ok [ ("a", Supervise.Inject_crash); ("b", Supervise.Inject_stall _) ] ->
    ()
  | _ -> Alcotest.fail "two items");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true
        (Result.is_error (Supervise.parse_injection_spec bad)))
    [ "bogus"; "crash="; "stall=x"; "stall=x:notanumber"; "stall=x:-1" ]

(* There is no io= action: a failed write is driven with crash= at its
   site (crash=checkpoint:store), so every io= item is a parse error,
   alone or next to valid items. *)
let test_parse_io_spec () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true
        (Result.is_error (Supervise.parse_injection_spec bad)))
    [
      "io=checkpoint:store:enospc"; "io=unit:avg-mc-0-16:eacces";
      "io=checkpoint:store:eio,crash=a"; "crash=a,io=site:enospc:2";
    ]

(* Runs last: the termination flag is process-wide and sticky by
   design (a SIGTERM'd process never un-terminates), so this test
   would poison any supervised run scheduled after it. *)
let test_request_termination () =
  Alcotest.(check int) "exit code" 4 Supervise.sigterm_exit_code;
  Supervise.request_termination ();
  Alcotest.(check bool) "flag set" true (Supervise.terminating ());
  match Supervise.run (fun _ -> 1) with
  | Error (Supervise.Skipped reason) ->
    Alcotest.(check bool) "skip names SIGTERM" true
      (Helpers.contains_substring reason "SIGTERM")
  | _ -> Alcotest.fail "expected Skipped while terminating"

let () =
  Alcotest.run "supervise"
    [
      ( "cancel",
        [
          Alcotest.test_case "flag" `Quick test_cancel_flag;
          Alcotest.test_case "none inert" `Quick test_cancel_none_inert;
          Alcotest.test_case "deadline" `Quick test_cancel_deadline;
          Alcotest.test_case "bad deadline" `Quick test_cancel_bad_deadline;
        ] );
      ( "error",
        [
          Alcotest.test_case "classification" `Quick
            test_error_classification;
          Alcotest.test_case "context" `Quick test_error_context;
        ] );
      ( "run",
        [
          Alcotest.test_case "ok" `Quick test_run_ok;
          Alcotest.test_case "crash" `Quick test_run_crash;
          Alcotest.test_case "timeout" `Quick test_run_timeout;
          Alcotest.test_case "no retry for crash" `Quick
            test_run_no_retry_for_crash;
          Alcotest.test_case "io crash runs once" `Quick test_run_io_runs_once;
        ] );
      ( "inject",
        [
          Alcotest.test_case "crash site" `Quick test_inject_crash_site;
          Alcotest.test_case "disabled noop" `Quick test_inject_disabled_noop;
          Alcotest.test_case "spec parsing" `Quick test_parse_injection_spec;
          Alcotest.test_case "io spec parsing" `Quick test_parse_io_spec;
        ] );
      ( "termination",
        [
          (* Keep last: sets the sticky process-wide flag. *)
          Alcotest.test_case "request_termination" `Quick
            test_request_termination;
        ] );
    ]
