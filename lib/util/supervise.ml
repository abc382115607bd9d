type failure =
  | Timed_out of { budget : float; spans : string list }
  | Crashed of Error.t
  | Skipped of string

let describe = function
  | Timed_out { budget; spans = [] } ->
    Printf.sprintf "timed out after %gs" budget
  | Timed_out { budget; spans } ->
    Printf.sprintf "timed out after %gs (in %s)" budget
      (String.concat " > " (List.rev spans))
  | Crashed err -> "crashed: " ^ Error.to_string err
  | Skipped reason -> "skipped: " ^ reason

exception Injected of string

(* Teach the taxonomy about injected faults (before any built-in rule
   can misfile them as Internal). *)
let () =
  Error.register (function
    | Injected site -> Some (Error.Injected, "at " ^ site)
    | _ -> None)

(* Graceful termination: the flag is an Atomic (the handler may run on
   any safe point) and the in-flight tokens are tracked so the current
   supervised unit unwinds at its next poll instead of running to
   completion against a dying process. *)

let sigterm_exit_code = 4

let terminating_flag = Atomic.make false

let active_tokens : Cancel.token list Atomic.t = Atomic.make []

let rec track_token token =
  let old = Atomic.get active_tokens in
  if not (Atomic.compare_and_set active_tokens old (token :: old)) then
    track_token token

let rec untrack_token token =
  let old = Atomic.get active_tokens in
  let updated = List.filter (fun t -> t != token) old in
  if not (Atomic.compare_and_set active_tokens old updated) then
    untrack_token token

let terminating () = Atomic.get terminating_flag

let request_termination () =
  Atomic.set terminating_flag true;
  List.iter Cancel.cancel (Atomic.get active_tokens)

let sigterm_installed = Atomic.make false

let install_sigterm () =
  if not (Atomic.exchange sigterm_installed true) then
    match
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> request_termination ()))
    with
    | () -> ()
    | exception (Invalid_argument _ | Sys_error _) ->
      (* Platform without SIGTERM handling: degrade to the default
         disposition rather than failing the caller. *)
      Atomic.set sigterm_installed false

type injection =
  | Inject_crash
  | Inject_stall of float
  | Inject_io of { error : Unix.error; mutable remaining : int }

let plan : (string * injection) list ref = ref []

let set_injection items = plan := items

let inject ?cancel site =
  match List.assoc_opt site !plan with
  | None -> ()
  | Some Inject_crash -> raise (Injected site)
  | Some (Inject_stall seconds) ->
    let until = Clock.now () +. seconds in
    while Clock.now () < until do
      (match cancel with
      | Some token -> Cancel.check_deadline token
      | None -> ());
      Unix.sleepf 0.005
    done
  | Some (Inject_io io) ->
    if io.remaining > 0 then begin
      io.remaining <- io.remaining - 1;
      raise (Unix.Unix_error (io.error, "inject", site))
    end

let unix_error_of_name = function
  | "enospc" -> Some Unix.ENOSPC
  | "eacces" -> Some Unix.EACCES
  | "eio" -> Some Unix.EIO
  | "eintr" -> Some Unix.EINTR
  | _ -> None

let parse_injection_spec spec =
  let parse_item item =
    match String.index_opt item '=' with
    | None -> Error (Printf.sprintf "bad injection item %S (no '=')" item)
    | Some eq -> (
      let action = String.sub item 0 eq in
      let arg = String.sub item (eq + 1) (String.length item - eq - 1) in
      match action with
      | "crash" ->
        if arg = "" then Error "crash= needs a site name"
        else Ok (arg, Inject_crash)
      | "io" -> (
        (* io=SITE:ERROR[:COUNT]; the site itself may contain ':'
           (e.g. unit:avg-mc-0-16), so parse from the right. *)
        let fields = String.split_on_char ':' arg in
        let with_parts site err count =
          match (unix_error_of_name (String.lowercase_ascii err), count) with
          | Some error, Some remaining when remaining >= 1 && site <> "" ->
            Ok (site, Inject_io { error; remaining })
          | _ ->
            Error
              (Printf.sprintf
                 "io item %S needs SITE:ERROR[:COUNT] (enospc, eacces, eio, \
                  eintr; COUNT >= 1)"
                 item)
        in
        match List.rev fields with
        | count :: err :: (_ :: _ as site_rev)
          when int_of_string_opt count <> None ->
          with_parts
            (String.concat ":" (List.rev site_rev))
            err
            (int_of_string_opt count)
        | err :: (_ :: _ as site_rev) ->
          with_parts (String.concat ":" (List.rev site_rev)) err (Some 1)
        | _ ->
          Error
            (Printf.sprintf "io item %S needs SITE:ERROR[:COUNT]" item))
      | "stall" -> (
        match String.rindex_opt arg ':' with
        | None ->
          Error (Printf.sprintf "stall item %S needs SITE:SECONDS" item)
        | Some colon -> (
          let site = String.sub arg 0 colon in
          let secs =
            String.sub arg (colon + 1) (String.length arg - colon - 1)
          in
          match float_of_string_opt secs with
          | Some s when s > 0.0 && site <> "" -> Ok (site, Inject_stall s)
          | Some _ | None ->
            Error (Printf.sprintf "bad stall duration %S" secs)))
      | other -> Error (Printf.sprintf "unknown injection action %S" other))
  in
  let items = String.split_on_char ',' spec |> List.filter (( <> ) "") in
  if items = [] then Error "empty injection spec"
  else
    List.fold_left
      (fun acc item ->
        match acc, parse_item item with
        | Error _, _ -> acc
        | Ok done_, Ok parsed -> Ok (parsed :: done_)
        | Ok _, Error e -> Error e)
      (Ok []) items
    |> Result.map List.rev

let run ?deadline ?(retries = 0) ?(backoff = 0.1)
    ?(is_retryable = Error.retryable) f =
  let rec attempt remaining delay =
    if terminating () then Error (Skipped "terminating: SIGTERM received")
    else begin
      let token = Cancel.create ?deadline_in:deadline () in
      track_token token;
      (* A SIGTERM between the flag check and the tracking still
         cancels: re-check after registration so the token cannot be
         missed by [request_termination]. *)
      if terminating () then Cancel.cancel token;
      let detached =
        Fun.protect
          ~finally:(fun () -> untrack_token token)
          (fun () ->
            match f token with
            | value -> Ok value
            | exception e ->
              let backtrace = Printexc.get_raw_backtrace () in
              Error (e, backtrace))
      in
      match detached with
      | Ok value -> Ok value
      | Error (Cancel.Cancelled, _) ->
        Error
          (Timed_out
             {
               budget = Option.value deadline ~default:0.0;
               spans = Telemetry.error_spans Cancel.Cancelled;
             })
      | Error (e, backtrace) ->
        let err = Error.of_exn ~backtrace e in
        (* With telemetry live, name the span tree the crash unwound
           through (e.g. "analyze mc > table.build") as a context frame. *)
        let err =
          match Telemetry.error_spans e with
          | [] -> err
          | spans ->
            Error.with_context
              ("in " ^ String.concat " > " (List.rev spans))
              err
        in
        if remaining > 0 && is_retryable err && not (terminating ()) then begin
          Unix.sleepf delay;
          attempt (remaining - 1) (delay *. 2.0)
        end
        else Error (Crashed err)
    end
  in
  attempt (max 0 retries) (max 0.0 backoff)
