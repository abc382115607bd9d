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

type injection = Inject_crash | Inject_stall of float

let plan : (string * injection) list ref = ref []

let set_injection items = plan := items

let inject ?cancel site =
  match List.assoc_opt site !plan with
  | None -> ()
  | Some Inject_crash -> raise (Error.Injected_fault site)
  | Some (Inject_stall seconds) ->
    let until = Clock.now () +. seconds in
    while Clock.now () < until do
      (match cancel with
      | Some token -> Cancel.check_deadline token
      | None -> ());
      Unix.sleepf 0.005
    done

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

let run ?deadline f =
  if terminating () then Error (Skipped "terminating: SIGTERM received")
  else begin
    let token = Cancel.create ?deadline_in:deadline () in
    track_token token;
    (* A SIGTERM between the flag check and the tracking still cancels:
       re-check after registration so the token cannot be missed by
       [request_termination]. *)
    if terminating () then Cancel.cancel token;
    let outcome =
      Fun.protect
        ~finally:(fun () -> untrack_token token)
        (fun () ->
          match f token with
          | value -> Ok value
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    match outcome with
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
          Error.with_context ("in " ^ String.concat " > " (List.rev spans)) err
      in
      Error (Crashed err)
  end
