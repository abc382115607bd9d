type kind = Parse | Invalid_input | Io | Timeout | Injected | Internal

type t = {
  kind : kind;
  message : string;
  context : string list;
  backtrace : string option;
}

let make ?(context = []) kind message =
  { kind; message; context; backtrace = None }

exception Injected_fault of string

let classify = function
  | Injected_fault site -> (Injected, "at " ^ site)
  | Sys_error m -> (Io, m)
  | Unix.Unix_error (err, fn, arg) ->
    ( Io,
      Printf.sprintf "%s: %s%s" fn (Unix.error_message err)
        (if arg = "" then "" else " (" ^ arg ^ ")") )
  | Invalid_argument m -> (Invalid_input, m)
  | Failure m -> (Invalid_input, m)
  | Cancel.Cancelled -> (Timeout, "cancelled")
  | Not_found -> (Internal, "Not_found")
  | Stack_overflow -> (Internal, "stack overflow")
  | Out_of_memory -> (Internal, "out of memory")
  | e -> (Internal, Printexc.to_string e)

let of_exn ?backtrace e =
  let kind, message = classify e in
  {
    kind;
    message;
    context = [];
    backtrace = Option.map Printexc.raw_backtrace_to_string backtrace;
  }

let with_context frame t = { t with context = frame :: t.context }

let kind_to_string = function
  | Parse -> "parse error"
  | Invalid_input -> "invalid input"
  | Io -> "i/o error"
  | Timeout -> "timeout"
  | Injected -> "injected fault"
  | Internal -> "internal error"

let to_string t =
  String.concat ": "
    (t.context @ [ kind_to_string t.kind; t.message ])

let pp ppf t =
  Format.pp_print_string ppf (to_string t);
  match t.backtrace with
  | Some bt when String.trim bt <> "" ->
    Format.fprintf ppf "@\n%s" (String.trim bt)
  | Some _ | None -> ()
