(** Structured error values: the failure taxonomy shared by the
    supervision layer and the harness.

    Converting an exception with {!of_exn} classifies it into a {!kind},
    keeps the message and optionally the backtrace, and lets callers
    stack human-readable context frames with {!with_context}. *)

type kind =
  | Parse  (** Malformed input text or file. *)
  | Invalid_input  (** Bad argument, configuration or state. *)
  | Io  (** Filesystem or operating-system error. *)
  | Timeout  (** Cooperative cancellation / deadline exceeded. *)
  | Injected  (** Deliberate fault from {!Supervise.inject}. *)
  | Internal  (** Everything else (a genuine bug or resource limit). *)

type t = {
  kind : kind;
  message : string;
  context : string list;  (** Outermost frame first. *)
  backtrace : string option;
}

exception Injected_fault of string
(** Raised by {!Supervise.inject} at a crash site, carrying the site
    name; classified as [Injected]. *)

val make : ?context:string list -> kind -> string -> t

val of_exn : ?backtrace:Printexc.raw_backtrace -> exn -> t
(** Classify an exception: {!Injected_fault} maps to [Injected];
    [Sys_error] and [Unix.Unix_error] to [Io]; [Invalid_argument] and
    [Failure] to [Invalid_input]; {!Cancel.Cancelled} to [Timeout];
    anything else to [Internal]. *)

val with_context : string -> t -> t
(** Push an outermost context frame, e.g. ["analyze mc"]. *)

val kind_to_string : kind -> string

val to_string : t -> string
(** ["context: ...: kind: message"] on one line (no backtrace). *)

val pp : Format.formatter -> t -> unit
(** Like {!to_string}, plus the backtrace when present. *)
