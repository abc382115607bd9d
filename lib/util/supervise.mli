(** Supervised execution of one unit of work: wall-clock budget via
    cooperative cancellation, crash capture as a structured {!Error.t},
    and a deterministic fault-injection hook for self-tests.

    A unit runs once. The supervisor never lets an exception escape and
    never re-runs the work: the outcome is always an explicit [Ok] or
    {!failure}, so callers (the reproduction driver, the serve daemon)
    can record partial results and keep going. *)

type failure =
  | Timed_out of { budget : float; spans : string list }
      (** The work polled its {!Cancel.token} past the deadline.
          [spans] is the {!Telemetry} span stack (innermost first) that
          was open when the cancellation unwound — empty when telemetry
          is disabled. *)
  | Crashed of Error.t
      (** When telemetry is live, the error's context frames include
          the open span tree at the raise point
          (["in analyze mc > table.build"]). *)
  | Skipped of string
      (** Not attempted (e.g. a dependency already failed, or the
          process received SIGTERM). *)

val describe : failure -> string
(** Short human-readable form: ["timed out after 30s"],
    ["crashed: parse error: ..."], ["skipped: ..."]. *)

val run : ?deadline:float -> (Cancel.token -> 'a) -> ('a, failure) result
(** [run f] calls [f token] once and converts its fate into a result:
    [Ok] with its value, [Timed_out] when it unwound by cancellation,
    [Crashed] on any other exception.

    [deadline] is the wall-clock budget in seconds. [f] must poll the
    token it receives ({!Cancel.poll}) for the budget to be enforced;
    every analysis loop in [lib/core] does. Omitted = no deadline.

    When {!terminating} is set (SIGTERM), [f] is not started and the
    result is [Skipped]. *)

(** {2 Graceful termination (SIGTERM)}

    A cooperative process-wide shutdown flag. {!install_sigterm}
    installs a handler that sets the flag and cancels the tokens of
    every in-flight {!run}, so the current unit of work unwinds at its
    next poll point; already-persisted checkpoint records are never
    lost because all stores are atomic. Long-running drivers (the
    reproduction driver, the serve daemon) consult {!terminating}
    between units and exit with {!sigterm_exit_code}. *)

val sigterm_exit_code : int
(** [4]: the distinct exit status of a run cut short by SIGTERM (0 =
    clean, 2 = usage, 3 = completed with failed units). *)

val install_sigterm : unit -> unit
(** Install (idempotently) the SIGTERM handler. No-op on platforms
    without [Sys.sigterm] handling. *)

val terminating : unit -> bool
(** Whether termination was requested (by SIGTERM or
    {!request_termination}). *)

val request_termination : unit -> unit
(** Set the flag and cancel in-flight supervised tokens, exactly as
    the signal handler does (exposed for tests). *)

(** {2 Deterministic fault injection}

    A process-wide plan maps site names to actions. Instrumented code
    calls {!inject} with its site name; with no plan installed (the
    default) this is a no-op costing one list lookup on an empty list.
    {!Ndetect_harness.Api.run} names its sites ["analyze:<circuit>"],
    ["table5:<circuit>"] and ["table6:<circuit>"], and the checkpoint
    store adds ["checkpoint:store"] before each write, so a failed
    checkpoint write can be driven end to end, not just compute
    crashes. *)

type injection =
  | Inject_crash  (** Raise {!Error.Injected_fault} at the site. *)
  | Inject_stall of float  (** Busy-wait (polling) for the given seconds. *)

val set_injection : (string * injection) list -> unit
(** Install the plan (replacing any previous one). [[]] disables
    injection. *)

val inject : ?cancel:Cancel.token -> string -> unit
(** Consult the plan for this site. [Inject_stall] polls [cancel] while
    waiting, so a stalled site still honours its deadline. *)

val parse_injection_spec :
  string -> ((string * injection) list, string) result
(** Parse a command-line plan: comma-separated items, each
    ["crash=SITE"] or ["stall=SITE:SECONDS"], e.g.
    ["crash=analyze:mc,stall=analyze:lion:2"]. Any other action is an
    [Error]. *)
