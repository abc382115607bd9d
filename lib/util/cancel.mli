(** Cooperative cancellation tokens.

    A token carries a cancellation flag (an [Atomic.t], safe to share
    across domains) and an optional deadline on the monotonic clock.
    Long-running loops call {!poll} at natural iteration boundaries;
    once the flag is set — externally via {!cancel} or internally when
    the deadline passes — the next poll raises {!Cancelled}, unwinding
    the computation. Polling is cheap (one atomic load; the clock is
    only consulted every few hundred polls), so poll points can be
    liberal. *)

exception Cancelled

type token

val none : token
(** A shared token that is never cancelled and has no deadline. Safe as
    the default for [?cancel] arguments. *)

val create : ?deadline_in:float -> unit -> token
(** [create ~deadline_in:secs ()] makes a token whose deadline is [secs]
    seconds from now on the monotonic clock ({!Clock.now}), so stepping
    the wall clock neither fires nor delays it. Without it, the token
    only cancels when {!cancel} is called. [deadline_in] must be
    positive. *)

val deadline : token -> float option
(** The token's absolute deadline ({!Clock.now} time), if any. *)

val remaining : token -> float option
(** Seconds until the deadline — negative once it has passed, [None]
    when the token has no deadline. Does not set the flag; use
    {!check_deadline} to expire. A server dequeuing work uses this to
    hand the remaining (not the original) budget to the compute step. *)

val cancel : token -> unit
(** Set the flag. Every domain polling this token raises {!Cancelled} at
    its next poll. Idempotent; {!none} is silently left untouched. *)

val cancelled : token -> bool
(** Whether the flag is set (does not consult the clock). *)

val poll : token -> unit
(** Raise {!Cancelled} if the token is cancelled, setting the flag first
    when the deadline has newly expired. *)

val check_deadline : token -> unit
(** Force a clock check (poll only looks every few hundred calls); raises
    {!Cancelled} when expired. Useful just before starting an expensive
    non-pollable step. *)
