(** Process-wide observability: named counters and gauges, nested timing
    spans, and pluggable event sinks.

    The registry answers "how much work did this run do" (cone
    propagations, kernel calls, cache hits, ...) and the spans answer
    "where did the time go", without either ever changing a result:
    instrumentation is side-effect-free observation of deterministic
    work, so counter totals are identical for every [--domains] value
    and every cache state that performs the same computation.

    {b Overhead discipline.} Counters are always on — each instrumented
    hot path performs at most one {!Counter.add} per coarse unit of work
    (per fault simulated, per scan, per lookup), never one per inner
    loop iteration. Spans are off unless at least one sink is
    registered; a disabled {!with_span} costs a single atomic load
    before tail-calling the wrapped function. *)

(** {1 Clock} *)

val now : unit -> float
(** {!Clock.now}: seconds from an arbitrary origin on the monotonic
    clock, so span durations can never be negative, nor stretched or
    shrunk when the wall clock is stepped. *)

(** {1 Counters and gauges}

    Both live in one process-wide registry keyed by name.
    [create name] is idempotent: every call with the same name returns
    a handle on the same cell, so instrumented modules can create their
    counters at module-initialization time without coordination.

    Naming convention: [<subsystem>.<what>], lowercase, dot-separated —
    e.g. ["sim.cone_propagations"], ["worst.kernel_calls"],
    ["table_cache.hits"]. *)

module Counter : sig
  type t

  val create : string -> t
  (** Register (or look up) the monotone counter [name]. *)

  val name : t -> string

  val incr : t -> unit

  val add : t -> int -> unit
  (** One atomic fetch-and-add; safe from any domain. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val create : string -> t
  (** Register (or look up) the gauge [name]. A gauge is a last-write
      -wins level (e.g. the domain count in use), not a running sum. *)

  val name : t -> string
  val set : t -> int -> unit
  val value : t -> int
end

val counters : unit -> (string * int) list
(** Snapshot of every registered counter and gauge, sorted by name. *)

val counter_value : string -> int
(** Current value of the named counter/gauge, or [0] when none is
    registered under that name. *)

val delta :
  before:(string * int) list -> after:(string * int) list ->
  (string * int) list
(** Per-name difference [after - before] between two {!counters}
    snapshots, keeping only the names that changed (names absent from
    [before] count from 0). The driver samples this around each
    supervised unit to report per-circuit work. *)

(** {1 Spans} *)

type span = {
  id : int;  (** Process-unique, allocated in begin order. *)
  parent : int option;
      (** Innermost span open on the same domain at begin time. Spans
          begun on a freshly spawned worker domain are roots. *)
  name : string;
  args : (string * string) list;
}

type event =
  | Span_begin of { span : span; time : float }
  | Span_end of {
      span : span;
      time : float;
      duration : float;
      end_args : (string * string) list;
          (** Arguments known only once the span's work is done
              ({!with_span}'s [end_args]); [[]] otherwise. *)
    }
      (** Every begin is matched by exactly one end (also when the
          wrapped function raises); [duration >= 0]. *)

type sink

val register_sink : (event -> unit) -> sink
(** Install an event consumer. The callback must be domain-safe: spans
    opened inside parallel workers emit from those domains. *)

val unregister_sink : sink -> unit
(** Remove a sink. Spans begun while the sink was registered still
    deliver their end event to it, keeping every sink's stream
    balanced. Idempotent. *)

val enabled : unit -> bool
(** Whether at least one sink is registered (i.e. spans are live). *)

val with_span :
  ?args:(string * string) list ->
  ?end_args:('a -> (string * string) list) ->
  string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span. With no sink
    registered this is one atomic load plus a call to [f]. Exceptions
    propagate unchanged (with their backtrace), after the span is
    closed and the open-span stack recorded for {!error_spans}.
    [end_args] derives further arguments from [f]'s result; they ride
    on the end event (a span that raises has none). *)

val current_spans : unit -> string list
(** Names of the spans open on the calling domain, innermost first.
    [[]] when disabled or outside any span. *)

val error_spans : exn -> string list
(** The spans (innermost first) that were open on this domain when
    [exn] was first raised through {!with_span}, or [[]] if unknown.
    Consuming: a second call for the same pending exception returns
    [[]]. The supervisor uses this to annotate failures with where in
    the span tree the crash happened. *)

(** {1 Sinks} *)

(** In-memory collector: accumulates completed spans and renders the
    aggregated tree as an aligned profile table (per distinct span
    path: call count, total and mean duration). Domain-safe. *)
module Memory : sig
  type t

  val attach : unit -> t
  (** Create a collector and register it as a sink. *)

  val detach : t -> unit
  (** Unregister. The collected data stays readable. *)

  val spans : t -> (span * float) list
  (** Completed spans with their durations, in completion order. *)

  val render : t -> string
  (** Aggregated profile table, children indented under parents. Spans
      still open render with their subtree but no timing row. *)
end

(** JSON Lines trace sink ([ndetect-trace/1]): one object per line —
    a [meta] header on attach, [begin]/[end] records per span event,
    and a [counters] footer on detach. Timestamps are {!now} relative
    to attach time. Writes are mutex-serialized, so each line is whole
    and parent begins precede child begins. The schema is enforced by
    [bin/validate_trace] as part of [dune runtest]. *)
module Jsonl : sig
  type t

  val attach : path:string -> t
  (** Open (truncate) [path], write the meta line and register. Raises
      [Sys_error] when [path] cannot be opened. Emitting a span never
      raises: the first failed write ends the trace, and {!detach}
      reports it. *)

  val attach_writer : (string -> unit) -> t
  (** Like {!attach} but every record line (without the newline) is
      handed to the given writer instead of a file — the form a server
      uses to stream one [ndetect-trace/1] trace per connection or per
      request. The writer is called under the sink's own mutex, so lines
      arrive whole and in order; it must not re-enter telemetry. *)

  val detach : t -> unit
  (** Write the counters footer, unregister, flush and close (the
      writer form only emits the footer). Idempotent. For the file form,
      raises the [Sys_error] of the first failed write, after the file
      is closed. *)

  val empty_trace : unit -> string list
  (** A complete, schema-valid [ndetect-trace/1] document with zero
      spans: the meta line plus a counters footer snapshotted now. This
      is the trace of a request that performed no work of its own (a
      deduplicated join riding on another request's computation) —
      handed out ready-made rather than by registering a sink, so spans
      from concurrently executing work can never leak into it. *)
end
