(** [ndetect serve]: a batched analysis daemon over {!Api}.

    The daemon listens on a Unix-domain socket and speaks
    {!Rpc.protocol} ([ndetect-rpc/1]): length-prefixed JSON frames. Per
    connection it sends a [hello] frame, then answers [request] and
    [stats] frames until the peer hangs up. A well-framed payload that
    does not decode (bad JSON, nesting past {!Rpc.max_depth}) gets an
    [error] frame and the connection stays open. A [request] carries an
    {!Api.Request.t}; the answer streams the request's own
    [ndetect-trace/1] telemetry ([trace] frames), one [row] frame per
    computed section, one [failure] frame per failed supervised unit,
    and a final [done] frame whose [render] field is byte-identical to
    what the CLI prints for the same request — both sides print
    {!Api.Response.render} of the same value.

    {b Execution model.} Requests are admitted into a bounded queue and
    computed one at a time by a single executor thread (the compute
    itself parallelizes across domains via the request's [domains]
    field — serialization is what makes each streamed trace exactly one
    request's spans). A full queue answers [overloaded] immediately
    instead of accepting unbounded latency. Identical requests (equal
    canonical {!Api.Request.to_json} documents, deadline excluded)
    in flight at the same time are {e deduplicated}: the second joins
    the first's computation, receives the same response, and its trace
    is the schema-valid empty document — it did no work. Counted on
    ["serve.dedup_joins"].

    {b Deadlines.} A request's [deadline] starts at admission, not at
    dequeue: a token is minted when the request is queued, and the
    executor hands the {e remaining} budget to {!Api.run}. A request
    that spent its whole budget queued comes back as a structured
    timeout row; it never kills the daemon.

    {b Residency.} With a cache directory configured, decoded detection
    tables stay resident in a bounded content-addressed store (backed
    by the shared mappings {!Table_cache.load_sized} reports the size
    of), evicted least-recently-used past [resident_budget]. Counters:
    ["serve.requests"], ["serve.dedup_joins"], ["serve.evictions"],
    ["serve.overloaded"], and the gauges ["serve.resident_bytes"] /
    ["serve.resident_tables"].

    {b Shutdown.} {!stop} (or SIGTERM in {!run}) stops accepting,
    drains the queue — under termination each drained unit returns a
    structured [skipped] failure instead of computing — closes every
    connection and removes the socket file. *)

type config = {
  socket : string;  (** Unix-domain socket path (note the ~100-byte OS limit). *)
  cache_dir : string option;
      (** Detection-table cache; also the backing of the resident
          store. A request's own [cache_dir] wins when set. *)
  queue_capacity : int;  (** Admitted-but-not-started requests. *)
  resident_budget : int;  (** Resident-table budget, bytes. *)
  quiet : bool;  (** Suppress the stderr lifecycle lines. *)
}

val default_config : socket:string -> config
(** queue_capacity 16, resident_budget 256 MiB, no cache, not quiet. *)

type t

val start : config -> (t, string) result
(** Bind the socket (replacing a stale socket file) and spawn the
    listener and executor threads. [Error] for an unusable socket path
    (too long for [sockaddr_un], bind failure). *)

val stop : t -> unit
(** Graceful shutdown as described above. Blocks until the listener and
    executor have exited and the socket file is removed. Idempotent. *)

val run : config -> int
(** Daemon main: {!start}, then sleep until SIGTERM
    ({!Ndetect_util.Supervise.terminating}) and {!stop}. Returns the
    process exit code: 0 after a clean drain, 1 if the server could not
    start. *)
