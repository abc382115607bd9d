(** The worker side of a campaign: claim → compute → record, in a loop,
    with a heartbeat domain ticking while the main domain computes.

    A worker owns no campaign state. It learns everything from the
    ledger, writes everything back to the ledger, and can be SIGKILLed
    at any instant without corrupting it (all records are atomic, and a
    torn claim heals on the next read). Several workers — spawned by
    one coordinator or many, on this run or a resumed one — cooperate
    through claim exclusivity alone. *)

val default_lease_secs : float
(** [30.0] — also the default of the coordinator and the CLI. *)

val execute :
  ?retries:int ->
  Ledger.t ->
  worker:string ->
  Spec.t ->
  [ `Completed | `Failed of string | `Terminating ]
(** Run one {e already-claimed} unit under
    {!Ndetect_util.Supervise.run} ([retries] defaults to 2, so an
    injected or transient {!Ndetect_util.Error.Io} on the compute or the
    result write is retried with backoff), record the result — or a
    structured failure row — and release the claim. [`Terminating]
    means SIGTERM unwound the attempt; the claim is released (that
    {e is} the flush: the unit returns whole to the pool) and nothing
    is recorded against the unit. The coordinator's in-process
    degradation path calls this directly. *)

val drained : Ledger.t -> bool
(** The ledger is sealed, every sealed generation is readable, and
    every unit of them is resolved: a worker may exit. The seal and the
    generation count are read before the unit list, so the list holds
    every sealed generation. *)

val run :
  ?retries:int ->
  ?lease_secs:float ->
  ?poll_interval:float ->
  dir:string ->
  worker_id:string ->
  unit ->
  int
(** The [ndetect worker] main loop; returns the process exit code.
    Installs the SIGTERM handler, opens the ledger, heartbeats at
    [lease_secs / 4] from a dedicated domain, and repeatedly sweeps the
    unit list in enumeration order claiming and executing unresolved
    units. Exits [0] when the ledger is sealed and drained,
    {!Ndetect_util.Supervise.sigterm_exit_code} on SIGTERM, [1] when
    the ledger cannot be opened. *)
