(** The campaign work ledger: a directory of small, independently
    crash-safe records through which the coordinator and its worker
    subprocesses coordinate without any channel but the filesystem.

    Record kinds (one file each, all in the ledger directory):

    - [campaign.rec] — the {!Spec.campaign}, written once at creation;
      every process re-reads it and derives the same unit universe.
    - [units-<gen>.rec] — the unit list of one generation, appended by
      the coordinator as earlier generations complete.
    - [sealed.rec] — the total generation count; once present, the
      unit universe is final and workers may exit when it is drained.
    - [claim-<id>.rec] — exclusive claim of a unit by one worker
      (atomically linked into place, so creation is the lock and the
      content is never seen torn); deleted on completion or lease
      expiry, so live claims are exactly the in-flight units.
    - [hb-<worker>.rec] — heartbeat; freshness is the file's mtime.
    - [result-<id>.rec] — a unit's computed {!Spec.result} plus the
      worker that produced it.
    - [fail-<id>-<k>.rec] — one structured failure of an attempt at the
      unit (worker death, crash, hang); slot [k] makes records from
      concurrent reporters collision-free.
    - [poison-<id>.rec] — quarantine: the unit crashed
      [max_unit_retries] attempts and must not be claimed again.

    Every record (heartbeats aside, which carry no payload) is one
    {!Ndetect_util.Record}: its kind is the file's kind ([units],
    [claim], [result], ...), its key the owning unit's
    {!Spec.fingerprint} (the campaign's own fingerprint for
    [campaign.rec], [units-*.rec] and [sealed.rec]), and magic,
    version, key, length, pad and payload digest are all verified
    before the payload is unmarshalled. A truncated or bit-flipped record is
    therefore never trusted: the reader counts it on
    ["shard.ledger_corrupt"], deletes the damaged file (self-healing —
    a corrupt claim or result simply makes the unit claimable again)
    and reports the record absent. All writes are atomic
    ({!Ndetect_harness.Fs.write_atomic}), so a SIGKILL at any
    instant leaves whole records or none. *)

type t

val corrupt_counter : string
(** ["shard.ledger_corrupt"]. *)

val create : dir:string -> Spec.campaign -> (t, string) result
(** Open a ledger rooted at [dir] (created if needed) for this
    campaign, writing [campaign.rec] and the generation-0 (plan) unit
    list if absent. Resuming is the same call: an existing ledger whose
    recorded campaign matches is reused in place, claims of dead
    runs and all, while a mismatched campaign is an [Error] — a ledger
    directory never mixes parameter sets. *)

val open_existing : dir:string -> (t, string) result
(** Open a ledger some coordinator already created ([Error] when
    [campaign.rec] is missing or invalid, or was written under another
    {!Spec.format_version}, whose result records have another shape).
    Workers use this; they never write campaign or unit lists. *)

val dir : t -> string
val campaign : t -> Spec.campaign

val tables_dir : t -> string
(** The campaign-shared {!Ndetect_harness.Table_cache} directory
    ([<dir>/tables]). *)

(** {2 Unit universe} *)

val write_units : t -> gen:int -> Spec.t list -> unit
val read_units : t -> gen:int -> Spec.t list option

val units : t -> Spec.t list
(** Concatenation of every consecutive readable generation from 0, in
    generation order — the deterministic enumeration order that the
    merge and all scans use. *)

val generations : t -> int
(** Number of consecutive readable generations. *)

val seal : t -> total_gens:int -> unit
val sealed_gens : t -> int option

(** {2 Claims, heartbeats, leases} *)

val claim : t -> worker:string -> Spec.t -> bool
(** Atomically claim the unit ([false] when another claim exists). *)

val release : t -> Spec.t -> unit
(** Delete the unit's claim (idempotent). *)

val claimant : t -> Spec.t -> (string * float) option
(** The claiming worker and the claim's age in seconds. *)

val claims : t -> (string * string * float) list
(** All live claims as [(unit id, worker, age seconds)]. *)

val heartbeat : t -> worker:string -> unit
(** Touch the worker's heartbeat (called from the worker's heartbeat
    domain, so it must be — and is — domain-safe). *)

val heartbeat_age : t -> worker:string -> float option
(** Seconds since the worker's last heartbeat; [None] before the
    first one (how the coordinator tells a spawn failure from a
    crashed worker). *)

(** {2 Results, failures, poison} *)

val write_result :
  t -> worker:string -> Spec.t -> Spec.result -> [ `Stored | `Lost_race ]
(** Record the unit's result; the first result wins and later
    (speculative) ones report [`Lost_race]. Results are bit-identical
    across executors by construction, so the race is benign — the
    winner determines only attribution. *)

val read_result : t -> Spec.t -> (string * Spec.result) option
(** [(worker, result)]. *)

val record_failure : t -> worker:string -> Spec.t -> string -> unit
(** Append a structured failure row for one attempt at the unit. *)

val failures : t -> Spec.t -> string list
(** Failure descriptions in slot order. *)

val poison : t -> Spec.t -> reasons:string list -> unit

val poisoned : t -> Spec.t -> string list option
(** The quarantine reasons, if the unit is poisoned. *)

val resolved : t -> Spec.t -> bool
(** The unit needs no further work: it has a result or is poisoned. *)
