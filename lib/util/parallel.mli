(** Deterministic parallel array map over OCaml 5 domains.

    Fault simulation is embarrassingly parallel (each fault reads the
    shared fault-free table and writes only its own result slot), so the
    heavy per-circuit passes use this helper. Results are positionally
    identical to the sequential map regardless of scheduling. *)

val default_domains : unit -> int
(** [max 1 (recommended_domain_count - 1)], capped at 8. *)

val max_domains : int
(** 64: the most domains a request may ask for
    ({!Ndetect_harness.Api.Request.validate} rejects more). One call
    runs at most [max_domains - 1] spawned domains next to the caller's,
    well inside the runtime's limit on live domains. If a spawn fails
    anyway (say, several calls at once), the call joins the domains it
    already spawned and re-raises the failure. *)

val try_map_array :
  ?domains:int -> ('a -> 'b) -> 'a array -> ('b, Error.t) result array
(** Crash-isolated variant: an exception raised while mapping item [i]
    is captured (with its backtrace) as [Error] in slot [i]; every other
    item still completes and returns [Ok]. Cancellations surface the
    same way, as {!Error.Timeout} entries. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f arr] splits indices into contiguous chunks, one domain
    per chunk. [f] must be safe to run concurrently (pure, or writing
    only to data it owns). With [domains <= 1] or fewer than 2 elements
    per domain it simply runs sequentially. A thin wrapper over
    {!try_map_array}: if any item failed, the lowest-index exception is
    re-raised in the caller (after all domains have been joined). *)

val init : ?domains:int -> int -> (int -> 'b) -> 'b array
(** Parallel [Array.init]. *)
