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

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f arr] splits indices into contiguous chunks, one domain
    per chunk. [f] must be safe to run concurrently (pure, or writing
    only to data it owns). With [domains <= 1] or fewer than 2 elements
    per domain it simply runs sequentially. If any item raises, every
    domain is still joined, then the lowest-index item's exception is
    re-raised in the caller with its backtrace; a chunk stops at its
    own first failure, so items after it in the chunk are not run. *)

val init : ?domains:int -> int -> (int -> 'b) -> 'b array
(** Parallel [Array.init]. *)
