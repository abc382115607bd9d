(** Persistent cache of detection tables.

    Building a detection table is the dominant cost of every analysis:
    one differential fault simulation per fault over the exhaustive
    universe. The table itself, though, is a pure function of the
    netlist and the build parameters — so it is cached on disk, one
    versioned binary file per (netlist, parameters) fingerprint, and a
    warm run performs {e zero} fault simulations
    (the ["sim.detection_sets"] telemetry counter stays flat).

    Each file is one {!Ndetect_util.Record} of kind ["table"]: a
    checksummed header, then a payload of integer meta fields followed
    by the detection-set words, flat and 8-byte aligned, exactly as the
    intersection kernels sweep them. A warm load [Unix.map_file]s the
    whole meta+words payload once, verifies the record digest with one
    C pass over the mapping, and adopts zero-copy
    {!Ndetect_util.Bitvec} views over the map — no Marshal, no copies,
    and the cache-blocked target layout comes back pre-built (see the
    format comment in [table_cache.ml] and [docs/formats.md]).

    Files are written atomically (temp file + rename,
    {!Fs.write_atomic}) and validated defensively on load — the record
    header (magic, version, key, exact size, zero pad), then FNV-1a
    plus a 62-bit range check over every payload word {e as read from
    the file} (a mapped bigarray read cannot see a flipped bit 63; the
    C pass over the raw mapping can), then the consistency of the meta
    fields. {e Any} failure — missing or truncated file, a flipped bit
    anywhere, an older format, parameter or netlist mismatch — silently
    degrades to a cache miss and a fresh build, bumps the
    ["table_cache.corrupt"] counter, and deletes the damaged file
    (entries written by a {e newer} format version are left
    untouched). *)

module Detection_table = Ndetect_core.Detection_table
module Netlist = Ndetect_circuit.Netlist

val version : int
(** On-disk format version, {!Ndetect_util.Record.version}; bumping it
    invalidates every cached table. *)

val key :
  ?keep_undetectable_targets:bool ->
  ?collapse:bool ->
  ?model:Detection_table.untargeted_model ->
  Netlist.t ->
  string
(** Content fingerprint (MD5 hex, filename-safe) of the netlist —
    structure and node names — and the table build parameters. Defaults
    mirror {!Detection_table.build}. *)

val table :
  dir:string ->
  ?keep_undetectable_targets:bool ->
  ?collapse:bool ->
  ?model:Detection_table.untargeted_model ->
  ?cancel:Ndetect_util.Cancel.token ->
  Netlist.t ->
  Detection_table.t
(** Load the table for this netlist + parameters from [dir], or build it
    and {!store} it there. Every call loads afresh; servers holding
    tables hot layer their own store over {!load_sized}. *)

val store : dir:string -> key:string -> Detection_table.t -> unit
(** Persist a table under [dir] (created if needed). Forces the table's
    {!Detection_table.target_layout} so warm loads adopt the blocked rows
    straight from the map. Best-effort: an unusable directory (a path
    through a regular file, no write permission, a full disk) leaves the
    table unstored and raises nothing, so a cache can never fail the
    analysis that feeds it. *)

val load : dir:string -> key:string -> Netlist.t -> Detection_table.t option
(** Restore a cached table; [None] is a cache miss (absent, invalid, or
    stale in any way). The restored table is rebuilt over [net] with no
    fault simulation; its detection sets are zero-copy views into a
    private (copy-on-write) map of the cache file, and
    ["table.mmap_hits"] / ["table.mmap_bytes"] count the adoption. *)

val load_sized :
  dir:string -> key:string -> Netlist.t -> (Detection_table.t * int) option
(** {!load}, also reporting the bytes backing the restored table: the
    mapped payload size (meta + words sections). This is the figure a
    resident store charges against its memory budget — what keeping the
    table hot actually pins. *)

val hits : unit -> int

val misses : unit -> int
(** Process-wide {!load} outcome counters, for benches and tests. Thin
    accessors over the {!Ndetect_util.Telemetry} counters
    ["table_cache.hits"] and ["table_cache.misses"]; the companion
    ["table_cache.corrupt"] counter (no accessor) counts the subset of
    misses where a cache file existed but failed validation. *)
