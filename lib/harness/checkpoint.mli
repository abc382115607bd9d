(** Crash-safe persistence of the reproduction's per-circuit results.

    A checkpoint is a directory of independent entries, one file per
    circuit: the failure-free {!Api.Response.t} of its request, keyed by
    circuit and section list (see the driver). Every entry is stamped
    with the format {!version} and the run parameters it depends on;
    {!load} silently ignores entries whose stamp does not match the
    current run, so a checkpoint directory can never leak results across
    incompatible configurations. Each entry is one
    {!Ndetect_util.Record} (kind [checkpoint], keyed by the entry key),
    so a truncated or bit-flipped entry fails its digest before anything
    is unmarshalled and loads as [None]. Writes go through
    {!Fs.write_atomic}, so a kill at any instant leaves either the
    previous entry or the new one — never a torn file.

    There is one payload type, so an entry is never read back at a type
    other than the one it was written at; a layout change bumps
    {!version}, which invalidates every older entry. *)

type stamp = {
  version : int;
  seed : int;
  tier : string;
  k : int;
  k2 : int;
}

val version : int
(** Current checkpoint format version (2: one response per circuit). *)

type t

val create : dir:string -> stamp:stamp -> t
(** Open (creating directories as needed) a checkpoint rooted at
    [dir]. *)

val dir : t -> string

val store : t -> key:string -> Api.Response.t -> unit
(** Persist an entry atomically. Passes the ["checkpoint:store"]
    injection site ({!Ndetect_util.Supervise.inject}) before writing, so
    a failed write can be simulated end to end. Raises [Sys_error] or
    [Unix.Unix_error] when the write fails, and
    {!Ndetect_util.Error.Injected_fault} at an injected crash; the
    driver records either as a failure and keeps going. *)

val load : t -> key:string -> Api.Response.t option
(** Read an entry back; [None] when absent, unreadable, damaged, or
    stamped by a different version or run configuration. Never
    raises. *)

val mem : t -> key:string -> bool
(** Whether a loadable, stamp-matching entry exists. *)
