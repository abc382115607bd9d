(** Crash-safe filesystem helpers shared by the on-disk stores
    ({!Checkpoint}, {!Table_cache}) and CSV output. *)

val mkdir_recursive : string -> unit
(** [mkdir -p]: creates missing ancestors; concurrent creation of the
    same directory is not an error (EEXIST is swallowed rather than
    racing a [file_exists] check). *)

val write_atomic : path:string -> string -> unit
(** Write file contents via temp-file-plus-rename in the target's
    directory, so a kill at any instant leaves the old file or the new
    one, never a torn one. A failed write or final flush raises
    [Sys_error] before the rename; the channel is closed and the temp
    file removed on every error path. *)
