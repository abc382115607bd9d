(** The one checksummed record container behind every persisted file:
    table-cache entries ([.tbl]) and checkpoint entries ([.ckpt]).

    {v
    "ndetect-<kind>\n"
    "<version> <key> <len> <fnv-hex>\n"
    zero pad to an 8-byte boundary
    payload (len bytes)
    v}

    [kind] names what the payload is (["table"] or ["checkpoint"]),
    [key] binds the record to its owner (a content fingerprint or an
    entry name), and the digest is {!digest} of the
    payload. The pad puts the payload at an 8-byte-aligned file offset,
    so a reader can map it and verify it in one C pass
    ({!Kernel.verify_region}). This module is the only code that writes
    or parses a record header; a reader trusts a payload only after
    every field has been checked. *)

val version : int
(** Container version (4), written into every header. It is above
    every format version an older store ever wrote, so an older binary
    classifies these files as coming from the future and spares them. *)

type error =
  | Future  (** Written by a newer version: not ours to judge or delete. *)
  | Damaged
      (** Anything else: wrong magic or kind, older version, key
          mismatch, malformed header, wrong size, non-zero pad, digest
          mismatch, truncation. *)

val digest : string -> int64
(** Lane-split FNV-1a (offset basis [0xcbf29ce484222325], prime
    [0x100000001b3]) of the string read as little-endian 64-bit words,
    the last word zero-padded: lane [k] of four digests the words at
    indices congruent to [k] (mod 4), and the result folds the lane
    digests, in order, into a fifth FNV-1a chain. On a payload of
    62-bit words it equals what {!Kernel.verify_region} returns over
    the same bytes mapped; changing either side is a format break. *)

val encode : kind:string -> key:string -> string -> string
(** The full record bytes. Raises [Invalid_argument] when [kind] or
    [key] is empty or contains a space or newline. *)

val decode : kind:string -> key:string -> string -> (string, error) result
(** The payload of a record's full bytes, after checking magic and kind,
    version, key, exact size, zero pad and digest, in that order. Never
    raises. *)

type span = { off : int; len : int; digest : int64 }
(** Where a record's payload lies in its file, and its declared
    digest. *)

val locate : kind:string -> key:string -> in_channel -> (span, error) result
(** {!decode}'s checks off a channel positioned at the start of a
    record file, except the digest: it reads only the header and pad,
    and leaves the payload to the caller (who maps it and compares the
    digest). Never raises. *)
