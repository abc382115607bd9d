(** Wire protocol of the analysis daemon, [ndetect-rpc/1]: a tiny JSON
    codec (self-contained, like [bin/validate_trace]'s reader — no new
    dependencies) plus length-prefixed framing.

    A frame on the socket is

    {v
    <decimal payload length>\n
    <payload bytes>
    v}

    where the payload is one JSON document. The explicit length makes
    framing independent of the payload's contents (embedded newlines in
    escaped strings never split a frame) and lets the reader reject
    oversized frames before allocating. Both sides of the protocol —
    {!Serve} and its client — speak only through this module, and the
    encoder/decoder pair is round-trip exact ([of_string (to_string j)
    = Ok j]), which the qcheck suite pins. *)

val protocol : string
(** ["ndetect-rpc/1"] — quoted by the server's hello frame; a client
    must refuse to proceed on a mismatch. *)

(** JSON documents. Integers are kept exact ([Int], not a float), since
    the protocol carries counters and byte sizes; [Float] covers the
    deadline/budget fields. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control characters);
    the inverse of the decoder's unescaping. *)

val to_string : json -> string
(** Compact (single-line) rendering. *)

val of_string : string -> (json, string) result
(** Parse one JSON document; trailing garbage is an error. Numbers with
    a fraction, exponent, or outside OCaml's [int] range decode as
    [Float]; anything else decodes as [Int]. Arrays and objects nested
    deeper than {!max_depth} are an [Error], found before the parser
    recurses past the bound. *)

val max_depth : int
(** Deepest accepted nesting of arrays and objects (256). *)

(** {2 Object helpers} *)

val member : string -> json -> json option
(** Field lookup; [None] for a missing field or a non-object. *)

val to_int : json -> int option
(** [Int n] (and integral [Float]) as [n]. *)

val to_str : json -> string option

(** {2 Framing} *)

val max_frame : int
(** Upper bound on an accepted payload (16 MiB): a corrupt or hostile
    length prefix is rejected instead of allocated. *)

val write_frame : out_channel -> json -> unit
(** Write one length-prefixed frame and flush. *)

val read_payload : in_channel -> (string, string) result
(** Read one frame's payload bytes without decoding them; [Error] on
    EOF, a malformed length line or an oversized frame. After [Ok] the
    channel sits at the next frame whatever the payload holds, so a
    reader can answer an undecodable payload and keep going. *)

val read_frame : in_channel -> (json, string) result
(** {!read_payload} then {!of_string}: [Error] on EOF, a malformed
    length line, an oversized frame, or an undecodable payload. *)

val frame : json -> string
(** The exact bytes {!write_frame} writes — for tests and for writers
    that serialize whole frames under their own lock. *)
