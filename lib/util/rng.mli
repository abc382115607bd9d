(** Deterministic pseudo-random number generator (SplitMix64).

    All randomized procedures in this project (notably Procedure 1 of the
    paper) draw from this generator so that every experiment is exactly
    reproducible from a seed. *)

type t
(** Mutable generator state: the 64-bit SplitMix state, kept unboxed in
    8 bytes, so a draw allocates nothing. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state: the copy draws what the
    original would, without advancing it. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val stream : seed:int -> int -> t
(** [stream ~seed k] is the generator the [(k+1)]-th {!split} of
    [create ~seed] returns (so [k = 0] is the first split), computed in
    O(1) without the root. Requires [k >= 0]. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [0, bound). Requires [bound > 0].
    Uses rejection sampling, hence exactly uniform. Allocates nothing. *)

val bool : t -> bool
(** Uniform coin flip. *)

val float : t -> float
(** Uniform draw in [0, 1). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)
