(** Three-valued (0 / 1 / X) logic.

    Used for partially-specified tests: Definition 2 of the paper builds the
    test [tij] that is specified only in the bits where [ti] and [tj]
    agree, and asks whether [tij] detects a fault under pessimistic
    three-valued simulation. *)

type t =
  | Zero
  | One
  | X  (** Unknown / unspecified. *)

val equal : t -> t -> bool

val of_bool : bool -> t

val to_bool_opt : t -> bool option
(** [Some b] for a binary value, [None] for [X]. *)

val not_ : t -> t

val and_ : t -> t -> t
(** Kleene conjunction: [0 AND x = 0], [1 AND X = X]. *)

val or_ : t -> t -> t

val xor : t -> t -> t

val refines : t -> t -> bool
(** [refines a b] iff [a] is compatible with [b] when [b] may be less
    specified: [refines v X = true], [refines v v = true]. Monotonicity of
    simulation is stated with respect to this order. *)

val common : t -> t -> t
(** [common a b] keeps the value where [a] and [b] are equal and binary,
    and is [X] elsewhere — exactly the construction of the test [tij] in
    Definition 2. *)

val pp : Format.formatter -> t -> unit

val to_char : t -> char
(** ['0'], ['1'] or ['-']. *)

val of_char : char -> t
(** Accepts ['0'], ['1'], ['-'], ['x'], ['X']. Raises [Invalid_argument]
    otherwise. *)
