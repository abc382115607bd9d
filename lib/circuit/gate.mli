(** Gate kinds and their evaluation over the three value domains used in the
    project: plain booleans, bit-parallel words, and ternary values. *)

type kind =
  | Input  (** Primary input; has no fanins. *)
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor

val equal_kind : kind -> kind -> bool

val to_string : kind -> string

val of_string : string -> kind option
(** Case-insensitive. *)

val arity_ok : kind -> int -> bool
(** Whether a gate of this kind may have the given number of fanins.
    [Input] and constants take 0; [Buf]/[Not] take 1; the rest take 2 or
    more. *)

val eval_bool : kind -> bool array -> bool
(** Raises [Invalid_argument] for [Input] or an arity violation. *)

val eval_word : kind -> Ndetect_logic.Word.t array -> Ndetect_logic.Word.t
(** Lane-wise evaluation over bit-parallel words. *)

val eval_ternary :
  kind -> Ndetect_logic.Ternary.t array -> Ndetect_logic.Ternary.t
(** Pessimistic (Kleene) three-valued evaluation. *)

val controlling_value : kind -> bool option
(** The fanin value that determines the output alone ([Some false] for
    AND/NAND, [Some true] for OR/NOR, [None] otherwise). Drives fault
    collapsing and the ATPG backtrace. *)

val inversion : kind -> bool
(** Whether the output inverts the "natural" result (NAND, NOR, XNOR,
    NOT). *)
