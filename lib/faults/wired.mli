(** Wired bridging faults — the classic alternative semantics to the
    paper's four-way model, provided for the untargeted-fault-model
    ablation.

    A wired bridge joins two lines so that {e both} carry the AND
    (wired-AND, typical for NMOS-style shorts) or the OR (wired-OR) of
    their fault-free values. Candidates are the same as for the four-way
    model: non-feedback pairs of multi-input gate outputs; one fault per
    pair and semantics. *)

module Netlist = Ndetect_circuit.Netlist

type semantics =
  | Wired_and
  | Wired_or

type t = {
  a : int;  (** First bridged node. *)
  b : int;  (** Second bridged node; [a < b] in enumeration order. *)
  semantics : semantics;
}

val equal : t -> t -> bool

val to_string : Netlist.t -> t -> string
(** E.g. ["AND(9,10)"]. *)

val pp : Netlist.t -> Format.formatter -> t -> unit

val enumerate : Netlist.t -> semantics -> t array
(** One fault per pair of {!Bridge.pairs}, in its order. *)
