(** Four-way bridging faults — the paper's untargeted fault set [G].

    A bridging fault [(l1, a1, l2, a2)] is {e activated} by an input vector
    for which line [l1] carries [a1] and line [l2] carries [a2] in the
    fault-free circuit; the fault then forces [l1] to the complement of
    [a1]. For every unordered pair of lines this yields four faults —
    hence "four-way".

    Following the paper, candidate lines are outputs (stems) of multi-input
    gates, and feedback pairs (one gate in the transitive fanout of the
    other) are excluded.

    The fault list is held flat: {!pairs} lists the non-feedback pairs,
    and bridge [j] is variant [j mod 4] of pair [j / 4], so a list of
    |G| faults costs two ints per four faults. {!nth} builds a record
    on demand. *)

module Netlist = Ndetect_circuit.Netlist

type t = {
  victim : int;  (** Node id of the forced line [l1]. *)
  victim_value : bool;  (** [a1]: activation value of the victim. *)
  aggressor : int;  (** Node id of [l2]. *)
  aggressor_value : bool;  (** [a2]. *)
}

val equal : t -> t -> bool

val to_string : Netlist.t -> t -> string
(** ["(l1,a1,l2,a2)"] with node names. *)

val pp : Netlist.t -> Format.formatter -> t -> unit

val candidate_nodes : Netlist.t -> int array
(** Stems of multi-input gates, in topological order. *)

type pairs = {
  first : int array;  (** Node id of each pair's earlier candidate. *)
  second : int array;  (** Node id of each pair's later candidate. *)
}
(** The non-feedback candidate pairs [(u, v)], in lexicographic order of
    their positions in {!candidate_nodes} ([u] before [v]). *)

val pairs : Netlist.t -> pairs
(** One reverse-topological sweep computes, per node, the bitset of
    candidate indices in its transitive fanout; a pair is non-feedback
    iff neither candidate's bitset holds the other. Equal to filtering
    every candidate pair with {!is_feedback} (the reference enumeration
    in [Ndetect_check.Ref_table]). *)

val count : pairs -> int
(** Bridges over the pairs: four per pair. *)

val victim : pairs -> int -> int
val victim_value : int -> bool
val aggressor : pairs -> int -> int

val aggressor_value : int -> bool
(** The fields of bridge [j] without building it. Pair [(u, v)]
    contributes [(u,0,v,1); (v,0,u,1); (u,1,v,0); (v,1,u,0)], in that
    order — the order implied by the paper's example fault indices. *)

val nth : pairs -> int -> t
(** Bridge [j] as a record. *)

val enumerate : Netlist.t -> t array
(** Every bridge of {!pairs}, in order: [nth] over [0 .. count - 1]. *)

val is_feedback : Netlist.t -> int -> int -> bool
(** Whether one node lies in the transitive fanout of the other. *)

val debug_drop_pair : bool ref
(** Test-only sabotage hook: when set, {!pairs} leaves out the first
    non-feedback pair, so its four bridges vanish from every fault list
    built on it. The differential campaign, whose reference enumerates
    with {!is_feedback}, must report it
    ({!Ndetect_check.Campaign.check_net} arms it under [mutate]).
    Always [false] in production. *)
