(** Reference circuit evaluation: one vector at a time, nothing shared.

    This is the ground-truth half of the differential checker. It
    deliberately reimplements gate semantics, fault injection and
    three-valued evaluation from first principles — no bit-parallel
    words, no cone schedules, no caches, and no dependence on
    [Netlist.topo_order] (evaluation is a memoized recursion over
    fanins, so even a wrong topological order in the optimized stack
    could not leak in here). Costs are irrelevant: everything is
    [O(universe × nodes)] per fault and only ever run on small random
    circuits. *)

module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge

val input_bit : Netlist.t -> vector:int -> int -> bool
(** Value of input node [id] under the given universe vector (first
    input = most significant bit, as in the builder contract). *)

val good_values : Netlist.t -> int -> int -> bool
(** [good_values net v id]: fault-free value of node [id] under vector
    [v]. Recomputed from scratch on every call. *)

val good_outputs : Netlist.t -> int -> bool array
(** Fault-free primary-output values, in observation order. *)

val detects_stuck : Netlist.t -> Stuck.t -> int -> bool
(** Does vector [v] observe the stuck-at fault at some primary output
    (good and faulty values differ there)? *)

val detects_bridge : Netlist.t -> Bridge.t -> int -> bool
(** Four-way bridging fault: activated iff the fault-free values of
    victim and aggressor match the activation pair, in which case the
    victim is forced to the complement and the whole circuit is
    re-evaluated. *)

(** {2 Three-valued evaluation (Definition 2)} *)

type tri = T0 | T1 | TX

val tri_of_vector : Netlist.t -> int -> tri array
(** Fully specified per-input ternary assignment for a universe
    vector. *)

val common : tri array -> tri array -> tri array
(** The partial test [tij]: specified where both agree, [TX]
    elsewhere. *)

val detects_stuck3 : Netlist.t -> Stuck.t -> tri array -> bool
(** Pessimistic three-valued detection: some primary output is binary
    in both the fault-free and faulty evaluation, and the two values
    differ. *)
