(** Pessimistic three-valued simulation, used for Definition 2: a test
    [tij] that is specified only where two tests agree detects a fault [f]
    iff, under 3-valued simulation of both the fault-free and the faulty
    circuit, some primary output has a binary value in both and the values
    differ. *)

module Ternary = Ndetect_logic.Ternary
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck

val eval : Netlist.t -> Ternary.t array -> Ternary.t array
(** Fault-free ternary values of all nodes. *)

val eval_with_stuck : Netlist.t -> Stuck.t -> Ternary.t array -> Ternary.t array

val detects_stuck : Netlist.t -> Stuck.t -> Ternary.t array -> bool
(** Whether the (partially specified) test definitely detects the fault. *)

val common_test : Ternary.t array -> Ternary.t array -> Ternary.t array
(** The test [tij] of Definition 2: specified where both agree. *)

val test_of_vector : Netlist.t -> int -> Ternary.t array
(** Fully specified ternary test from a universe vector. *)
