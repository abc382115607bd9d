(** Full-response fault dictionaries and cause-effect diagnosis.

    The paper motivates n-detection test sets by the unmodeled defects
    they catch; once a part fails on the tester, the classic next step is
    to {e diagnose} the failure against a stuck-at dictionary even when
    the physical defect (e.g. a bridge) is not in the modeled fault set.
    This module builds the dictionary and ranks candidates by response
    match, so the examples can show a four-way bridging "defect" being
    located through its stuck-at neighbours — and that higher-n test sets
    sharpen the diagnosis. *)

module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge

type response = int array
(** [response.(t)] is the failing-output mask of test [t] (bit [k] set iff
    primary output [k] differs from fault-free). Circuits are limited to
    62 outputs. *)

type t
(** A dictionary: the predicted response of every modeled fault to a fixed
    test set. *)

val build : Netlist.t -> vectors:int array -> faults:Stuck.t array -> t

val vectors : t -> int array
val fault_count : t -> int
val fault : t -> int -> Stuck.t
val response : t -> int -> response

(** {2 Observations (simulated defective parts)} *)

val respond_stuck : t -> Stuck.t -> response
val respond_bridge : t -> Bridge.t -> response

(** {2 Diagnosis} *)

type verdict = {
  fault_index : int;
  score : float;  (** Mean Tanimoto similarity over failing tests, in
                      [0, 1]; [1.0] is a perfect response match. *)
}

val diagnose : t -> observed:response -> verdict list
(** Candidates ranked by decreasing score; faults whose predicted response
    is empty while the observation fails (or vice versa) score low
    naturally. Ties keep dictionary order. *)

val distinguishable_pairs : t -> int
(** Number of fault pairs with distinct responses — a diagnosability
    metric that grows with n-detection level. *)
