(** Evaluation of an {e arbitrary, explicit} test set: per-target detection
    counts under both definitions of "n detections", and untargeted
    (bridging) fault coverage.

    Unlike {!Detection_table}, nothing here enumerates the input universe:
    only the given vectors are simulated (bit-parallel), so this works for
    circuits whose input count makes exhaustive analysis impossible —
    exactly the use the paper's Section 4 anticipates for evaluating "the
    relative effectiveness of different n-detection test generation
    methods". *)

module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Bitvec = Ndetect_util.Bitvec

type t

val evaluate :
  ?targets:Stuck.t array ->
  ?untargeted:Bridge.t array ->
  Netlist.t ->
  vectors:int array ->
  t
(** [targets] defaults to the collapsed stuck-at list, [untargeted] to the
    four-way bridging enumeration. Duplicate vectors are dropped (a test
    set contains no duplicated test). *)

val vectors : t -> int array
(** The deduplicated test set, original order. *)

val target_count : t -> int
val untargeted_count : t -> int

val detections_def1 : t -> int array
(** Per-target number of distinct tests detecting the fault. *)

val detections_def2 : t -> int array
(** Per-target greedy count of pairwise-different detections
    (Definition 2); computed on first use and cached. *)

val is_n_detection : t -> n:int -> def2:bool -> bool
(** Whether every target reaches [n] detections under the chosen
    definition. Without exhaustive knowledge a target with {e zero}
    detections cannot be told apart from a redundant fault, so such
    targets are skipped; use {!Detection_table} when exactness matters. *)

val stuck_coverage : t -> float
(** Percentage of targets with at least one detection. *)

val bridge_coverage : t -> float
(** Percentage of untargeted faults detected. *)
