(** Randomized differential cross-checking campaigns.

    A campaign draws random circuits ({!Ndetect_suite.Random_circuit}),
    runs the optimized stack and the naive reference side by side, and
    diffs every derived quantity: fault-free output values, kept fault
    lists, every detection set, every [N]/[M] table cell, the full
    [nmin] distribution and its witnesses, sampled Definition 2
    verdicts (pairwise, per chain, and through the packed
    [first_extending] / [extend_many] passes), a complete Procedure 1 replay (detection counts, test
    sets, per-fault Definition 1 counts, Definition 2 chains),
    and the sampled estimator's [dmin] over a small stratified sample
    ({!check_sampled}). Any divergence is shrunk to a minimal circuit
    spec.

    [mutate] flips one bit of one optimized detection set right after
    the table is built ({!Ndetect_core.Detection_table.corrupt_target_set}),
    drops the first non-feedback pair from the bridge list
    ({!Ndetect_faults.Bridge.debug_drop_pair}; the reference enumerates
    with {!Ndetect_faults.Bridge.is_feedback}), inverts one aggressor row
    of the factored bridge build
    ({!Ndetect_core.Detection_table.debug_flip_aggressor}), makes the
    bridge content index trust a truncated hash
    ({!Ndetect_core.Detection_table.debug_trust_hash}), corrupts
    one sampled target set before the sampled scan
    ({!Ndetect_estimate.Estimate.debug_corrupt_scan}) and misreads one
    lane group of the packed Definition 2 passes
    ({!Ndetect_core.Definition2.debug_corrupt_lanes}) — simulated bugs
    proving the checker reports divergences rather than vacuously
    passing. *)

module Random_circuit = Ndetect_suite.Random_circuit
module Procedure1 = Ndetect_core.Procedure1
module Netlist = Ndetect_circuit.Netlist

type divergence = {
  cell : string;  (** E.g. ["N(f3)"], ["M(g7,f2)"], ["d(2,g5) k=4"]. *)
  expected : string;  (** Reference value. *)
  actual : string;  (** Optimized value. *)
}

type failure = {
  spec : Random_circuit.spec;
  divergences : divergence list;  (** First {!max_divergences} found. *)
  divergence_count : int;  (** Total, including truncated ones. *)
}

type report = {
  circuits_run : int;
  failures : failure list;  (** In discovery order. *)
  reproducer : (Random_circuit.spec * divergence) option;
      (** Shrunk spec + its first divergence, for the first failure. *)
}

val max_divergences : int
(** Per-circuit cap on recorded divergences (counting continues). *)

val check_net :
  ?mutate:bool -> ?proc_mode:Procedure1.mode -> seed:int -> Netlist.t ->
  divergence list
(** Cross-check one circuit. [seed] drives the Procedure 1 config and
    the mutation site; [proc_mode] overrides the replayed mode
    (defaults to a seed-determined choice so campaigns exercise
    both). *)

val check_sampled :
  ?mutate:bool -> seed:int -> Netlist.t -> divergence list
(** The sampled case on its own: [Estimate.analyze] (48 samples, 4
    strata, sampler seed [seed]) against {!Ref_worst.nmin_of_sets} over
    the same sampled sets, one ["dmin(gN)"] cell per untargeted fault.
    [mutate] arms {!Ndetect_estimate.Estimate.debug_corrupt_scan} for
    the one analysis. Part of {!check_net}. *)

val check_spec : ?mutate:bool -> Random_circuit.spec -> divergence list
(** {!check_net} on the regenerated spec. *)

val shrink :
  ?mutate:bool -> Random_circuit.spec -> Random_circuit.spec * divergence
(** Greedily minimize a diverging spec (fewer gates, then fewer inputs,
    then a smaller seed) while it keeps diverging. Raises
    [Invalid_argument] if the spec does not diverge. *)

val max_pi_limit : int
(** [12]: the largest [max_pi] {!run} accepts (the oracle is
    exhaustive). *)

val run :
  ?mutate:bool -> circuits:int -> seed:int -> max_pi:int -> unit -> report
(** Run a campaign of [circuits] random circuits with at most [max_pi]
    primary inputs. Deterministic in [seed]. Raises [Invalid_argument]
    unless [circuits >= 1] and [1 <= max_pi <= max_pi_limit]. *)

val render : report -> string
(** Human-readable summary (campaign size, each failing spec with its
    first divergences, the shrunk reproducer). *)

(** {2 Small-tier sweep}

    The paper's own small-tier circuits ({!Ndetect_suite.Registry.of_tier}
    [Small]), through the production table build (batched stem-region
    simulation, C kernel) against the per-fault references: each kept
    fault and detection set against {!Ndetect_sim.Fault_sim.stuck_detection_set}
    / {!Ndetect_sim.Fault_sim.bridge_detection_set} (bridges listed
    by {!Ref_table.bridges}), each [N(f)]
    against {!Ref_kernel.count} of the reference set, and each
    [nmin(g)] of {!Ndetect_core.Worst_case.compute} against a double
    loop of {!Ref_kernel} counts over the reference sets. [ndetect
    check] runs it before the random campaign. *)

type circuit_failure = {
  circuit : string;  (** Registry name. *)
  first : divergence list;  (** First {!max_divergences} found. *)
  count : int;  (** Total, including truncated ones. *)
}

type suite_report = {
  checked : int;  (** Circuits swept. *)
  divergent : circuit_failure list;  (** In registry order. *)
}

val check_suite : ?mutate:bool -> unit -> suite_report
(** Sweep every small-tier circuit. [mutate] flips one bit of one
    target set of every table right after it is built
    ({!Ndetect_core.Detection_table.corrupt_target_set}), which the
    sweep must report. *)

val render_suite : suite_report -> string
(** Human-readable summary: circuits swept, each divergent circuit with
    its first divergences. *)
