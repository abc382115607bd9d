(** Differential fault simulation over the exhaustive universe.

    For each fault, only the transitive fanout cone of the injection site
    is re-evaluated, against the precomputed fault-free table; a vector
    detects the fault iff some primary output differs. The result of
    [detection_set] is exactly the paper's [T(h)] for the fault [h].

    The batched entry points, which every detection table is built
    with, compute the same sets with one propagation per fanout-free
    region instead of one per fault. The per-fault entry points stay as
    their reference and serve the callers that need single faults
    ([Test_eval], [Defect_level], [Transition_analysis]). Bridge sets
    are built from stem stuck-at sets
    ({!Ndetect_core.Detection_table.bridge_classes}); the per-fault
    {!bridge_detection_set} is their check twin. *)

module Bitvec = Ndetect_util.Bitvec
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge

val stuck_detection_set : Good.t -> Stuck.t -> Bitvec.t
(** [T(f)] for a single stuck-at fault. *)

val bridge_detection_set : Good.t -> Bridge.t -> Bitvec.t
(** [T(g)] for a four-way bridging fault: vectors that activate the bridge
    ({e in the fault-free circuit}: victim = a1 and aggressor = a2) and
    propagate the forced victim flip to an output. *)

val stuck_detection_sets :
  ?cancel:Ndetect_util.Cancel.token -> Good.t -> Stuck.t array -> Bitvec.t array
(** Equal to mapping {!stuck_detection_set}, computed with one
    propagation per fanout-free-region stem
    ({!Ndetect_circuit.Netlist.ffr_partition}): the root is flipped in
    every lane at once, and each member fault's mask is recovered by
    word-parallel critical path tracing — activation word AND entry-pin
    sensitization AND path-to-root sensitization AND root output diff.
    Exact (not the classic CPT stem approximation): within a region the
    fault effect travels a unique path, and reconvergence beyond the
    root is handled by the real propagation. Parallelism is batch-major:
    each task owns a contiguous batch range for all faults and writes
    disjoint words of the result sets, so output is identical for every
    domain count by construction. [cancel] is polled between parallel
    jobs, so a supervised caller's deadline is honoured mid-simulation.

    The per-fault {!stuck_detection_set} is its reference: the qcheck
    properties in [test/test_sim.ml] and [ndetect check]
    ({!Ndetect_check.Campaign.check_suite}) compare the two. *)

val debug_corrupt_sensitization : bool ref
(** Test-only sabotage hook: when set, the batched path complements every
    in-region sensitization word, silently corrupting traced detection
    sets. The differential campaign ([ndetect check]) must catch this —
    the self-test lives in [test/test_check.ml]. Always [false] in
    production. *)

val wired_detection_set : Good.t -> Ndetect_faults.Wired.t -> Bitvec.t
(** [T(w)] for a wired-AND / wired-OR bridge: both bridged lines are
    forced to the AND/OR of their fault-free values and the difference is
    propagated through the union of the two fanout cones. *)

val wired_detection_sets :
  ?cancel:Ndetect_util.Cancel.token ->
  Good.t -> Ndetect_faults.Wired.t array -> Bitvec.t array

val detects_stuck : Good.t -> Stuck.t -> vector:int -> bool
(** Single-vector convenience used by tests (simulates only one batch). *)

(** {2 Work accounting}

    Simulation work is counted in the {!Ndetect_util.Telemetry}
    registry (always on; one atomic add per fault or group):

    - ["sim.detection_sets"] — detection sets formed: full simulations
      (stuck, bridge and wired) plus, added by the
      factored bridge build, one per bridge product.
    - ["sim.cone_propagations"] — per-batch cone propagation passes
      handed to the kernel (a pass may still short-circuit when the
      seed is not activated in that batch). A batched call adds
      [regions * batches] — the headline saving versus one per fault.
    - ["sim.stem_regions"] — fanout-free regions traced by the batched
      calls (regions containing at least one simulated fault).
    - ["sim.cpt_faults"] — member faults recovered by critical path
      tracing.
    - ["sim.stem_fallbacks"] — faults routed to the per-fault cone path
      instead (wired bridges force two seeds, so the single-stem trace
      does not apply).

    All of these count deterministic work, so totals are identical for
    every domain count. *)
