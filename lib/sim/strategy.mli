(** The fault-simulation strategy, for the records that name it.

    Detection tables are always simulated by stem-region critical path
    tracing ({!Fault_sim.stuck_detection_sets}); the per-fault cone
    simulation ({!Fault_sim.stuck_detection_set}) is kept only as its
    reference. Benchmark records stamp {!current_name}. *)

val current_name : unit -> string
(** ["stem"], always. *)
