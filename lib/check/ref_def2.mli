(** Independent Definition 2 oracle.

    Two tests [ti], [tj] are "sufficiently different" with respect to a
    fault [f] iff their common partial test [tij] (specified only where
    they agree) does {e not} detect [f] under pessimistic three-valued
    simulation. The optimized oracle ({!Ndetect_core.Definition2})
    simulates up to 62 pairs at once on two-rail words and re-evaluates
    only the fault's fanout cone; this one re-simulates the whole
    circuit for one pair at a time. *)

module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck

type t

val create : Netlist.t -> Stuck.t array -> t

val different : t -> fi:int -> int -> int -> bool
(** Definition 2 verdict for two universe vectors (false when equal). *)

val chain_extend : t -> fi:int -> chain:int list -> int -> bool
(** Whether [v] is pairwise different from every test in [chain]. *)
