(** Definition 2 of the paper: two tests [ti], [tj] count as different
    detections of a fault [f] only if the partially specified test [tij]
    (specified where [ti] and [tj] agree) does {e not} detect [f] under
    three-valued simulation.

    Values are two-rail ternary words: a [one] and a [zero] rail per node,
    bit [j] of each saying whether lane [j] is definitely 1 or definitely
    0 (neither: X). Lane [j] of a pass holds [tij] for one vector pair, so
    {!chain_extend} checks a vector against up to 62 chain members with
    one fault-free pass (over the gates the fault's observing outputs
    depend on) and one faulty pass over the fault's fanout cone. Both
    run flat schedules, built once per net and once per fault on first
    use. Nothing is memoized: a [t] owns mutable scratch rails, so it
    must stay within one domain. *)

module Detection_table := Detection_table

type t

val create : Detection_table.t -> t
(** Pairwise verdicts for the table's target faults, indexed as in the
    table. *)

val of_faults :
  Ndetect_circuit.Netlist.t -> Ndetect_faults.Stuck.t array -> t
(** Same, for an explicit fault list — usable without an exhaustive
    detection table (i.e. for circuits of any input count, as long as a
    vector still fits an int). *)

val different : t -> fi:int -> int -> int -> bool
(** [different t ~fi v1 v2]: whether vectors [v1] and [v2] are counted as
    two detections of target fault [fi]. Both must detect the fault for
    the question to be meaningful; the verdict is symmetric. Equal vectors
    are never different. *)

val chain_extend : t -> fi:int -> chain:int list -> int -> bool
(** Whether a vector is different from {e every} vector of the chain —
    the incremental greedy counting used by Procedure 1 under
    Definition 2. Chains longer than 62 spill into further batches. *)

val count_greedy : t -> fi:int -> int list -> int * int list
(** [count_greedy t ~fi tests] scans the tests in order, keeping a vector
    iff it is different from all kept so far. Returns the count and the
    kept chain (in scan order). *)

val count_exact : t -> fi:int -> int list -> int
(** Maximum subset of pairwise-different tests (exact, exponential; for
    tests and small inputs only). The greedy count is a lower bound. *)
