(** Definition 2 of the paper: two tests [ti], [tj] count as different
    detections of a fault [f] only if the partially specified test [tij]
    (specified where [ti] and [tj] agree) does {e not} detect [f] under
    three-valued simulation.

    Values are two-rail ternary words: a [one] and a [zero] rail per node,
    bit [j] of each saying whether lane [j] is definitely 1 or definitely
    0 (neither: X). Lane [j] of a pass simulates the test common to a
    vector pair [(a_j, b_j)] — a candidate and one chain member — and a
    pass returns the mask of lanes where the fault is detected. A pass is
    one fault-free pass (over the gates the fault's observing outputs
    depend on, or over the whole net when several faults share it) and
    one faulty pass per fault over its fanout cone. Both run flat
    schedules, built once per net and once per fault on first use.
    Nothing is memoized: a [t] owns mutable scratch rails, so it must
    stay within one domain. *)

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
    Definition 2. The one-candidate case of {!first_extending}. *)

val first_extending :
  t -> fi:int -> chain:int list -> int array -> int option
(** [first_extending t ~fi ~chain candidates]: the first candidate, in
    array order, that {!chain_extend} accepts, or [None]. One pass
    checks [62 / |chain|] candidates; a chain longer than 31 gets one
    candidate per pass, and one longer than 62 spills over several
    passes per candidate. *)

val extend_many : t -> chains:int list array -> int array -> int -> bool array
(** [extend_many t ~chains fis v]: for each target fault index [fis.(k)],
    whether [v] extends the chain [chains.(fis.(k))] ({!chain_extend}).
    (fault, chain member) lanes are packed 62 to a pass across faults,
    and each pass shares one fault-free simulation of the whole net
    among the faults' cone passes. *)

val debug_corrupt_lanes : bool ref
(** Sabotage hook for the differential self-test, default [false]. When
    set, {!first_extending} and {!extend_many} misread the lane group of
    the last candidate (or fault) of a pass that holds several, as if
    it detected nothing. [ndetect check --mutate] must catch it. *)

val count_greedy : t -> fi:int -> int list -> int * int list
(** [count_greedy t ~fi tests] scans the tests in order, keeping a vector
    iff it is different from all kept so far. Returns the count and the
    kept chain (in scan order). *)

val count_exact : t -> fi:int -> int list -> int
(** Maximum subset of pairwise-different tests (exact, exponential; for
    tests and small inputs only). The greedy count is a lower bound. *)
