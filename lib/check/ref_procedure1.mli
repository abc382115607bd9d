(** Sequential replay of Procedure 1 against the reference tables.

    Consumes the {e same} split RNG streams as
    {!Ndetect_core.Procedure1.run} (one [Rng.split] per test set, in
    set order, from the config seed) and mirrors its draw discipline
    exactly — one uniform draw per missing detection, eight rejection
    samples then a shuffled scan under Definition 2, the Definition-1
    fallback once a chain is exhausted — but runs strictly
    sequentially, reads detection sets from {!Ref_table}, and asks
    {!Ref_def2} (not the two-rail cone oracle) for Definition 2
    verdicts. If the optimized run's chunked, domain-parallel execution
    or its kernels disturb any result, the two outcomes diverge. *)

module Procedure1 = Ndetect_core.Procedure1

type outcome

val run : Ref_table.t -> Procedure1.config -> outcome
(** Replay with the full untargeted list as the report (the campaign's
    setting, i.e. [report_faults] omitted). *)

val detected_count : outcome -> n:int -> gj:int -> int
(** [d(n, g_j)]: sets detecting [g_j] within their first [n]
    iterations. *)

val test_set : outcome -> k:int -> int list
(** Test set [k] in insertion order. *)

val detection_count_def1 : outcome -> k:int -> fi:int -> int

val chain_def2 : outcome -> k:int -> fi:int -> int list
(** The Definition 2 chain, oldest first. *)
