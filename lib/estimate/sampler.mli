(** Stratified, deterministic test-vector sampling over the input
    universe [U = 2^PI].

    The universe is partitioned into [strata] contiguous near-equal
    intervals and each stratum draws its allocation of vectors
    uniformly {e with replacement} from its own interval — replacement
    keeps every per-set detection count an exact binomial, which is
    what {!Interval} assumes. Each stratum draws from its own
    {!Ndetect_util.Rng.split} stream (split in stratum order from the
    base seed), so any contiguous range of strata can be drawn
    independently of the rest: drawing strata [lo..hi) produces exactly
    the vectors the full sample holds for those strata. *)

val max_inputs : int
(** [61]. Stratum bounds are OCaml ints, so the largest representable
    universe is [2^61] (max_int is [2^62 - 1]); this also satisfies the
    62-input ceiling of {!Ndetect_sim.Good.of_vectors}. *)

val stratum_bounds : universe_bits:int -> strata:int -> (int * int) array
(** [(lo, hi)] half-open vector intervals per stratum: widths are
    [2^universe_bits / strata], the first [2^universe_bits mod strata]
    strata one wider. Raises [Invalid_argument] when [universe_bits] is
    outside [1, max_inputs] or [strata] outside [1, 2^universe_bits]. *)

val allocation : samples:int -> strata:int -> int array
(** Per-stratum sample counts, summing exactly to [samples]: the same
    near-equal split as {!stratum_bounds}. Raises [Invalid_argument]
    when [samples < strata] (every stratum must draw at least once). *)

val draw_range :
  universe_bits:int -> samples:int -> strata:int -> seed:int ->
  lo:int -> hi:int -> int array
(** The vectors of strata [lo <= i < hi], concatenated in stratum
    order. [draw_range ~lo:0 ~hi:strata] is the full sample, and
    concatenating the results of any ascending partition of
    [0, strata) reproduces it exactly: this is what defines each
    stratum's own stream. *)

val draw : universe_bits:int -> samples:int -> strata:int -> seed:int ->
  int array
(** The full stratified sample: [draw_range ~lo:0 ~hi:strata]. *)

val debug_bias : bool ref
(** Self-test hook, [false] in production: when set, every draw
    returns its stratum's first vector instead of a uniform one. This
    collapses sample diversity and wrecks interval coverage, which the
    [Ref_estimate] calibration campaign must detect (the estimator
    analog of [Fault_sim.debug_corrupt_sensitization]). *)
