(** Calibration check of the sampled-universe estimator against the
    exhaustive oracle.

    For each of [trials] random small circuits, the exhaustive
    detection table (built with both [keep_undetectable_*] flags so
    fault indices align) supplies the true [N(f)] and [nmin(g)], and
    {!Ndetect_estimate.Estimate.analyze} supplies their confidence
    intervals. The check is statistical, not per-cell: individual
    misses are expected at rate up to [1 - confidence]; the run fails
    only when a family's aggregate coverage drops below
    [confidence - slack]. With [mutate] the sampler is deliberately
    biased ({!Ndetect_estimate.Sampler.debug_bias}) and the floor must
    catch it — the self-test that proves the checker can fail. *)

module Random_circuit = Ndetect_suite.Random_circuit

type miss = { cell : string; exact : int; lo : float; hi : float }
(** One exact value outside its reported interval ([nan] endpoints when
    the sample produced no interval although the truth is finite). *)

type circuit_result = {
  spec : Random_circuit.spec;
  checks : int;
  covered : int;
  misses : miss list;
}

type report = {
  trials : int;
  confidence : float;
  slack : float;
  target_checks : int;  (** One per target fault per circuit. *)
  target_covered : int;
  nmin_checks : int;  (** One per untargeted fault with finite nmin. *)
  nmin_covered : int;
  worst : circuit_result option;
  reproducer : circuit_result option;
      (** Greedy-shrunk witness, present only on failure. *)
}

val clopper_pearson :
  confidence:float -> trials:int -> successes:int -> float * float
(** Exact (conservative) binomial interval from the beta-quantile
    formulation — Lanczos log-gamma, Lentz continued-fraction
    regularized incomplete beta, bisection inversion — the reference the
    Wilson interval of {!Ndetect_estimate.Interval} is tested against.
    Requires [trials > 0], [0 <= successes <= trials] and a confidence
    inside (0, 1); [Invalid_argument] otherwise. *)

val target_rate : report -> float
val nmin_rate : report -> float

val failed : report -> bool
(** Either family's coverage below [confidence - slack]. *)

val run :
  ?mutate:bool ->
  ?samples:int ->
  ?strata:int ->
  ?confidence:float ->
  ?slack:float ->
  trials:int ->
  seed:int ->
  max_pi:int ->
  unit ->
  report
(** Defaults: [samples = 400], [strata = 8], [confidence = 0.95],
    [slack = 0.05]. [Invalid_argument] outside [trials >= 1],
    [1 <= max_pi <= 10] or an invalid sampling spec. Deterministic per
    [seed]. *)

val render : report -> string
