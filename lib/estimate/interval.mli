(** Binomial confidence intervals for sampled detection counts.

    Every estimated quantity in this subsystem reduces to a binomial
    proportion: out of [trials] uniformly sampled test vectors,
    [successes] of them landed in some detection set. The interval of
    record is the Wilson score interval (good coverage at small
    proportions, never escapes [0, 1]); the exact Clopper-Pearson
    interval the unit tests compare it against lives with the
    calibration oracle ([Ndetect_check.Ref_estimate.clopper_pearson]). *)

val z_of_confidence : float -> float
(** Two-sided normal critical value: [z_of_confidence 0.95 = 1.959964...].
    The inverse normal CDF is Acklam's rational approximation (relative
    error < 1.15e-9 — far below the sampling noise it is applied to).
    Raises [Invalid_argument] unless the confidence is inside (0, 1). *)

val wilson : z:float -> trials:int -> successes:int -> float * float
(** Wilson score interval [(lo, hi)] for the underlying proportion,
    clamped to [0, 1]. Requires [trials > 0] and
    [0 <= successes <= trials]. Both endpoints are monotone
    nondecreasing in [successes] for fixed [trials] — the property the
    estimator's min-over-targets reduction relies on. *)
