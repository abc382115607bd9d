(** Sampled-universe estimation of the paper's quantities.

    Exhaustive analysis enumerates [U = 2^PI]; this module computes the
    same quantities from a stratified random sample of [U] drawn by
    {!Sampler}, reporting confidence intervals ({!Interval}) instead of
    exact counts. Everything reduces to binomial proportions:

    - [N(f) = |T(f)|] is estimated by [U * k_f / s] where [k_f] of the
      [s] sampled vectors detect [f];
    - [nmin(g) = min_f (N(f) - M(g,f)) + 1] is estimated through
      [dmin(g) = min over f with sampled M(g,f) > 0 of (k_f - m_gf)],
      the sampled count of [|T(f) \ T(g)|] — the worst-case [nmin]
      of the sampled table minus one. Both Wilson endpoints are
      monotone nondecreasing in the success count for fixed trials, so
      the minimizing [dmin(g)] yields the point estimate and both
      interval endpoints at once — one scalar per untargeted fault.

    The sampled detection table is an ordinary {!Detection_table.t}
    whose universe is the sample (sets indexed by sample position), so
    Procedure 1 and the rest of the average-case machinery run on it
    unchanged. Sampling is deterministic per seed; tables are built
    with both [keep_undetectable_*] flags so fault indices align with
    an exhaustive table of the same netlist (the calibration oracle
    relies on this). *)

module Netlist = Ndetect_circuit.Netlist
module Bitvec = Ndetect_util.Bitvec
module Detection_table = Ndetect_core.Detection_table

module Spec : sig
  type t = { samples : int; strata : int; confidence : float }

  val default_strata : int
  (** [16] (clamped to [samples] and to the universe size in use). *)

  val default_confidence : float
  (** [0.95]. *)

  val validate : t -> (t, string) result
  (** Structured validation: [samples >= 1], [strata >= 1],
      [samples >= strata], [confidence] strictly inside (0, 1). *)

  val make :
    ?strata:int -> ?confidence:float -> samples:int -> unit ->
    (t, string) result
  (** [validate] over the given fields; [strata] defaults to
      [min samples default_strata]. *)

  val to_string : t -> string
end

val effective_strata : spec:Spec.t -> universe_bits:int -> int
(** [min spec.strata 2^universe_bits]: a stratum must hold at least one
    vector, so tiny circuits clamp the stratum count (deterministically —
    the clamp depends only on the spec and the PI count). *)

type t

val analyze :
  ?cancel:Ndetect_util.Cancel.token ->
  spec:Spec.t -> seed:int -> name:string -> Netlist.t -> t
(** Draw the stratified sample, build the sampled detection table and
    scan it by its untargeted classes with the worst-case scanner
    ({!Ndetect_core.Worst_case.nmin_of_classes}: one scan per distinct
    set, N-ascending early exit, blocked kernel, no per-fault set
    array) inside an [est.scan] span. The result is identical for every
    [--domains] value. Fails (ordinary [Failure], caught by the
    supervised harness) when the circuit has no inputs or more than
    {!Sampler.max_inputs} of them. *)

val name : t -> string
val spec : t -> Spec.t
val seed : t -> int
val universe_bits : t -> int
val table : t -> Detection_table.t
(** The sampled table ([universe = spec.samples]). *)

val dmin : t -> int -> int
(** [dmin(g_j)]: the sampled [|T(f) \ T(g_j)|] of the minimizing target
    [f], i.e. the sampled table's [nmin(g_j) - 1]; [-1] when no sampled
    target set meets [T(g_j)]. *)

val debug_corrupt_scan : bool ref
(** Test-only sabotage hook: when set, {!analyze} scans with the first
    target's set replaced by that of the first nonempty untargeted set
    no nonempty target set fits inside (the table itself stays intact),
    so that fault's [dmin] comes out [0] instead of its true value.
    The differential campaign ([ndetect check --mutate]) must catch
    this. Always [false] in production. *)

val target_interval : t -> int -> float * float * float
(** [(lo, point, hi)] for [N(f_i)] on the count scale [0, 2^PI]. *)

val nmin_interval : t -> int -> (float * float * float) option
(** [(lo, point, hi)] for [nmin(g_j)], or [None] when no target's
    sampled set intersects [T(g_j)] — the sample cannot bound [nmin]
    from above. *)

val hard_faults : t -> nmax:int -> int array
(** Untargeted indices whose point estimate exceeds [nmax] (faults the
    sample cannot bound included) — the report population handed to
    Procedure 1, mirroring [Analysis.hard_faults]. *)

(** {2 Summaries} *)

type summary = {
  circuit : string;
  spec : Spec.t;
  universe_bits : int;
  strata_used : int;  (** {!effective_strata}. *)
  target_faults : int;
  untargeted_faults : int;
  percent_below : (int * float * float * float) list;
      (** Per threshold [n0] (same thresholds as the exhaustive
          Table 2): [(n0, guaranteed, point, optimistic)] percentages of
          untargeted faults with [nmin <= n0]. [guaranteed] counts
          faults whose {e upper} interval endpoint clears [n0] (a lower
          confidence bound on the true percentage); [optimistic] uses
          the lower endpoint (an upper confidence bound). *)
  unbounded_count : int;
      (** Untargeted faults whose [nmin] the sample cannot bound. *)
}

val summary : t -> summary
