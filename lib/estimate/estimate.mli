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
    unchanged. Sampling is deterministic per seed and shardable by
    stratum range; tables are built with both [keep_undetectable_*]
    flags so fault indices align with an exhaustive table of the same
    netlist (the calibration oracle relies on this). *)

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
    the clamp depends only on the spec and the PI count). Every consumer
    (direct analysis, campaign unit enumeration, merge) uses this. *)

type t

val analyze :
  ?cancel:Ndetect_util.Cancel.token ->
  spec:Spec.t -> seed:int -> name:string -> Netlist.t -> t
(** Draw the stratified sample, build the sampled detection table and
    {!scan} it by its untargeted classes
    ({!Ndetect_core.Worst_case.nmin_of_classes}: one scan per distinct
    set, no per-fault set array). The result is identical for every
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

(** {2 The shared scan}

    [scan] is the estimator's one reduction: {!analyze} runs it on the
    freshly built table's classes and the campaign merge on reassembled
    set slices (slices from different processes share no class
    numbering), so the two agree by construction. *)

val scan :
  ?cancel:Ndetect_util.Cancel.token ->
  target_sets:Bitvec.t array -> untargeted_sets:Bitvec.t array -> unit ->
  int array
(** [dmin] per untargeted set: [min over f with m_gf > 0 of
    (k_f - m_gf)], or [-1] when no target set intersects. Over the
    sample this is the worst-case [nmin(g) - 1], so it runs the
    worst-case scanner ({!Ndetect_core.Worst_case.nmin_of_sets}: dedup,
    N-ascending early exit, blocked kernel) inside an [est.scan] span.
    A pure read, parallel over distinct untargeted sets; the result is
    identical for every [--domains] value. *)

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

val summary_of_scan :
  name:string -> spec:Spec.t -> universe_bits:int -> target_faults:int ->
  dmin:int array -> summary
(** The summary from bare {!scan} output — the form the campaign merge
    uses on reassembled slices; [summary] of an analysis equals it field
    for field. *)

val summary : t -> summary

(** {2 Sharding} *)

type slice = {
  slice_lo : int;
  slice_hi : int;  (** The stratum range this slice covers. *)
  positions : int;  (** Vectors drawn — [sum (allocation lo..hi-1)]. *)
  slice_target_sets : Bitvec.t array;
  slice_untargeted_sets : Bitvec.t array;
}
(** The campaign work unit's product: detection-set slices over this
    stratum range's vectors, in sample-position order. Plain data
    ([Bitvec.t] marshals), carried in ledger records. *)

val stratum_slice :
  ?cancel:Ndetect_util.Cancel.token ->
  spec:Spec.t -> seed:int -> lo:int -> hi:int -> Netlist.t -> slice
(** Draw only strata [lo <= i < hi] and build their sampled table.
    Same input validation as {!analyze}. *)

val concat_slices : spec:Spec.t -> slice list -> Bitvec.t array * Bitvec.t array
(** Reassemble full-sample [(target_sets, untargeted_sets)] from
    slices in ascending contiguous stratum order (shifting each slice
    by the positions before it). Raises [Invalid_argument] on gaps,
    overlaps, shape mismatches or a total position count differing from
    [spec.samples] — a merge-integrity failure, not a user error. *)
