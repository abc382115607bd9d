(** Procedure 1 of the paper: random construction of K n-detection test
    sets for n = 1..nmax, used to estimate the probability
    [p(n, g) = d(n, g) / K] that an arbitrary n-detection test set detects
    an untargeted fault [g].

    Iteration [n] extends each set so that every target fault [f] with
    fewer than [n] detections (and with unused tests remaining) receives
    one uniformly random new test from [T(f) - Tk]. Under Definition 2 the
    detection count is the greedy chain of pairwise-different tests, a new
    test must extend the chain, and when no test can extend it the
    procedure falls back to Definition 1 so that faults are not left far
    below [n] detections.

    Definition 2 picks a candidate by up to eight uniform rejection
    samples, judged together in one pass (the set's stream advances as
    if each had been judged before the next was drawn), then by a
    uniformly shuffled scan of every unused test. A fault whose scan
    found no candidate is exhausted for the rest of the set: its chain
    can never grow again, so Definition 2 does not simulate a test
    added later against it. *)

module Detection_table := Detection_table

type mode =
  | Definition1  (** Plain distinct-test counting. *)
  | Definition2  (** Pairwise-different tests (paper Section 4). *)

type config = {
  seed : int;
  set_count : int;  (** K. *)
  nmax : int;
  mode : mode;
}

val default_config : config
(** [seed = 1; set_count = 1000; nmax = 10; mode = Definition1]. *)

type outcome
(** The tallies of a run: [d(n, g)] for every [n <= nmax] and every
    reported fault, plus the read-only tables [replay] needs (the
    detection table and its per-vector fault lists, shared with the
    table itself). No test set survives {!run}: an outcome's size does
    not depend on K. *)

val run :
  ?cancel:Ndetect_util.Cancel.token ->
  ?domains:int ->
  ?report_faults:int array ->
  Detection_table.t -> config -> outcome
(** [report_faults] lists the untargeted-fault indices whose detection
    probabilities are tracked (default: all of them). [cancel] is polled
    throughout the construction loops.

    The K sets are mutually independent: set [k] is drawn from its own
    RNG stream, [Ndetect_util.Rng.stream ~seed:config.seed k] (the
    [(k+1)]-th {!Ndetect_util.Rng.split} of [config.seed]). They are
    constructed in parallel over [domains] domains (default
    {!Ndetect_util.Parallel.default_domains}) in contiguous chunks. A
    chunk builds its sets one at a time in one scratch set and folds
    each finished set into its first-detection histogram; [run] sums
    the histograms. The outcome is bit-identical for every [domains]
    value, including the sequential [domains = 1] path, and the memory
    a run holds is per chunk, not per set. *)

val config : outcome -> config
val report_faults : outcome -> int array

val detected_count : outcome -> n:int -> gj:int -> int
(** [d(n, g_j)]: how many of the K n-detection test sets detect the fault.
    [gj] must be in [report_faults]. *)

val probability : outcome -> n:int -> gj:int -> float
(** [p(n, g_j) = d(n, g_j) / K]. *)

type set
(** One test set of a run, rebuilt by {!replay}. *)

val replay : outcome -> k:int -> set
(** [replay o ~k] constructs test set [k] of [o]'s run again: the same
    construction on the same stream (with a fresh Definition 2 oracle),
    so it is the set the run tallied, while [debug_stale_count] reads
    the same. It costs what building that one set cost in {!run}, plus
    a Definition 2 oracle's cones in a Definition 2 run; replaying every
    set costs a sequential run. Requires [0 <= k < K]. *)

val test_set : set -> int list
(** The final (n = nmax) test set, in insertion order. *)

val test_set_at : set -> n:int -> int list
(** The prefix of the set present at the end of iteration [n]
    ([1 <= n <= nmax]). *)

val detection_count_def1 : set -> fi:int -> int
(** Distinct tests of the set detecting target [fi]: [|T(f) ∩ test_set
    s|], in every mode. The construction keeps this count as it adds
    tests and takes each uniform draw's range, [|T(f) - Tk| = N(f) -
    count], from it. *)

val chain_def2 : set -> fi:int -> int list
(** Counted detections of target [fi] in the set (Definition 2 runs;
    [[]] in a Definition 1 run). *)

val debug_stale_count : bool ref
(** Test-only sabotage hook: when set, a draw for a fault with a
    positive count takes its range as [N(f) - count - 1], so it never
    picks the last unused test of [T(f) - Tk] — the stale count a broken
    invariant would leave. The campaign's Procedure 1 cells must report
    it ({!Ndetect_check.Campaign.check_net} arms it under [mutate]).
    It is read as each set is built, by {!run} and by {!replay} alike,
    so sets meant to match a sabotaged run must be replayed while it is
    still set.
    Always [false] in production. *)

val debug_skip_open : bool ref
(** Test-only sabotage hook: when set, the batch that takes the
    Definition 2 verdicts of a newly added test leaves out the first
    open fault it would ask (open: chain shorter than [nmax] and not
    exhausted), so that chain misses a detection it should count. The
    campaign's [chain(...)] and [test_set(...)] cells must report it
    ({!Ndetect_check.Campaign.check_net} arms it under [mutate]); like
    [debug_stale_count] it is read by {!run} and {!replay} alike.
    Always [false] in production. *)
