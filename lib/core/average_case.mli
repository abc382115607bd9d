(** Average-case analysis (Section 3 of the paper): summarize the
    detection probabilities produced by {!Procedure1} the way Tables 5 and
    6 do — for the faults not guaranteed to be detected by an
    nmax-detection test set, count how many reach each probability
    threshold 1.0, 0.9, ..., 0.1, 0.0. *)

val thresholds : float array
(** [1.0; 0.9; ...; 0.1; 0.0] (11 entries). *)

type row = {
  fault_count : int;  (** Faults summarized (those with nmin > nmax). *)
  at_least : int array;
      (** [at_least.(i)]: faults with [p(nmax, g) >= thresholds.(i)].
          Cumulative: the last entry equals [fault_count]. *)
  min_probability : float;  (** Lowest probability among the faults. *)
}

val summarize : Procedure1.outcome -> n:int -> row
(** Summarize [p(n, g)] over the outcome's report faults. *)

val summarize_probabilities : float array -> row
(** Same, from raw probabilities (exposed for tests). *)

val expected_escapes : float array -> float
(** The paper's closing remark on Tables 5/6: the probabilities can be
    used to calculate the probability that untargeted faults escape
    detection. For independent faults the expected number of escapes under
    one arbitrary n-detection test set is [sum (1 - p)]. *)

val expected_escapes_of : Procedure1.outcome -> n:int -> float

val wilson_interval :
  ?z:float -> detected:int -> trials:int -> unit -> float * float
(** Wilson score interval for the true detection probability behind an
    estimate [d/K] ([z] defaults to 1.96, i.e. 95% confidence). Tells how
    trustworthy a Table 5 entry is at a given K: with K = 10000 (the
    paper's setting) a p = 0.5 entry carries roughly a +-0.01 interval. *)
