(** Worst-case analysis (Section 2 of the paper).

    [nmin g] is the smallest [n] such that {e every} n-detection test set
    for the target faults necessarily detects the untargeted fault [g]:
    the adversary can detect [f_i] up to [N(f_i) - M(g, f_i)] times while
    dodging [T(g)], so [nmin(g, f_i) = N(f_i) - M(g, f_i) + 1] and
    [nmin(g) = min over F(g)]. *)

module Detection_table := Detection_table

type t

val unbounded : int
(** Sentinel for a fault no n-detection requirement can guarantee (no
    target fault's detection set intersects its own): [max_int]. *)

val compute : ?cancel:Ndetect_util.Cancel.token -> Detection_table.t -> t
(** Scans each untargeted class ({!Detection_table.untargeted_class})
    once. [cancel] is polled once per class. *)

val nmin_of_classes :
  ?cancel:Ndetect_util.Cancel.token ->
  target_sets:Ndetect_util.Bitvec.t array -> Detection_table.t -> int array
(** [nmin(g_j)] for every untargeted fault of the table against
    [target_sets] (plain sets of the table's universe, all of one
    length, not necessarily the table's own): each untargeted class is
    scanned once, as {!compute} does, but with no span and no
    [worst.*] counts (those count table scans only). [cancel] is polled
    once per class. The sampled estimator scans its table this way. *)

val debug_skip_first_block : bool ref
(** Test-only sabotage hook: when set, every scan starts at the second
    block of the target layout, so the rows of the first block never
    count. The differential campaign's [nmin] cells must report it
    ({!Ndetect_check.Campaign.check_net} arms it under [mutate]).
    Always [false] in production. *)

val table : t -> Detection_table.t

val nmin_pair : t -> gj:int -> fi:int -> int option
(** [nmin(g_j, f_i)], or [None] when [M(g_j, f_i) = 0]. *)

val nmin : t -> int -> int
(** [nmin(g_j)] ({!unbounded} when [F(g_j)] is empty). *)

val nmin_witness : t -> int -> int option
(** A target-fault index achieving the minimum. *)

val count_below : t -> int -> int
(** Number of untargeted faults with [nmin(g) <= n0]. *)

val percent_below : t -> int -> float
(** Same as a percentage of the untargeted fault count. *)

val count_at_least : t -> int -> int
(** Number of untargeted faults with [nmin(g) >= n0] ({!unbounded}
    included). *)

val percent_at_least : t -> int -> float

val coverage_guaranteed : t -> n:int -> float
(** Fraction (0..1) of untargeted faults guaranteed detected by any
    n-detection test set. *)

val max_finite_nmin : t -> int option
(** The value of [n] needed to guarantee the detection of every untargeted
    fault with a finite requirement. *)

val histogram : t -> min_value:int -> (int * int) list
(** Sorted [(nmin value, fault count)] pairs over faults whose finite
    [nmin] is at least [min_value] — the data behind the paper's
    Figure 2. *)

val histogram_of_nmin : int array -> min_value:int -> (int * int) list
(** {!histogram} of a bare nmin distribution (e.g. the concatenated
    distributions of a partition's blocks). *)

val distribution : t -> int array
(** All [nmin(g_j)] values, indexed by [g_j]. *)
