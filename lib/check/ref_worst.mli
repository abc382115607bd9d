(** Reference worst-case analysis: [nmin] straight from the paper's
    definitions, with no sorting, deduplication, blocking or early
    exit. *)

val unbounded : int
(** Same sentinel as {!Ndetect_core.Worst_case.unbounded}: [max_int]. *)

val nmin_pair : Ref_table.t -> gj:int -> fi:int -> int option
(** [nmin(g_j, f_i) = N(f_i) - M(g_j, f_i) + 1], or [None] when
    [M(g_j, f_i) = 0]. *)

val nmin : Ref_table.t -> int -> int
(** [nmin(g_j) = min over f_i with M > 0], {!unbounded} when no target
    set intersects [T(g_j)]. *)

val distribution : Ref_table.t -> int array
(** All [nmin(g_j)], indexed by [g_j]. *)

val nmin_of_sets :
  target_sets:Ndetect_util.Bitvec.t array ->
  untargeted_sets:Ndetect_util.Bitvec.t array -> int array
(** [nmin] of every untargeted set against plain target-set arrays (a
    sampled table's, for instance): [N] and [M] counted with
    per-vector [Bitvec.get] loops, no popcount kernel, no layout. *)
