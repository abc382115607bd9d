(** Renderers that lay out the reproduction results exactly like the
    paper's tables and figure. *)

module Analysis = Ndetect_core.Analysis
module Worst_case = Ndetect_core.Worst_case
module Procedure1 = Ndetect_core.Procedure1
module Average_case = Ndetect_core.Average_case

val table1 : Analysis.t -> gj:int -> string
(** Table 1: for untargeted fault [g], every target fault with
    [T(f) ∩ T(g) ≠ ∅], its detection set and [nmin(g, f)]; footer gives
    [nmin(g)]. *)

val table2 : Analysis.worst_summary list -> string
(** Table 2: worst-case percentage of untargeted faults guaranteed
    detected, per circuit, for n0 in 1..5 and 10. Columns after the first
    100% are left blank, as in the paper. *)

val table3 : Analysis.worst_summary list -> string
(** Table 3: count (and %) of untargeted faults with nmin >= 100 / 20 /
    11. Only circuits with at least one such fault are listed. *)

(** {2 Partial-result variants}

    Supervised runs produce a mix of computed summaries and per-circuit
    failures; these renderers keep a row for every circuit, turning a
    failure into ["(reason)"] cells instead of aborting the table. *)

type table_entry =
  | Row of Analysis.worst_summary
  | Failed_row of { circuit : string; reason : string }
      (** [reason] e.g. ["timed out after 30s"] or ["crashed: ..."]. *)

val table2_entries : table_entry list -> string
val table2_csv_entries : table_entry list -> string

val table3_entries : table_entry list -> string
(** Failed rows are always listed (whether they have hard faults is
    unknown). *)

val table3_csv_entries : table_entry list -> string

(** {2 Sampled-mode variant} *)

module Estimate = Ndetect_estimate.Estimate

type est_entry =
  | Est_row of Estimate.summary
  | Est_failed_row of { circuit : string; reason : string }

val est_entries : confidence:float -> est_entry list -> string
(** The sampled analog of {!table2_entries}: per threshold,
    ["point [lo,hi]"] percentages where [lo] is the guaranteed
    (lower-confidence) value and [hi] the optimistic one, plus a
    ["no-bound"] column counting faults the sample cannot bound. *)

val figure2 : Worst_case.t -> min_value:int -> string
(** Figure 2: the distribution of nmin values at least [min_value], as an
    ASCII bar chart of (nmin, #faults). *)

val figure2_of_histogram : (int * int) list -> min_value:int -> string
(** Same chart from a precomputed {!Worst_case.histogram} — the form the
    harness checkpoints, so a resumed run can re-render the figure
    without reanalyzing the circuit. *)

val figure2_csv_of_histogram : (int * int) list -> string

val table4 : Procedure1.outcome -> string
(** Table 4: the K constructed test sets, one row per set, one column per
    n up to the outcome's nmax. *)

type average_row = {
  circuit : string;
  hard_faults : int;  (** Faults with nmin > nmax. *)
  row : Average_case.row;
}

val table5 : nmax:int -> average_row list -> string
(** Table 5: per circuit, how many hard faults reach each detection
    probability threshold; a row stops at the first threshold reached by
    all faults, as in the paper. *)

val table6 : nmax:int -> (string * int * Average_case.row * Average_case.row) list -> string
(** Table 6: Definition 1 vs Definition 2 rows interleaved per circuit
    [(circuit, hard faults, def1 row, def2 row)]. *)

(** {2 CSV variants}

    Same data as the renderers above, as machine-readable CSV (for
    plotting the reproduced tables against the paper's). *)

val table2_csv : Analysis.worst_summary list -> string
val table3_csv : Analysis.worst_summary list -> string
val figure2_csv : Worst_case.t -> min_value:int -> string
val table5_csv : average_row list -> string

val table6_csv :
  (string * int * Average_case.row * Average_case.row) list -> string
