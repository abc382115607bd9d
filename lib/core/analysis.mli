(** One-call orchestration of the paper's full per-circuit study:
    detection tables, worst-case analysis, and (optionally) the
    average-case analysis for the faults a 10-detection test set does not
    guarantee. *)

module Netlist = Ndetect_circuit.Netlist

type worst_summary = {
  circuit : string;
  untargeted_faults : int;  (** |G| (detectable, non-feedback). *)
  target_faults : int;  (** |F| (collapsed, detectable). *)
  percent_below : (int * float) list;
      (** Per threshold n0 of Table 2: % of G with nmin <= n0. *)
  count_at_least : (int * int * float) list;
      (** Per threshold n0 of Table 3: (n0, count, %) of G with
          nmin >= n0. *)
  max_finite_nmin : int option;
  unbounded_count : int;  (** Faults no n can guarantee. *)
  hard_histogram : (int * int) list;
      (** Sorted [(nmin, count)] pairs over the faults with a finite
          nmin >= 11: the data of Figure 2 for this circuit. *)
}

val worst_thresholds_below : int list
(** Table 2 columns: [1; 2; 3; 4; 5; 10]. *)

val worst_thresholds_at_least : int list
(** Table 3 columns: [100; 20; 11]. *)

type t = {
  name : string;
  table : Detection_table.t;
  worst : Worst_case.t;
  summary : worst_summary;
}

val analyze :
  ?cancel:Ndetect_util.Cancel.token ->
  ?build:(cancel:Ndetect_util.Cancel.token -> Netlist.t -> Detection_table.t) ->
  name:string ->
  Netlist.t ->
  t
(** Build the detection table and run the worst-case analysis. [cancel]
    is threaded through both passes, so a supervised caller's deadline
    cuts the analysis off at the next poll point. [build] replaces the
    default [Detection_table.build] — the harness passes a cache-aware
    builder here; it must produce a table over exactly [net]. *)

val summary_of_worst : name:string -> Worst_case.t -> worst_summary

val hard_faults : t -> nmax:int -> int array
(** Indices of untargeted faults with [nmin > nmax] — the population of
    Tables 3, 5 and 6 (for nmax = 10: nmin >= 11). *)

val average : ?config:Procedure1.config -> t -> Procedure1.outcome
(** Run Procedure 1 tracking exactly the hard faults for
    [config.nmax]. *)
