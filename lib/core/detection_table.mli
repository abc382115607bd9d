(** Detection tables: the exhaustive relation between faults and input
    vectors that both analyses of the paper are computed from.

    The target set [F] is the collapsed single stuck-at list (detectable
    faults only, by default), and the untargeted set [G] is the set of
    detectable non-feedback four-way bridging faults between outputs of
    multi-input gates. For every fault [h] the table holds
    [T(h) ⊆ U = 0 .. 2^PI - 1]. *)

module Bitvec = Ndetect_util.Bitvec
module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge
module Wired = Ndetect_faults.Wired

type untargeted_model =
  | Four_way  (** The paper's model. *)
  | Wired of Wired.semantics  (** Wired-AND / wired-OR ablation. *)

type untargeted_fault =
  | Bridge_fault of Bridge.t
  | Wired_fault of Wired.t

(** Untargeted faults packed in one int each: the table holds one
    such int per kept fault, and {!untargeted_fault} decodes on demand.
    Bit 0 is the tag (0 bridge, 1 wired), bit 1 the victim's value
    (wired: 1 for wired-OR), bit 2 the aggressor's value, then two node
    ids of 29 bits each (victim and aggressor, or [a] and [b]), so
    {!build} and {!restore_parts} refuse a netlist of more than [2^29]
    nodes ([Invalid_argument]). *)
module Packed : sig
  val bridge :
    victim:int -> victim_value:bool -> aggressor:int -> aggressor_value:bool ->
    int

  val wired : a:int -> b:int -> Wired.semantics -> int
  (** Node ids must lie in [0 .. 2^29 - 1]; they are not checked. *)

  val is_wired : int -> bool
  val first : int -> int  (** Victim, or [a]. *)

  val second : int -> int  (** Aggressor, or [b]. *)

  val first_value : int -> bool
  (** Victim value, or [true] for wired-OR. *)

  val second_value : int -> bool
  (** Aggressor value; [false] for a wired fault. *)
end

type t

val build :
  ?keep_undetectable_targets:bool ->
  ?keep_undetectable_untargeted:bool ->
  ?collapse:bool ->
  ?model:untargeted_model ->
  ?cancel:Ndetect_util.Cancel.token ->
  ?vectors:int array ->
  Netlist.t ->
  t
(** Runs one exhaustive fault-free simulation, one traced fault
    simulation of the stuck-at list and, for the [Four_way] model, the
    factored bridge build ({!bridge_classes}). [collapse] (default
    [true]) applies equivalence collapsing to the stuck-at list — the
    paper's setting; turning it off, like switching the untargeted
    [model] (default [Four_way]), is exposed for the ablation benches.
    [cancel] is polled between simulation jobs (cooperative deadline
    support).

    [vectors] switches the table from the exhaustive universe to a
    {e sampled} one: the fault-free and fault simulations run only the
    given input vectors ({!Ndetect_sim.Good.of_vectors}), the table's
    [universe] is the vector count, and every detection set is indexed
    by {e position} in [vectors], not by vector value. Sampled tables
    are built with both [keep_undetectable_*] flags set by the
    estimation layer so fault indices align with an exhaustive table of
    the same netlist (a fault empty in the sample need not be empty in
    truth). [keep_undetectable_untargeted] (default [false]) keeps
    bridging faults whose sampled/exhaustive detection set is empty. *)

val net : t -> Netlist.t
val universe : t -> int

(** {2 Target faults F} *)

val target_count : t -> int
val target_fault : t -> int -> Stuck.t
val target_set : t -> int -> Bitvec.t
(** [T(f_i)]. *)

val target_n : t -> int -> int
(** [N(f_i) = |T(f_i)|]. *)

val target_label : t -> int -> string
val undetectable_target_count : t -> int
(** Collapsed stuck-at faults dropped because [T(f) = ∅] (when
    [keep_undetectable_targets] is false). *)

(** {2 Untargeted faults G} *)

val untargeted_count : t -> int
val untargeted_fault : t -> int -> untargeted_fault
(** [g_j], decoded from its packed int (a fresh value per call). *)

val untargeted_packed : t -> int -> int
(** [g_j] as its {!Packed} int. *)

val untargeted_set : t -> int -> Bitvec.t
(** [T(g_j)], the set of [g_j]'s class: faults of one class share one
    physical set. *)

val untargeted_class : t -> int -> int
(** The class of [g_j]: two untargeted faults share a class iff their
    detection sets are equal. Classes are numbered [0 ..
    {!untargeted_class_count} - 1] in order of first occurrence. *)

val untargeted_class_count : t -> int
(** Distinct untargeted detection sets. *)

val untargeted_class_set : t -> int -> Bitvec.t
(** The detection set of a class. *)

val untargeted_label : t -> int -> string
(** Formatted per call from {!untargeted_fault}. *)

val undetectable_untargeted_count : t -> int
(** Bridging faults dropped because [T(g) = ∅]. *)

val m : t -> gj:int -> fi:int -> int
(** [M(g_j, f_i) = |T(f_i) ∩ T(g_j)|]. *)

type target_layout = {
  rows : int;  (** Distinct target detection sets. *)
  rep : int array;
      (** [rep.(row)] is the representative target index (the first
          target with that set). *)
  row_n : int array;  (** [N] per row, ascending. *)
  blocked : Bitvec.Blocked.t;
      (** The rows' sets, cache-blocked word-major, in row order. *)
}

val layout_of_sets : Bitvec.t array -> target_layout
(** Deduplicated, N-sorted, cache-blocked view of a set array — the
    input of the batched worst-case scan. [rep] indexes the given array.
    Rows are ordered by ascending [N] (ties by representative index),
    so a scan can early-exit at block granularity. *)

val target_layout : t -> target_layout
(** {!layout_of_sets} of the table's target sets, computed lazily once
    and published atomically (or adopted from {!restore_parts}); safe to
    call from concurrent domains. *)

val overlapping_targets : t -> gj:int -> int list
(** [F(g_j)]: indices of target faults whose detection set intersects
    [T(g_j)]. *)

(** {2 Derived helpers} *)

val detectors_of_vector : t -> int array array
(** Inverted index over targets: entry [v] lists the target-fault indices
    detected by vector [v]. Computed lazily once, cached, and published
    atomically — safe to call from concurrent domains. *)

val invert_sets : universe:int -> Bitvec.t array -> int array array
(** [invert_sets ~universe sets]: entry [v] lists, in ascending order,
    the indices [i] with [v ∈ sets.(i)]. *)

val untargeted_detectors_of_vector : t -> int array array
(** Inverted index over untargeted faults: entry [v] lists the
    untargeted-fault indices [gj] with [v ∈ T(gj)]. Same lazy, atomic,
    domain-safe caching as {!detectors_of_vector}; Procedure 1 uses it
    as the report index whenever the report is the full fault list, so
    repeated runs over one table share a single inversion. *)

val find_untargeted :
  t -> victim:string -> victim_value:bool -> aggressor:string ->
  aggressor_value:bool -> int option
(** Index of a bridging fault by node names, for the worked example: a
    scan of the packed ints for the bridge's code. Raises
    [Invalid_argument] on an unknown node name. *)

(** {2 Untargeted classes} *)

type classes = {
  kept : int array;
      (** Indices of the kept faults in the list given (for
          {!bridge_classes}, bridge indices of the pairs), ascending. *)
  class_of : int array;
      (** [class_of.(k)] is the class of kept fault [k]. *)
  distinct : Bitvec.t array;
      (** One set per class, numbered in order of first occurrence. *)
}

val bridge_classes :
  ?keep_undetectable:bool ->
  ?stem_set:(Stuck.t -> Bitvec.t option) ->
  ?cancel:Ndetect_util.Cancel.token ->
  Ndetect_sim.Good.t -> Bridge.pairs -> classes
(** The detection sets of the four-way bridges over the pairs (bridge
    [j] is {!Bridge.nth}[ pairs j]), factored and deduplicated:
    [T(v, a1, u, a2) = T(v stuck-at (not a1)) ∩ {t : good(u, t) = a2}].
    [stem_set] (default: none known) returns a victim stem fault's
    detection set when the caller already has it; {!build} passes the
    set of the target whose equivalence class holds the fault. One
    traced sweep ({!Ndetect_sim.Fault_sim.stuck_detection_sets})
    covers the victims it misses; each bridge's product is formed
    in a scratch buffer, dropped when empty (unless
    [keep_undetectable], default [false]), and copied into [distinct]
    only when its content is new. Each bridge's set equals
    {!Ndetect_sim.Fault_sim.bridge_detection_set}; the qcheck
    properties in [test/test_sim.ml] and [test/test_core.ml] hold them
    to it. *)

(** {2 Self-test} *)

val corrupt_target_set : t -> fi:int -> vector:int -> unit
(** Flip one membership bit of target [fi]'s detection set — a simulated
    kernel-level wrong answer, used by the differential checker's
    [--mutate] self-test ({!Ndetect_check.Campaign}) to prove a
    divergence would be caught. Call it right after {!build}, before any
    derived quantity (layouts, inverted indexes, analyses) is computed:
    the lazy memos snapshot the sets on first use, so corrupting after
    they are forced would leave the table internally inconsistent.
    Never called by any analysis path. *)

val debug_flip_aggressor : bool ref
(** Test-only sabotage hook: when set, {!bridge_classes} inverts the
    polarity of the first aggressor row it builds, so every bridge with
    that aggressor and value gets the product for the opposite value.
    The differential campaign's [T(g)] cells must report it
    ({!Ndetect_check.Campaign.check_net} arms it under [mutate]). Always
    [false] in production. *)

val debug_trust_hash : bool ref
(** Test-only sabotage hook: when set, {!bridge_classes} builds its
    content index with [Bitvec.Index.create ~debug_trust_hash:true],
    which trusts a 4-bit hash without comparing words, so distinct
    bridge products share a class. The campaign's [T(g)] cells must
    report it ({!Ndetect_check.Campaign.check_net} arms it under
    [mutate]). Always [false] in production. *)

(** {2 Persistence} *)

val restore_parts :
  Netlist.t ->
  universe:int ->
  targets:Stuck.t array ->
  target_sets:Bitvec.t array ->
  undetectable_targets:int ->
  untargeted:int array ->
  untargeted_class:int array ->
  untargeted_distinct:Bitvec.t array ->
  undetectable_untargeted:int ->
  ?layout:target_layout ->
  unit ->
  t
(** Rebuild a table from its parts, for external decoders (the table
    cache's mmap loader), without any simulation: checks [universe]
    against [net]'s exhaustive universe ({!Netlist.universe_size}) and
    adopts the given arrays directly: [untargeted.(j)] is [g_j]'s
    {!Packed} int, whose node ids the caller has checked against [net],
    and [untargeted_class.(j)] indexes [untargeted_distinct], as
    {!untargeted_class} does. The detection sets may be zero-copy
    {!Bitvec.of_view}s into a mapped file. Labels and lazy memos
    (inverted indexes) rebuild on demand; when
    [layout] is given it seeds the {!target_layout} memo, so the
    worst-case scan runs over the mapped rows without repacking. Raises
    [Invalid_argument] when the parts are inconsistent with [net] or
    each other (universe, set lengths, array shapes, classes out of
    range, negative counts)
    or the layout's shape is off ([rep]/[row_n] lengths, row counts,
    representative indices in range) — callers treat that as a cache
    miss. *)
