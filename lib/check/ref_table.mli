(** Reference detection tables: truth-table fault simulation over the
    full input universe, one fault and one vector at a time.

    Mirrors the contract of {!Ndetect_core.Detection_table.build} with
    default parameters (collapsed stuck-at targets, four-way bridging
    untargeted faults, undetectable faults dropped) but shares none of
    its machinery: detection sets are plain [bool array]s filled by
    {!Ref_eval}, and [N]/[M] are literal counting loops over them. The
    stuck-at list comes from [Ndetect_faults]; the bridge list is
    {!bridges}, which tests every candidate pair with
    {!Bridge.is_feedback} instead of sharing {!Bridge.pairs}' sweep. *)

module Netlist = Ndetect_circuit.Netlist
module Stuck = Ndetect_faults.Stuck
module Bridge = Ndetect_faults.Bridge

type t

val bridges : Netlist.t -> Bridge.t array
(** The four-way bridges by definition: every pair of
    {!Bridge.candidate_nodes} in lexicographic order of position that
    {!Bridge.is_feedback} does not reject, contributing
    [(u,0,v,1); (v,0,u,1); (u,1,v,0); (v,1,u,0)]. *)

val build : Netlist.t -> t

val net : t -> Netlist.t
val universe : t -> int

val target_count : t -> int
val target_fault : t -> int -> Stuck.t
val target_set : t -> int -> bool array
val undetectable_target_count : t -> int

val untargeted_count : t -> int
val untargeted_fault : t -> int -> Bridge.t
val untargeted_set : t -> int -> bool array
val undetectable_untargeted_count : t -> int

val n : t -> int -> int
(** [N(f_i) = |T(f_i)|], counted with a loop. *)

val m : t -> gj:int -> fi:int -> int
(** [M(g_j, f_i) = |T(f_i) ∩ T(g_j)|], counted with a loop. *)

val members : bool array -> int list
(** The set as an increasing vector list (for diffing against
    [Bitvec.to_list]). *)
