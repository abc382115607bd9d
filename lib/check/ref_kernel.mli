(** Reference for the C kernel ({!Ndetect_util.Kernel}): the same
    counts as the {!Ndetect_util.Bitvec} bulk operations, computed by a
    pure-OCaml SWAR word loop over the same words (no C, no SIMD, no
    early exit inside a count), the same blocked worst-case scan and
    the same fused AND+hash. [test/test_util.ml]
    compares every {!Ndetect_util.Bitvec} count against it, and
    {!Campaign.check_suite} recounts every [N(f)] and [nmin(g)] of the
    small-tier tables with it. *)

module Bitvec = Ndetect_util.Bitvec

val count : Bitvec.t -> int
(** [|a|], as {!Bitvec.count}. *)

val inter_count : Bitvec.t -> Bitvec.t -> int
(** [|a ∩ b|], as {!Bitvec.inter_count}. Raises [Invalid_argument] on a
    length mismatch. *)

val blocked_scan :
  Bitvec.Blocked.t ->
  row_n:int array -> probe_count:int -> Bitvec.t -> int array -> unit
(** As {!Bitvec.Blocked.scan}: the same four results from per-row
    counts read straight from the packed buffer
    ({!Bitvec.Blocked.raw}) by the layout's offsets, with the same exit
    rule before every block. *)

val inter_hash_into : Bitvec.t -> Bitvec.t -> Bitvec.t -> int
(** As {!Bitvec.inter_hash_into}: [dst := a AND b], then [-1] for an
    empty product or its content hash, computed in boxed [Int64]
    arithmetic step for step as the C kernel. *)
