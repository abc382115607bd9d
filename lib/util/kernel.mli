(** Pluggable intersection/popcount kernel backends.

    Every hot counting primitive of the analysis — [N(f)] popcounts,
    [M(g, f)] intersection sizes, the batched and cache-blocked sweeps
    under {!Ndetect_core.Worst_case} — reduces to a handful of bulk
    operations over raw 62-bit word buffers. This module names that
    contract ({!KERNEL}), registers the implementations, and owns the
    process-wide dispatch that {!Bitvec} routes through.

    Two backends are always registered:

    - ["swar"] — the portable pure-OCaml reference (branch-free SWAR
      popcount), bit-identical semantics by definition;
    - ["c"] — C stubs over [__builtin_popcountll], compiled with an
      AVX2 inner loop when the build probe grants [-march=native]
      (see [lib/util/probe_cflags.sh]). The vector loop is additionally
      gated at runtime by a memoized CPUID probe
      ([__builtin_cpu_supports("avx2")]), so a binary built on a newer
      host falls back to the scalar path — never SIGILL — on a machine
      without AVX2; {!describe} reports which path the probe chose.

    Dispatch cost model: the current backend is a single mutable cell
    holding a flat record of closures ({!ops}); callers load it {e once
    per bulk call} (or once per scanner for the blocked sweep), never
    per word. Selection happens at module initialization from the
    [NDETECT_KERNEL] environment variable (default ["c"]; unknown
    values are ignored so stale environments cannot break a run) and
    may be overridden once more by the driver's [--kernel-backend]
    flag before any analysis runs. Both backends return identical
    results on every input — enforced by the cross-backend property
    suite in [test/test_util.ml] and the byte-for-byte output diff in
    [bin/dune] — so switching backends mid-process is always safe. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A raw word buffer: 62-bit non-negative payload words stored as
    untagged native ints in C layout. [Bigarray.Array1.sub] yields
    zero-copy views, and [Unix.map_file] yields buffers backed by a
    file — both are valid kernel operands (the C stubs read the data
    pointer directly). The two bits above the payload must be zero. *)

(** The kernel contract. All word counts are the caller's: a backend
    never re-derives buffer sizes, so sub-views and oversized backing
    buffers behave identically. *)
module type KERNEL = sig
  val name : string

  val description : string
  (** One line for [--metrics] / docs, e.g. the compiler features the
      backend was built with. *)

  val popcount_words : buf -> int -> int
  (** [popcount_words b n] is the number of set bits in words
      [0 .. n-1]. *)

  val inter_count : buf -> buf -> int -> int
  (** [inter_count a b n] is the popcount of [a AND b] over words
      [0 .. n-1]. *)

  val inter_count_upto : buf -> buf -> int -> limit:int -> int
  (** [min (inter_count a b n) limit], allowed to stop sweeping once
      the running count reaches [limit]. *)

  val inter_count_many : buf -> buf array -> int -> int array -> unit
  (** [inter_count_many probe targets n dst] stores
      [inter_count probe targets.(j) n] into [dst.(j)] for every [j].
      [dst] has at least [Array.length targets] entries. *)

  val inter_counts_block :
    probe:buf -> data:buf -> k:int -> words:int -> dst:int array -> unit
  (** Blocked word-major sweep: [data] holds [k] rows interleaved as
      [data.(w * k + r)]; adds nothing — {e overwrites} [dst.(0 .. k-1)]
      with the intersection count of [probe] (words [0 .. words-1])
      against each row. Zero probe words skip their whole stripe. *)
end

type backend = (module KERNEL)

val popcount_word : int -> int
(** SWAR popcount of one non-negative 62-bit payload word — the scalar
    primitive behind the ["swar"] backend, exported for the
    backend-independent word walks in {!Bitvec} (diff counts, ordered
    iteration). *)

(** Flat closure record of the selected backend — what {!Bitvec} loads
    once per bulk call. *)
type ops = {
  name : string;
  description : string;
  popcount_words : buf -> int -> int;
  inter_count : buf -> buf -> int -> int;
  inter_count_upto : buf -> buf -> int -> limit:int -> int;
  inter_count_many : buf -> buf array -> int -> int array -> unit;
  inter_counts_block :
    probe:buf -> data:buf -> k:int -> words:int -> dst:int array -> unit;
}

val swar : backend
(** Portable pure-OCaml reference implementation. *)

val c : backend
(** C stubs ([__builtin_popcountll], AVX2 when probed). *)

val backends : (string * backend) list
(** Registration order; the position of the selected backend in this
    list is the value of the ["kernel.backend"] telemetry gauge
    (0 = swar, 1 = c). *)

val default_name : string
(** ["c"] — the hardware path is the default; [NDETECT_KERNEL=swar]
    or [--kernel-backend swar] selects the reference. *)

val env_var : string
(** ["NDETECT_KERNEL"], read once at module initialization. *)

val select : string -> (unit, string) result
(** Switch the process-wide backend by name. [Error] names the unknown
    backend and lists the registered ones; the selection is unchanged
    on error. *)

val current : unit -> ops
(** The selected backend's closure record. Callers on hot paths
    dereference this once per bulk call / scanner, not per word. *)

val current_name : unit -> string

val describe : unit -> string
(** ["<name>: <description>"] of the current backend. *)

(** {2 File verification}

    Not backend-dispatched: a fixed C pass the table cache uses to
    checksum a mapped cache file before trusting it. It takes the same
    kind-[int] {!buf} the loader adopts — the C side reads the raw
    64-bit memory directly, so bit 63 is fully visible to this check
    even though an OCaml-side read of the same buffer goes through
    [Val_long] and would silently drop it. Little-endian hosts only
    read files as written; big-endian hosts see mismatching digests and
    fall back to a cache miss (correct, just cold). *)

val verify_region : buf -> off:int -> int -> int64 option
(** Fused single pass over words [off .. off+n-1] as unsigned 64-bit
    values: their lane-split FNV-1a digest ({!Record.digest} of the same
    bytes) when every word is a legal 62-bit payload (bits 62–63 clear),
    [None] otherwise. Four interleaved lanes break the serial
    xor-multiply dependency chain, so the pass runs at memory bandwidth
    instead of multiplier latency. *)
