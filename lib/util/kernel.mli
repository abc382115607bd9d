(** The intersection/popcount kernel.

    Every hot counting primitive of the analysis — [N(f)] popcounts,
    [M(g, f)] intersection sizes, the blocked worst-case scan under
    {!Ndetect_core.Worst_case} — reduces to a handful of bulk operations
    over raw 62-bit word buffers. They are C stubs over
    [__builtin_popcountll], compiled with an AVX2 inner loop when the
    build probe grants [-march=native] (see [lib/util/probe_cflags.sh]).
    The vector loop is additionally gated at runtime by a memoized CPUID
    probe ([__builtin_cpu_supports("avx2")]), so a binary built on a
    newer host falls back to the scalar path — never SIGILL — on a
    machine without AVX2.

    There is one kernel and no runtime switch. Its pure-OCaml SWAR
    reference is [Ndetect_check.Ref_kernel]; [test/test_util.ml] and
    [ndetect check] compare the two on every entry point.

    All word counts are the caller's: the kernel never re-derives buffer
    sizes, so sub-views and oversized backing buffers behave
    identically. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A raw word buffer: 62-bit non-negative payload words stored as
    untagged native ints in C layout. [Bigarray.Array1.sub] yields
    zero-copy views, and [Unix.map_file] yields buffers backed by a
    file — both are valid kernel operands (the C stubs read the data
    pointer directly). The two bits above the payload must be zero. *)

val popcount_word : int -> int
(** SWAR popcount of one non-negative 62-bit payload word, for the
    word walks in {!Bitvec} that are not bulk counts (diff counts,
    ordered iteration). *)

external popcount_words : buf -> int -> int = "ndetect_c_popcount_words"
[@@noalloc]
(** [popcount_words b n] is the number of set bits in words
    [0 .. n-1]. *)

external inter_count : buf -> buf -> int -> int = "ndetect_c_inter_count"
[@@noalloc]
(** [inter_count a b n] is the popcount of [a AND b] over words
    [0 .. n-1]. *)

external blocked_scan :
  buf -> buf -> int array -> int -> int -> int -> int array -> unit
  = "ndetect_c_blocked_scan_byte" "ndetect_c_blocked_scan"
[@@noalloc]
(** The worst-case scan over a blocked layout, in one call:
    [blocked_scan probe data row_n block_size words probe_count out].
    [data] holds [Array.length row_n] rows of [words] words in blocks of
    [block_size] rows; inside a block of [k] rows, word [w] of row [r]
    is at [base * words + w * k + r], [base] being the block's first
    row. Before each block the scan stops when the best value so far is
    1 or [row_n.(base) - probe_count + 1] reaches it; otherwise it
    counts [|probe ∩ row|] for the block's rows and keeps the first row
    with the smallest [row_n.(r) - count + 1] among rows with a nonzero
    count. It writes [out.(0)] = that value ([max_int] if none),
    [out.(1)] = its row ([-1] if none), [out.(2)] = blocks counted and
    [out.(3)] = 1 if the scan stopped before the last block, else 0.
    Full 8-row blocks run two 256-bit stripes on AVX2 hosts; other
    blocks, and hosts without AVX2, a scalar loop. Zero probe words
    skip their whole stripe. *)

(** {2 Content hashing}

    The hash behind {!Bitvec.hash} and the content index
    ({!Bitvec.Index}). Word [i] feeds lane [i mod 4] through a
    rotate-xor-multiply round, so the four lanes are independent
    dependency chains; the lanes and the word count fold into one value
    that murmur3's fmix64 avalanches, because the index masks the
    {e low} bits of the hash. Results are 62-bit, non-negative. Hashes
    are never written to disk, so the function may change freely. Its
    OCaml twin is [Ndetect_check.Ref_kernel.inter_hash_into]. *)

external hash_words : buf -> int -> int = "ndetect_c_hash_words" [@@noalloc]
(** [hash_words b n] is the content hash of words [0 .. n-1]. *)

external inter_hash_into : buf -> buf -> buf -> int -> int
  = "ndetect_c_inter_hash_into"
[@@noalloc]
(** [inter_hash_into dst a b n] writes [a AND b] into words
    [0 .. n-1] of [dst] and, in the same pass, hashes it: [-1] when the
    product is all zero, otherwise [hash_words dst n]. [dst] may be [a]
    or [b]. *)

external equal_words : buf -> buf -> int -> bool = "ndetect_c_equal_words"
[@@noalloc]
(** [equal_words a b n] iff words [0 .. n-1] of [a] and [b] agree
    ([memcmp]): {!Bitvec.equal}, and so the index's word check on every
    hash match. *)

val current_name : unit -> string
(** ["c"], always. Benchmark records carry it as their kernel stamp. *)

(** {2 File verification}

    A fixed C pass the table cache uses to checksum a mapped cache file
    before trusting it. It takes the same kind-[int] {!buf} the loader
    adopts — the C side reads the raw 64-bit memory directly, so bit 63
    is fully visible to this check even though an OCaml-side read of the
    same buffer goes through [Val_long] and would silently drop it.
    Little-endian hosts only read files as written; big-endian hosts see
    mismatching digests and fall back to a cache miss (correct, just
    cold). *)

external verify_region : buf -> off:int -> int -> int64 option
  = "ndetect_c_verify_region"
(** Fused single pass over words [off .. off+n-1] as unsigned 64-bit
    values: their lane-split FNV-1a digest ({!Record.digest} of the same
    bytes) when every word is a legal 62-bit payload (bits 62–63 clear),
    [None] otherwise. Four interleaved lanes break the serial
    xor-multiply dependency chain, so the pass runs at memory bandwidth
    instead of multiplier latency. *)
