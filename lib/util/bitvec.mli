(** Dense fixed-length bit vectors.

    The analysis represents every detection set [T(h)] as a bit vector over
    the input universe [U = 0 .. 2^PI - 1], so intersection sizes
    ([M(g, f)]) and cardinalities ([N(f)]) reduce to word-wise logic and
    popcounts.

    Vectors are backed by {!Kernel.buf} bigarrays (untagged native
    words), and every bulk counting operation calls the C kernel
    ({!Kernel}) directly. *)

type t
(** A fixed-length vector of bits. Indices run from [0] to [length - 1]. *)

val bits_per_word : int
(** Payload bits per backing word (62 — the bit-parallel simulator's
    batch width). *)

val word_count : int -> int
(** [word_count len] is [ceil (len / bits_per_word)] — payload words
    needed for [len] bits (backing buffers are at least 1 word even for
    [len = 0]). *)

val create : int -> t
(** [create len] is an all-zero vector of [len] bits. *)

val create_many : int -> int -> t array
(** [create_many n len] is [n] all-zero vectors of [len] bits backed by
    {e one} contiguous allocation (element [i] is a zero-copy view of
    words [i * word_count len ..]). Behaviourally identical to
    [Array.init n (fun _ -> create len)] but with a single zero-fill
    instead of [n] — the batched fault simulator allocates every
    detection set of a call this way, where per-set allocation would
    dominate on small universes. The pool stays live while any element
    does. *)

val of_view : int -> Kernel.buf -> t
(** [of_view len buf] wraps an external word buffer — typically an
    [Array1.sub] view into an mmap'd table file — as a [len]-bit vector
    {e without copying}. [buf] must have exactly
    [max 1 (word_count len)] words, with every bit at or above [len]
    zero (the table cache verifies this via its checksums before
    constructing views). Mutating the view mutates the buffer. *)

val length : t -> int

val copy : t -> t

val get : t -> int -> bool
(** Raises [Invalid_argument] when the index is out of bounds. *)

val set : t -> int -> unit

val clear : t -> int -> unit

val assign : t -> int -> bool -> unit

val is_empty : t -> bool

val count : t -> int
(** Number of set bits. *)

val equal : t -> t -> bool
(** Structural equality: equal lengths and equal words
    ({!Kernel.equal_words}; no polymorphic compare). *)

val compare : t -> t -> int
(** Total order consistent with {!equal}: by length, then lexicographic
    on the word arrays. *)

val hash : t -> int
(** Content hash ({!Kernel.hash_words} over the backing words):
    {!equal} vectors hash identically. Non-negative, well mixed in its
    low bits (the bits {!Index} masks), and never stored on disk. *)

val word_length : t -> int
(** Number of backing words ([ceil (length / 62)], at least 1). *)

val unsafe_get_word : t -> int -> int
(** Raw 62-bit payload word [w] (bits [62w .. 62w+61]). No bounds
    check. *)

val unsafe_set_word : t -> int -> int -> unit
(** Overwrite payload word [w]. No bounds check; the caller must not set
    bits at or above [length] (bit-parallel callers pass masks already
    ANDed with the batch live mask). *)

val lowest_bit : int -> int
(** [lowest_bit w] is the position of the lowest set bit of a nonzero
    payload word, so word [wi]'s bits are the vectors [62 wi +
    lowest_bit w] as [w] loses its lowest bit ([w land (w - 1)]). *)

val inter_count : t -> t -> int
(** [inter_count a b] is [count (inter a b)] without allocating. Lengths
    must agree. For the blocked worst-case scan see {!Blocked}. *)

val inter : t -> t -> t

val union : t -> t -> t

val diff : t -> t -> t
(** [diff a b] has the bits of [a] not in [b]. *)

val union_in_place : t -> t -> unit
(** [union_in_place a b] sets [a := a OR b]. *)

val inter_hash_into : t -> t -> t -> int
(** [inter_hash_into dst a b] overwrites [dst] with [a AND b] and
    hashes it in the same pass ({!Kernel.inter_hash_into}): [-1] when
    the product is empty, otherwise [hash dst]. All three lengths must
    agree. *)

val intersects : t -> t -> bool
(** [intersects a b] iff [a] and [b] share a set bit: [inter_count a b
    > 0], but the sweep stops at the first word they share. *)

val subset : t -> t -> bool
(** [subset a b] iff every bit of [a] is set in [b]. *)

val iter_set : t -> (int -> unit) -> unit
(** Calls the function on every set index in increasing order. *)

val to_list : t -> int list
(** Indices of set bits, increasing. *)

val of_list : int -> int list -> t
(** [of_list len indices]. *)

val fold_set : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val choose : t -> int option
(** Lowest set index, if any. *)

val nth_set : t -> int -> int
(** [nth_set t k] is the index of the [k]-th set bit (0-based). Raises
    [Not_found] when fewer than [k+1] bits are set. Used for uniform random
    choice out of a detection set. *)

val nth_diff : t -> t -> int -> int
(** [nth_diff a b k] is the index of the [k]-th set bit of [diff a b],
    without allocating; word-skipping, O(words). Raises [Not_found] when
    the difference has fewer than [k+1] bits. This is how Procedure 1
    draws a uniform test from [T(f) - Tk]. *)

val diff_desc_into : t -> t -> int array -> unit
(** [diff_desc_into a b dst] fills [dst] with the set bits of [diff a b]
    in decreasing order, without allocating. Raises [Invalid_argument]
    unless [dst] has exactly as many elements as the difference has
    bits. Procedure 1's candidate scan lists [T(f) - Tk] this way. *)

val pp : Format.formatter -> t -> unit
(** Prints as a set of indices, e.g. [{1; 4; 7}]. *)

(** The content index: classes of equal vectors, numbered in first-seen
    order. Every content dedup of the analysis goes through it: bridge
    products, the table's stuck-at sets, the deduplicated target
    layout, plain-array nmin scans, the table cache's pool and the
    differential campaign's memo. Open addressing over arrays of
    hashes and class ids; a probe compares stored hashes first and then
    always the words, so equal hashes alone never merge two classes. *)
module Index : sig
  type vec := t
  type t

  val create : ?debug_trust_hash:bool -> int -> t
  (** [create n] is an empty index sized for about [n] classes; it
      grows as needed. [debug_trust_hash] (default [false]) is a
      test-only sabotage: the index cuts every hash to 4 bits and
      trusts a hash match without comparing words, so distinct
      contents merge. *)

  val add : ?copy:bool -> ?hash:int -> t -> vec -> int
  (** The class of the vector's content. A content not seen before
      opens class [classes t] (first-seen numbering) and is kept as its
      representative: the vector itself, or a copy when [copy]
      (default [false]; a caller reusing a scratch buffer sets it).
      [hash] defaults to {!hash} of the vector; the bridge build passes
      the one {!inter_hash_into} returned, which is the same. Equal
      contents must always come with equal hashes, or they may open two
      classes; unequal contents never share a class, whatever the
      hashes (a constant one only costs probes). *)

  val classes : t -> int
  (** Number of classes so far. [add] returned a known class iff the
      count did not grow. *)

  val to_array : t -> vec array
  (** Every representative, by class id. *)
end

(** Cache-blocked, word-major storage for a family of equal-length
    vectors. Rows are grouped into blocks; within a block, word [w] of
    every row is contiguous, so one pass over a probe vector's words
    scans a short stripe per word and skips stripes whose probe word is
    zero. This is the layout the worst-case scan ({!Blocked.scan})
    walks. *)
module Blocked : sig
  type vec := t
  type t

  val pack : ?block_size:int -> vec array -> t
  (** Pack rows (all of one length) into blocks of [block_size]
      (default 8). Row order is preserved: row [i] of the pack is
      [vectors.(i)]. The layout is one contiguous buffer: block [b]
      starts at word [b * block_size * words_per_row], and inside a
      block word [w] of row [r] is at offset [w * k + r] ([k] rows in
      the block) — exactly the bytes {!raw} exposes and {!of_buffer}
      adopts. *)

  val of_buffer : ?block_size:int -> len:int -> rows:int -> Kernel.buf -> t
  (** Adopt an existing contiguous blocked layout — typically a view
      into an mmap'd table cache file — {e without copying}. The buffer
      must hold at least [rows * max 1 (word_count len)] words laid out
      as {!pack} writes them (same [block_size]); contents are trusted
      (the table cache checksum-verifies before adopting). *)

  val raw : t -> Kernel.buf
  (** The contiguous backing buffer ([rows * words_per_row] payload
      words) — what the table cache writes to disk. *)

  val words_per_row : t -> int

  val rows : t -> int

  val length : t -> int
  (** The rows' length in bits. *)

  val block_size : t -> int

  val scan : t -> row_n:int array -> probe_count:int -> vec -> int array -> unit
  (** [scan t ~row_n ~probe_count probe out] is the worst-case scan of
      one probe over every row, in one {!Kernel.blocked_scan} call.
      [row_n.(r)] is row [r]'s own count, N-ascending for the early
      exit to be sound, and [probe_count] is [|probe|]. Before each
      block the scan stops once the best value is 1 or
      [row_n.(base) - probe_count + 1] reaches it. It writes
      [out.(0)] = the smallest [row_n.(r) - |probe ∩ row r| + 1] over
      the rows it counted with a nonzero intersection ([max_int] if
      none), [out.(1)] = the first row attaining it ([-1] if none),
      [out.(2)] = the blocks it counted, and [out.(3)] = 1 if it
      stopped before the last block, else 0. Raises [Invalid_argument]
      unless [probe] has the rows' length (any length scans zero
      rows), [row_n] one entry per row and [out] at least four. *)
end
