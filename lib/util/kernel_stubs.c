/* The popcount/intersection kernel behind Ndetect_util.Kernel.
 *
 * Operands are OCaml bigarrays of kind int (untagged native words, low
 * 62 bits carry the payload, top two bits are zero by the Bitvec
 * invariant), so the data pointer can be popcounted directly with
 * __builtin_popcountll. When the dune feature probe
 * (lib/util/probe_cflags.sh) grants -march=native and the host has
 * AVX2, the long sweeps additionally run a 4-words-per-iteration
 * nibble-LUT popcount (Mula's method); the scalar tail keeps results
 * exactly equal to the SWAR reference (Ndetect_check.Ref_kernel) on
 * every length. Compiling with AVX2 enabled is not the same as running
 * on an AVX2 host (a binary built with -march=native can be copied to
 * an older machine), so the vector loops are additionally gated by a
 * memoized runtime __builtin_cpu_supports("avx2") probe and fall back
 * to the scalar __builtin_popcountll path when the CPU lacks them.
 *
 * Every stub is [@@noalloc]: no OCaml allocation, no callbacks, and the
 * only OCaml-heap writes are immediate ints (Val_long) into int arrays,
 * which need no write barrier. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/bigarray.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>

/* Runtime CPUID gate for the vector loops below. Memoized: -1 =
 * unprobed; the benign race on first use is idempotent. The builtin
 * handles cpuid caching itself, but __builtin_cpu_init() is required
 * before __builtin_cpu_supports on older GCCs when not called from
 * main, and is safe to call repeatedly. */
static int ndetect_avx2_state = -1;

static inline int ndetect_have_avx2(void) {
  if (ndetect_avx2_state < 0) {
    __builtin_cpu_init();
    ndetect_avx2_state = __builtin_cpu_supports("avx2") ? 1 : 0;
  }
  return ndetect_avx2_state;
}

/* Per-byte popcount of a 256-bit vector (0..8 per byte): nibble
 * lookup (Mula). */
static inline __m256i ndetect_bytecount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low_mask);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

/* Per-64-bit-lane popcount of a 256-bit vector: byte counts + psadbw
 * horizontal byte sums. */
static inline __m256i ndetect_popcnt256(__m256i v) {
  return _mm256_sad_epu8(ndetect_bytecount256(v), _mm256_setzero_si256());
}

static inline intnat ndetect_hsum256(__m256i acc) {
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi64(lo, hi);
  return (intnat)(_mm_extract_epi64(s, 0) + _mm_extract_epi64(s, 1));
}
#endif

static intnat ndetect_pc_words(const uint64_t *a, intnat n) {
  intnat acc = 0;
  intnat i = 0;
#if defined(__AVX2__)
  if (ndetect_have_avx2()) {
    __m256i vacc = _mm256_setzero_si256();
    for (; i + 4 <= n; i += 4) {
      __m256i va = _mm256_loadu_si256((const __m256i *)(a + i));
      vacc = _mm256_add_epi64(vacc, ndetect_popcnt256(va));
    }
    acc = ndetect_hsum256(vacc);
  }
#endif
  for (; i < n; i++) acc += __builtin_popcountll(a[i]);
  return acc;
}

static intnat ndetect_pc_and(const uint64_t *a, const uint64_t *b, intnat n) {
  intnat acc = 0;
  intnat i = 0;
#if defined(__AVX2__)
  if (ndetect_have_avx2()) {
    __m256i vacc = _mm256_setzero_si256();
    for (; i + 4 <= n; i += 4) {
      __m256i va = _mm256_loadu_si256((const __m256i *)(a + i));
      __m256i vb = _mm256_loadu_si256((const __m256i *)(b + i));
      vacc =
          _mm256_add_epi64(vacc, ndetect_popcnt256(_mm256_and_si256(va, vb)));
    }
    acc = ndetect_hsum256(vacc);
  }
#endif
  for (; i < n; i++) acc += __builtin_popcountll(a[i] & b[i]);
  return acc;
}

CAMLprim value ndetect_c_popcount_words(value vb, value vn) {
  return Val_long(
      ndetect_pc_words((const uint64_t *)Caml_ba_data_val(vb), Long_val(vn)));
}

CAMLprim value ndetect_c_inter_count(value va, value vb, value vn) {
  return Val_long(ndetect_pc_and((const uint64_t *)Caml_ba_data_val(va),
                                 (const uint64_t *)Caml_ba_data_val(vb),
                                 Long_val(vn)));
}

/* The worst-case scan (Bitvec.Blocked.scan): one call walks every
 * block of an N-ascending blocked layout for one probe. Inside block b
 * (base row b * bs, k rows) word w of row r sits at
 * data[base * words + w * k + r]. Before each block the scan stops
 * when best = 1 or row_n[base] - probe_count + 1 >= best, since
 * M <= |probe| and rows are N-ascending, no later row can improve on
 * best; otherwise it counts the block's rows and keeps the first row
 * with the smallest row_n[r] - M + 1 over rows with M > 0. Counts live
 * in a stack buffer, NDETECT_SCAN_ROWS rows at a time (a wider block
 * sweeps the probe once per chunk). */
#define NDETECT_SCAN_ROWS 64

/* cnt[r] = popcount(probe AND row r0 + r) for r < kk over the block's
 * k interleaved rows. Zero probe words skip their whole stripe. */
static void ndetect_rows_scalar(const uint64_t *p, const uint64_t *d,
                                intnat k, intnat r0, intnat kk,
                                intnat words, intnat *cnt) {
  intnat w, r;
  for (r = 0; r < kk; r++) cnt[r] = 0;
  for (w = 0; w < words; w++) {
    uint64_t a = p[w];
    if (a) {
      const uint64_t *row = d + (size_t)w * (size_t)k + r0;
      for (r = 0; r < kk; r++) cnt[r] += __builtin_popcountll(a & row[r]);
    }
  }
}

#if defined(__AVX2__)
/* A full 8-row block: the 8 row words of one probe word are contiguous,
 * two 256-bit stripes of four rows each. Nibble-LUT byte counts (at
 * most 8 per byte per word) accumulate in bytes and are flushed to the
 * per-row 64-bit lanes by _mm256_sad_epu8 every 31 nonzero probe words,
 * before a byte could pass 255. */
static void ndetect_rows8_avx2(const uint64_t *p, const uint64_t *d,
                               intnat words, intnat *cnt) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc0 = zero, acc1 = zero, bytes0 = zero, bytes1 = zero;
  int pending = 0;
  intnat w;
  uint64_t out[8];
  for (w = 0; w < words; w++) {
    uint64_t a = p[w];
    if (a) {
      const __m256i va = _mm256_set1_epi64x((long long)a);
      const __m256i *row = (const __m256i *)(d + (size_t)w * 8);
      bytes0 = _mm256_add_epi8(
          bytes0, ndetect_bytecount256(
                      _mm256_and_si256(_mm256_loadu_si256(row), va)));
      bytes1 = _mm256_add_epi8(
          bytes1, ndetect_bytecount256(
                      _mm256_and_si256(_mm256_loadu_si256(row + 1), va)));
      if (++pending == 31) {
        acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(bytes0, zero));
        acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(bytes1, zero));
        bytes0 = bytes1 = zero;
        pending = 0;
      }
    }
  }
  acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(bytes0, zero));
  acc1 = _mm256_add_epi64(acc1, _mm256_sad_epu8(bytes1, zero));
  _mm256_storeu_si256((__m256i *)out, acc0);
  _mm256_storeu_si256((__m256i *)(out + 4), acc1);
  for (w = 0; w < 8; w++) cnt[w] = (intnat)out[w];
}
#endif

CAMLprim value ndetect_c_blocked_scan(value vprobe, value vdata, value vrow_n,
                                      value vblock_size, value vwords,
                                      value vprobe_count, value vout) {
  const uint64_t *p = (const uint64_t *)Caml_ba_data_val(vprobe);
  const uint64_t *data = (const uint64_t *)Caml_ba_data_val(vdata);
  intnat rows = (intnat)Wosize_val(vrow_n);
  intnat bs = Long_val(vblock_size);
  intnat words = Long_val(vwords);
  intnat probe_count = Long_val(vprobe_count);
  intnat best = Max_long, witness = -1, blocks = 0, exited = 0;
  intnat cnt[NDETECT_SCAN_ROWS];
  intnat base, r0, r;
  for (base = 0; base < rows; base += bs) {
    intnat k = rows - base < bs ? rows - base : bs;
    const uint64_t *d = data + (size_t)base * (size_t)words;
    if (best == 1 || Long_val(Field(vrow_n, base)) - probe_count + 1 >= best) {
      exited = 1;
      break;
    }
    blocks++;
    for (r0 = 0; r0 < k; r0 += NDETECT_SCAN_ROWS) {
      intnat kk = k - r0 < NDETECT_SCAN_ROWS ? k - r0 : NDETECT_SCAN_ROWS;
#if defined(__AVX2__)
      if (k == 8 && ndetect_have_avx2())
        ndetect_rows8_avx2(p, d, words, cnt);
      else
#endif
        ndetect_rows_scalar(p, d, k, r0, kk, words, cnt);
      for (r = 0; r < kk; r++) {
        intnat m = cnt[r];
        if (m > 0) {
          intnat c = Long_val(Field(vrow_n, base + r0 + r)) - m + 1;
          if (c < best) {
            best = c;
            witness = base + r0 + r;
          }
        }
      }
    }
  }
  Field(vout, 0) = Val_long(best);
  Field(vout, 1) = Val_long(witness);
  Field(vout, 2) = Val_long(blocks);
  Field(vout, 3) = Val_long(exited);
  return Val_unit;
}

CAMLprim value ndetect_c_blocked_scan_byte(value *argv, int argn) {
  (void)argn;
  return ndetect_c_blocked_scan(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6]);
}

/* File verification (not backend-dispatched; used by the table-cache
 * loader over a read-only mapping of a cache file). It takes the same
 * kind-int bigarray the loader adopts: C reads the raw 64-bit memory
 * directly, so bit 63 is fully visible here even though OCaml-side
 * reads of the same buffer go through Val_long and would silently drop
 * it. A single linear pass at memory bandwidth — the
 * pure-OCaml equivalent boxes an Int64 per word and is ~50x slower on
 * multi-megabyte tables. */

#define NDETECT_FNV_BASIS UINT64_C(0xcbf29ce484222325)
#define NDETECT_FNV_PRIME UINT64_C(0x100000001b3)

/* Four-lane FNV-1a: lane k digests the words at indices == k (mod 4),
 * and the region digest folds the four lane digests (as words, in lane
 * order) into a fifth FNV-1a chain. Splitting the lanes breaks the
 * serial xor-multiply dependency chain — a single chain runs at the
 * multiplier's latency (~5 cycles/word), four interleaved chains run
 * at memory bandwidth. The OCaml writer in Record computes the same
 * function; changing either side is a format break. */
static uint64_t ndetect_fnv1a_region(const uint64_t *a, intnat n,
                                     uint64_t *seen_out) {
  uint64_t h0 = NDETECT_FNV_BASIS, h1 = NDETECT_FNV_BASIS;
  uint64_t h2 = NDETECT_FNV_BASIS, h3 = NDETECT_FNV_BASIS;
  uint64_t seen = 0;
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    uint64_t w0 = a[i], w1 = a[i + 1], w2 = a[i + 2], w3 = a[i + 3];
    seen |= w0 | w1 | w2 | w3;
    h0 = (h0 ^ w0) * NDETECT_FNV_PRIME;
    h1 = (h1 ^ w1) * NDETECT_FNV_PRIME;
    h2 = (h2 ^ w2) * NDETECT_FNV_PRIME;
    h3 = (h3 ^ w3) * NDETECT_FNV_PRIME;
  }
  for (; i < n; i++) {
    uint64_t w = a[i];
    seen |= w;
    switch (i & 3) {
    case 0: h0 = (h0 ^ w) * NDETECT_FNV_PRIME; break;
    case 1: h1 = (h1 ^ w) * NDETECT_FNV_PRIME; break;
    case 2: h2 = (h2 ^ w) * NDETECT_FNV_PRIME; break;
    default: h3 = (h3 ^ w) * NDETECT_FNV_PRIME; break;
    }
  }
  *seen_out = seen;
  {
    uint64_t h = NDETECT_FNV_BASIS;
    h = (h ^ h0) * NDETECT_FNV_PRIME;
    h = (h ^ h1) * NDETECT_FNV_PRIME;
    h = (h ^ h2) * NDETECT_FNV_PRIME;
    h = (h ^ h3) * NDETECT_FNV_PRIME;
    return h;
  }
}

/* Fused digest + 62-bit payload range check over the same region in one
 * sweep: Some digest when every word has bits 62-63 clear, None
 * otherwise (one pass instead of two halves the memory traffic and the
 * page-fault count on a freshly mapped file). */
CAMLprim value ndetect_c_verify_region(value vb, value voff, value vn) {
  CAMLparam3(vb, voff, vn);
  CAMLlocal2(vdigest, vsome);
  const uint64_t *a = (const uint64_t *)Caml_ba_data_val(vb) + Long_val(voff);
  uint64_t seen = 0;
  uint64_t h = ndetect_fnv1a_region(a, Long_val(vn), &seen);
  if ((seen >> 62) != 0) CAMLreturn(Val_none);
  vdigest = caml_copy_int64((int64_t)h);
  vsome = caml_alloc_small(1, Tag_some);
  Field(vsome, 0) = vdigest;
  CAMLreturn(vsome);
}

/* Content hash (Bitvec.hash, Kernel.inter_hash_into). Word i feeds lane
 * i mod 4 through a rotate-xor-multiply round, every step a bijection
 * of the lane state, so the four lanes run as independent dependency
 * chains. The lanes and the word count fold into one value that
 * murmur3's fmix64 avalanches: the content index masks the LOW bits of
 * the hash, and a bare xor-multiply chain only carries differences
 * upwards, so without the final mix vectors differing in high bits
 * would share their low bits. The result is cut to 62 bits, a
 * non-negative OCaml int. Hashes are never written to disk; the OCaml
 * twin is Ndetect_check.Ref_kernel.inter_hash_into. */

#define NDETECT_HASH_P1 UINT64_C(0x9E3779B185EBCA87)
#define NDETECT_HASH_P2 UINT64_C(0xC2B2AE3D27D4EB4F)
#define NDETECT_HASH_P3 UINT64_C(0x165667B19E3779F9)

static inline uint64_t ndetect_hash_round(uint64_t h, uint64_t w) {
  h ^= w * NDETECT_HASH_P2;
  h = (h << 31) | (h >> 33);
  return h * NDETECT_HASH_P1;
}

static inline uint64_t ndetect_fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= UINT64_C(0xff51afd7ed558ccd);
  k ^= k >> 33;
  k *= UINT64_C(0xc4ceb9fe1a85ec53);
  k ^= k >> 33;
  return k;
}

#define NDETECT_HASH_INIT                                                     \
  uint64_t h0 = NDETECT_HASH_P1, h1 = NDETECT_HASH_P2;                        \
  uint64_t h2 = NDETECT_HASH_P3, h3 = NDETECT_HASH_P1 ^ NDETECT_HASH_P2

static inline intnat ndetect_hash_finish(uint64_t h0, uint64_t h1,
                                         uint64_t h2, uint64_t h3,
                                         intnat n) {
  uint64_t h = (uint64_t)n * NDETECT_HASH_P3;
  h = (h ^ h0) * NDETECT_HASH_P1;
  h = (h ^ h1) * NDETECT_HASH_P1;
  h = (h ^ h2) * NDETECT_HASH_P1;
  h = (h ^ h3) * NDETECT_HASH_P1;
  return (intnat)(ndetect_fmix64(h) & UINT64_C(0x3FFFFFFFFFFFFFFF));
}

static inline void ndetect_hash_lane(uint64_t *h0, uint64_t *h1,
                                     uint64_t *h2, uint64_t *h3, intnat i,
                                     uint64_t w) {
  switch (i & 3) {
  case 0: *h0 = ndetect_hash_round(*h0, w); break;
  case 1: *h1 = ndetect_hash_round(*h1, w); break;
  case 2: *h2 = ndetect_hash_round(*h2, w); break;
  default: *h3 = ndetect_hash_round(*h3, w); break;
  }
}

CAMLprim value ndetect_c_hash_words(value vb, value vn) {
  const uint64_t *a = (const uint64_t *)Caml_ba_data_val(vb);
  intnat n = Long_val(vn);
  intnat i = 0;
  NDETECT_HASH_INIT;
  for (; i + 4 <= n; i += 4) {
    h0 = ndetect_hash_round(h0, a[i]);
    h1 = ndetect_hash_round(h1, a[i + 1]);
    h2 = ndetect_hash_round(h2, a[i + 2]);
    h3 = ndetect_hash_round(h3, a[i + 3]);
  }
  for (; i < n; i++) ndetect_hash_lane(&h0, &h1, &h2, &h3, i, a[i]);
  return Val_long(ndetect_hash_finish(h0, h1, h2, h3, n));
}

/* dst = a AND b over n words, hashed in the same pass: -1 when the
 * product is empty, else the hash ndetect_c_hash_words gives dst. Each
 * group of four words is loaded before it is stored, so dst may be a
 * or b. */
CAMLprim value ndetect_c_inter_hash_into(value vdst, value va, value vb,
                                         value vn) {
  uint64_t *d = (uint64_t *)Caml_ba_data_val(vdst);
  const uint64_t *a = (const uint64_t *)Caml_ba_data_val(va);
  const uint64_t *b = (const uint64_t *)Caml_ba_data_val(vb);
  intnat n = Long_val(vn);
  intnat i = 0;
  uint64_t seen = 0;
  NDETECT_HASH_INIT;
  for (; i + 4 <= n; i += 4) {
    uint64_t w0 = a[i] & b[i], w1 = a[i + 1] & b[i + 1];
    uint64_t w2 = a[i + 2] & b[i + 2], w3 = a[i + 3] & b[i + 3];
    d[i] = w0;
    d[i + 1] = w1;
    d[i + 2] = w2;
    d[i + 3] = w3;
    seen |= w0 | w1 | w2 | w3;
    h0 = ndetect_hash_round(h0, w0);
    h1 = ndetect_hash_round(h1, w1);
    h2 = ndetect_hash_round(h2, w2);
    h3 = ndetect_hash_round(h3, w3);
  }
  for (; i < n; i++) {
    uint64_t w = a[i] & b[i];
    d[i] = w;
    seen |= w;
    ndetect_hash_lane(&h0, &h1, &h2, &h3, i, w);
  }
  if (seen == 0) return Val_long(-1);
  return Val_long(ndetect_hash_finish(h0, h1, h2, h3, n));
}

/* Word equality over n words: the content index's check after a hash
 * match, a full pass over both vectors on every dedup hit. */
CAMLprim value ndetect_c_equal_words(value va, value vb, value vn) {
  return Val_bool(memcmp(Caml_ba_data_val(va), Caml_ba_data_val(vb),
                         (size_t)Long_val(vn) * sizeof(uint64_t)) == 0);
}
