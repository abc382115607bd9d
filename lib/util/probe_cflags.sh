#!/bin/sh
# Feature probe for the C kernel stubs (lib/util/kernel_stubs.c):
# emit the cflags sexp consumed by the dune (:include) clause.
#
#   usage: probe_cflags.sh CC OUTPUT
#
# Grants -O2 -march=native only when CC accepts the flag, the AVX2
# intrinsics used by the stubs compile under it, and the resulting
# binary actually runs on this host (compile host = run host here, so
# an illegal-instruction trap is caught at probe time, not in the
# analysis). Any failure falls back to portable -O2 — the stubs then
# build without __AVX2__ and use plain __builtin_popcountll. Both
# branches add -Wall -Wextra -Werror: the stubs must compile cleanly.
set -eu

cc=${1:-cc}
out=${2:-c_flags.sexp}
warnings='-Wall -Wextra -Werror'

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

cat > "$tmpdir/probe.c" <<'EOF'
#include <stdint.h>
#if defined(__AVX2__)
#include <immintrin.h>
#endif
int main(void) {
  uint64_t w = 0x5aULL;
#if defined(__AVX2__)
  __m256i v = _mm256_set1_epi64x((long long)w);
  __m256i s = _mm256_sad_epu8(_mm256_setzero_si256(), _mm256_setzero_si256());
  w += (uint64_t)_mm256_extract_epi64(_mm256_add_epi64(v, s), 0) & 1u;
#endif
  return __builtin_popcountll(w) > 0 ? 0 : 1;
}
EOF

if $cc -O2 -march=native -o "$tmpdir/probe" "$tmpdir/probe.c" \
    >/dev/null 2>&1 && "$tmpdir/probe" >/dev/null 2>&1; then
  printf '(-O2 -march=native %s)\n' "$warnings" > "$out"
else
  printf '(-O2 %s)\n' "$warnings" > "$out"
fi
