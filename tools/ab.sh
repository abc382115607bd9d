#!/usr/bin/env bash
# A/B benchmark of this checkout against an earlier commit.
#
#   tools/ab.sh REV [--out DIR] [--workload NAME]... [--first-seed N]
#
# Exports REV (the parent, side A) into a temporary directory with
# `git archive`, then runs `bash e2ebench/run.sh --trace 0` for REV and
# for this working tree (side B, uncommitted edits included) in
# alternation: pair i uses seed N + i - 1 on both sides (N is
# --first-seed, default 1), odd pairs run A then B and even pairs B
# then A (A, B, B, A, ...), so a slow spell of the host lands on both
# sides. Every workload of BENCHMARK.json, or only those named with
# --workload, is measured for 10 pairs of the benchmark's run_seconds,
# the fixed shape a claimed gain is judged on. Then each side runs every
# workload once more with `--trace 1`, on seed N + 10 (a seed no pair
# used). Last, e2ebench/compare.exe (built from this tree) compares the
# untraced record sets under BENCHMARK.json, and tools/layers.exe
# prints the traced runs' per_layer metrics side by side, so a verdict
# and its layer explanation come from one invocation; compare.exe's exit
# status is the script's. Records are kept in DIR/parent and DIR/change,
# the traced ones in DIR/parent-trace and DIR/change-trace (DIR defaults
# to a new temporary directory).
set -euo pipefail

usage() {
  echo "usage: tools/ab.sh REV [--out DIR] [--workload NAME]... [--first-seed N]" >&2
  exit 2
}

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

# BENCHMARK.json is one flat JSON object; sed is enough to read the two
# fields used here.
mapfile -t all_workloads < <(sed -n 's/.*"name": *"\([a-z0-9-]*\)", *"why".*/\1/p' BENCHMARK.json)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

pairs=10
out=
first_seed=1
workloads=()
[ $# -ge 1 ] || usage
rev=$1
shift
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --out) out=$2 ;;
    --workload)
      [[ " ${all_workloads[*]} " == *" $2 "* ]] || {
        echo "ab: unknown workload $2 (BENCHMARK.json has: ${all_workloads[*]})" >&2
        exit 2
      }
      workloads+=("$2") ;;
    --first-seed)
      [[ $2 =~ ^[0-9]+$ ]] || usage
      first_seed=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[ ${#workloads[@]} -gt 0 ] || workloads=("${all_workloads[@]}")

commit=$(git rev-parse --verify "$rev^{commit}")
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/ndetect-ab.XXXXXX")
parent_tree=$(mktemp -d "${TMPDIR:-/tmp}/ndetect-ab-tree.XXXXXX")
trap 'rm -rf "$parent_tree"' EXIT
mkdir -p "$out/parent" "$out/change" "$out/parent-trace" "$out/change-trace"
git archive "$commit" | tar -x -C "$parent_tree"

echo "ab: parent $commit vs working tree; ${workloads[*]}; $pairs pairs of ${seconds}s runs, seeds $first_seed-$((first_seed + pairs - 1)); records in $out" >&2

run() { # side tree workload seed [trace]
  local trace=${5:-0} dir=$1
  [ "$trace" = 0 ] || dir=$1-trace
  local json="$out/$dir/$3-seed$4.json"
  echo "ab: $dir $3 seed $4" >&2
  # A run that fails still leaves its record (correct: false), which
  # the comparator reports; a missing record is the error here.
  bash "$2/e2ebench/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" \
    --trace "$trace" --json "$json" > /dev/null || true
  [ -s "$json" ] || { echo "ab: $1 $3 seed $4 wrote no record" >&2; exit 1; }
}

for ((i = 1; i <= pairs; i++)); do
  seed=$((first_seed + i - 1))
  for w in "${workloads[@]}"; do
    if ((i % 2 == 1)); then
      run parent "$parent_tree" "$w" "$seed"
      run change "$root" "$w" "$seed"
    else
      run change "$root" "$w" "$seed"
      run parent "$parent_tree" "$w" "$seed"
    fi
  done
done

trace_seed=$((first_seed + pairs))
for w in "${workloads[@]}"; do
  run parent "$parent_tree" "$w" "$trace_seed" 1
  run change "$root" "$w" "$trace_seed" 1
done

DUNE_CACHE=disabled dune build --root . --display quiet \
  ./e2ebench/compare.exe ./tools/layers.exe 1>&2
status=0
./_build/default/e2ebench/compare.exe --bench BENCHMARK.json \
  "$out"/parent/*.json -- "$out"/change/*.json || status=$?
echo
./_build/default/tools/layers.exe --bench BENCHMARK.json \
  "$out"/parent-trace/*.json -- "$out"/change-trace/*.json
exit "$status"
