#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources beside it, then runs
# it with the given arguments from the repository root (see
# e2ebench/README.md). Build output goes to stderr, so the last line of
# stdout is the benchmark's result line.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/e2e.exe 1>&2
exec ./_build/default/e2ebench/e2e.exe "$@"
