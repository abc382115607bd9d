#!/bin/sh
# Formatting gate for `dune runtest`: verifies every .ml/.mli is clean
# under ocamlformat. Skips successfully when the formatter (or a
# .ocamlformat profile) is not available, so the test suite does not
# depend on the tool being installed in every environment.
set -eu

root=$(dirname "$0")/..
cd "$root"

files=$(find bin lib test tools -name '*.ml' -o -name '*.mli')

# Sanity-check the sweep's coverage before trusting it (even when the
# formatter is absent): the differential-oracle library and its
# reference kernel, the kernel module, the record container, the
# Definition-2 oracle, the strategy stamp and the estimator must be in
# the file list — a rename or a narrowed find would otherwise silently
# drop them from the gate. A path ending in / requires some file below
# it; any other path requires exactly that file.
for required in lib/check/ lib/check/ref_kernel.ml lib/util/kernel.ml \
    lib/util/record.ml lib/core/definition2.ml lib/sim/strategy.ml \
    lib/estimate/; do
  case $required in
    */) match="grep -q ^$required" ;;
    *) match="grep -qxF $required" ;;
  esac
  if ! printf '%s\n' "$files" | $match; then
    echo "check-fmt: $required missing from the sweep"
    exit 1
  fi
done

if ! command -v ocamlformat >/dev/null 2>&1; then
  echo "check-fmt: ocamlformat not installed; skipping"
  exit 0
fi

if [ ! -f .ocamlformat ]; then
  echo "check-fmt: no .ocamlformat profile; skipping"
  exit 0
fi

status=0
for f in $files; do
  if ! ocamlformat --check "$f"; then
    echo "check-fmt: $f is not formatted"
    status=1
  fi
done
exit $status
