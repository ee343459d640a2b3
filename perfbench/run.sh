#!/usr/bin/env bash
# Build xqbang and the benchmark from this checkout, then run it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/xqbang.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of an xqbang checkout" >&2
  exit 2
fi
# Build output goes to stderr: the last line of stdout is the result.
dune build --root . ./bin/xqbang.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
