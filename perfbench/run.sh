#!/usr/bin/env bash
# Build the benchmark from the source tree it sits in, then run it.
# Run from the root of the tree:
#
#   bash perfbench/run.sh --workload nqueens --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
