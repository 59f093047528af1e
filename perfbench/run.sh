#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the root of the
# repository; every argument goes to perfbench/src/main.exe:
#
#   bash perfbench/run.sh --workload bulk|churn|failover|all \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr, so the last line of stdout is the JSON
# result. The dune cache is off so that nothing is written outside the
# checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/src/main.exe 1>&2
exec ./_build/default/perfbench/src/main.exe "$@"
