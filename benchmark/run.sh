#!/bin/sh
# Builds whybench from the sources of this checkout, then runs it with
# the given arguments. Run from the repository root:
#   sh benchmark/run.sh --workload explain-dense --seed 1 --seconds 15 --trace 0
# The build writes only to _build/ (the shared dune cache is off); a
# failed build exits non-zero before anything is measured.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./benchmark/whybench.exe 1>&2
exec ./_build/default/benchmark/whybench.exe "$@"
