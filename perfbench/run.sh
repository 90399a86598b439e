#!/bin/sh
# Build the program from source (release profile) and run one benchmark
# workload.  Run from the repository root:
#
#     sh perfbench/run.sh --workload tables --seed 1 --seconds 30 --trace 0
#
# Build output goes to .perfbench/build, temporaries to .perfbench/tmp and
# run artifacts (sockets, span dumps, run records) to .perfbench/run, all
# inside the checkout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi
build="$PWD/.perfbench/build"
mkdir -p .perfbench/run .perfbench/tmp
# Compiler and program temporaries stay inside the checkout too.
TMPDIR="$PWD/.perfbench/tmp"
export TMPDIR
# The shared dune cache lives outside the checkout; keep every build
# artifact inside it.
DUNE_CACHE=disabled dune build --root . --profile release --build-dir "$build" \
  perfbench/bench.exe bin/scanatpg.exe >&2
exec "$build/default/perfbench/bench.exe" \
  --scanatpg "$build/default/bin/scanatpg.exe" --workdir .perfbench/run \
  --profile release "$@"
