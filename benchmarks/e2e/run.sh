#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository root.
#
#   run.sh [--seed S] [--seconds N] [--quick]                every workload, one process each,
#                                                            untraced then traced; gathered
#                                                            into out/BENCH_e2e.json
#   run.sh --workload W --seed S --seconds N --trace 0|1     one run; the last stdout line is
#                                                            the result object
#   run.sh --compare A.json[,A2.json...] B.json[,B2.json...] B against A under the bounds in
#                                                            BENCHMARK.json
#
# Everything written lands in benchmarks/e2e/out/ and the cargo target directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmarks/e2e/target}"
# The compiler's and the spill pools' temporary files stay inside the checkout too.
mkdir -p benchmarks/e2e/out/tmp
export TMPDIR="$PWD/benchmarks/e2e/out/tmp"
cargo build --release --offline --quiet --manifest-path benchmarks/e2e/Cargo.toml >&2
# The whole benchmark (caller, server, workers) runs on one hardware thread, the last this shell
# may use: with more runnable threads than the shared host leaves free, a run measures the
# scheduler, not the program (README, Load).
run=("$CARGO_TARGET_DIR/release/e2e" "$@")
if allowed="$(taskset -cp $$ 2>/dev/null)"; then
  run=(taskset -c "${allowed##*[ ,-]}" "${run[@]}")
fi
exec "${run[@]}"
