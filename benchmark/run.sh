#!/usr/bin/env bash
# Build the benchmark and run it; every argument goes to the program.
#
#   benchmark/run.sh --seed 7                      every workload, end to end
#   benchmark/run.sh --seed 7 --trace              every workload, per layer
#   benchmark/run.sh --seed 7 --sets 2             repeatability check
#   benchmark/run.sh --only daemon-mix --quick     one workload, smoke sizes
#   benchmark/run.sh --workload sim-wan --seed 7 --seconds 12 --trace 0
#                                                  the form BENCHMARK.json's driver uses
#
# Run from anywhere: the script moves to the checkout's root, which the
# program's relative paths (benchmark/out) assume. It builds from source
# into $CARGO_TARGET_DIR (default benchmark/target), offline; in a
# directory without the repository's crates the build fails and so does
# the script.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/rftp-benchmark" "$@"
