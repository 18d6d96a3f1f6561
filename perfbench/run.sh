#!/usr/bin/env bash
# Builds the simulator's daemon and the benchmark from source, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload singles|mixes|served --seed N \
#        --seconds S --trace 0|1 [--trace-seed 42]
#
# Build output goes to stderr; the benchmark's report (ending in one JSON
# line) goes to stdout. Artifacts land in $CARGO_TARGET_DIR (default
# .bench_build) and .bench_out, both relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin cc-simd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --simd "$CARGO_TARGET_DIR/release/cc-simd" "$@"
