#!/usr/bin/env bash
# Build qr-hint and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload classroom|wide-where|cli-cold \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# .bench_build) and log to stderr; the result line is the last line of
# stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --manifest-path Cargo.toml --bin qr-hint 1>&2
cargo build --release --offline --manifest-path perfbench/Cargo.toml 1>&2
"$CARGO_TARGET_DIR/release/perfbench" \
    --qr-hint "$CARGO_TARGET_DIR/release/qr-hint" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
