#!/usr/bin/env bash
# The dgrace performance ledger. Builds `dgrace` and the harness in
# release mode, then hands every argument to the harness:
#
#   benchmark/run.sh [--seed N]                 every workload; writes results.json
#   benchmark/run.sh --smoke                    1/20-size inputs, checks only, < 30 s
#   benchmark/run.sh compare <a.json> <b.json>  medians against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one measured run (BENCHMARK.json's command)
#
# Run from anywhere; it works from the repository root. Everything it
# writes goes under the cargo target directory (`target/benchmark/`, or
# `$CARGO_TARGET_DIR/benchmark/`).
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both builds, relative so that the server
# socket inside it fits `sun_path` wherever the checkout is.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The program under test is the user-facing binary, built the way the
# repository builds it; the harness is a package of its own.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p dgrace-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "$CARGO_TARGET_DIR/release/dgrace-ledger" \
    --dgrace "$CARGO_TARGET_DIR/release/dgrace" \
    --work "$CARGO_TARGET_DIR/benchmark" \
    "$@"
