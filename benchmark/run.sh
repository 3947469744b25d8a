#!/usr/bin/env bash
# Builds urbmark from source and runs it with the given arguments.
#
#   benchmark/run.sh [--seed N]           the whole report (7 interleaved rounds
#                                         of every workload, then a traced round)
#   benchmark/run.sh --check [--seed N]   two complete sets; fails unless they agree
#   benchmark/run.sh --quick              a few simulated seconds, 2 rounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload, one JSON result line
#
# Build outputs go to $CARGO_TARGET_DIR when it is set, else to
# target/benchmark at the root of the repository.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/urbmark" "$@"
