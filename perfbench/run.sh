#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root, for example:
#   bash perfbench/run.sh --workload churn_1k --seed 1 --seconds 12 --trace 0
# The binary goes to $CARGO_TARGET_DIR (default: perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
