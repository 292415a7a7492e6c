#!/usr/bin/env bash
# Builds the benchmark (and the release `serve` binary it drives) from
# source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload exec --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Honours CARGO_TARGET_DIR.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" --bins >&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/perfbench" "$@"
