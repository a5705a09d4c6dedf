#!/usr/bin/env bash
# Builds the campaign benchmark and its shard worker from source, then
# runs it. Run from the repository root:
#
#   bash certbench/run.sh --workload <e3_fig3|e2_lifecycle|e7_sharded_traced|all> \
#       [--seed <n>] [--seconds <n>] [--trace <0|1>]
#
# Build output goes to $CARGO_TARGET_DIR (default certbench/target).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/certbench" "$@"
