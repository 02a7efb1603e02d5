#!/usr/bin/env bash
# Build the workspace's daemons and this benchmark in release, then run the
# benchmark with every argument passed through (see README.md).
#
#   benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
#                    [--repeat R] [--out FILE] [--smoke]
#   benchmark/run.sh --diff OLD.json NEW.json
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  --bin cfmapd --bin cfmapd-router >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

exec "$target/release/cfmap-benchmark" --root "$root" --bin-dir "$target/release" "$@"
