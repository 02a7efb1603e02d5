#!/usr/bin/env sh
# Run the experiment harness and record the results as JSON.
#
#   scripts/bench.sh              # all experiments -> target/experiments.json
#   scripts/bench.sh E14          # subset, same output file
#   BENCH_OUT=/tmp/b.json scripts/bench.sh
#   CFMAP_BENCH_MS=5 scripts/bench.sh E13   # fast smoke budget
#
# The harness is deterministic apart from the timing columns (E13, E16),
# so diffs of the output file across commits show real behaviour changes.
# The JSON header stamps the commit and thread count the run came from,
# so recorded timings stay attributable.
set -eu

cd "$(dirname "$0")/.."

# The default output lives in the (gitignored) build directory; set
# BENCH_OUT to write the file anywhere else.
OUT=${BENCH_OUT:-target/experiments.json}
mkdir -p "$(dirname "$OUT")"

COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
THREADS=$(nproc 2>/dev/null || echo 1)

{
    printf '{"commit":"%s","threads":%s,"reports":\n' "$COMMIT" "$THREADS"
    cargo run --release --offline -p cfmap-bench --bin experiments -- --json "$@"
    printf '}\n'
} > "$OUT"
echo "bench: wrote $OUT"
