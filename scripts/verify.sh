#!/usr/bin/env sh
# Full offline verification gate: lint, build, test, benches compile,
# examples compile — all with the network forbidden (--offline). This is
# the same bar CI holds; the hermetic-dependency guard itself lives in
# tests/hermetic.rs and runs as part of the test suite.
set -eu

cd "$(dirname "$0")/.."

# Every temp resource is released on ANY exit — success, assertion
# failure, or an interrupt mid-smoke-test. Without this a failed run
# leaked the daemon process and its fifo under /tmp.
FIFO=/tmp/cfmapd_verify_$$
OUTFILE=/tmp/cfmapd_out_$$
B1_FIFO=/tmp/cfmapd_b1_fifo_$$
B2_FIFO=/tmp/cfmapd_b2_fifo_$$
R_FIFO=/tmp/cfmapd_r_fifo_$$
B1_OUT=/tmp/cfmapd_b1_out_$$
B2_OUT=/tmp/cfmapd_b2_out_$$
R_OUT=/tmp/cfmapd_r_out_$$
W1_FIFO=/tmp/cfmapd_w1_fifo_$$
W2_FIFO=/tmp/cfmapd_w2_fifo_$$
W1_OUT=/tmp/cfmapd_w1_out_$$
W2_OUT=/tmp/cfmapd_w2_out_$$
SNAP=/tmp/cfmapd_warm_$$.snap
CFMAPD_PID=
B1_PID=
B2_PID=
R_PID=
W1_PID=
W2_PID=
cleanup() {
    for pid in "$CFMAPD_PID" "$B1_PID" "$B2_PID" "$R_PID" "$W1_PID" "$W2_PID"; do
        # `|| true` keeps `set -e` from aborting the trap mid-cleanup.
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -f "$FIFO" "$OUTFILE" "$B1_FIFO" "$B2_FIFO" "$R_FIFO" "$B1_OUT" "$B2_OUT" "$R_OUT" \
        "$W1_FIFO" "$W2_FIFO" "$W1_OUT" "$W2_OUT" "$SNAP"
}
trap cleanup EXIT INT TERM

echo "== cargo clippy --offline -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test --offline"
cargo test -q --offline --workspace

echo "== benches and examples compile (offline)"
cargo build --offline --benches -p cfmap-bench
# --workspace so example rot in ANY crate fails the gate, not just the
# root package's examples.
cargo build --offline --examples --workspace

echo "== smoke: CLI exit codes"
CFMAP=target/release/cfmap
"$CFMAP" map --alg matmul --mu 4 --space 1,1,-1 > /dev/null
"$CFMAP" pareto --alg matmul --mu 4 --space 1,1,-1 > /dev/null
"$CFMAP" pareto --alg matmul --mu 3 --bandwidth > /dev/null
"$CFMAP" joint --alg matmul --mu 3 > /dev/null
SPACE_OPT=$("$CFMAP" space-opt --alg matmul --mu 4 --pi 1,4,1)
printf '%s\n' "$SPACE_OPT" | grep -q "combined cost : 11" \
    || { echo "space-opt did not print the cost-11 design: $SPACE_OPT"; exit 1; }
set +e
"$CFMAP" map --alg matmul --mu 4 --space 1,1,-1 --cap 2 > /dev/null 2>&1
[ $? -eq 1 ] || { echo "expected exit 1 for infeasible"; exit 1; }
"$CFMAP" frobnicate > /dev/null 2>&1
[ $? -eq 2 ] || { echo "expected exit 2 for usage error"; exit 1; }
"$CFMAP" joint --alg matmul --mu 3 --max-candidates 1 > /dev/null 2>&1
[ $? -eq 3 ] || { echo "expected exit 3 for an exhausted joint budget"; exit 1; }
"$CFMAP" space-opt --alg matmul --mu 4 --pi 1,4,1 --max-candidates 1 > /dev/null 2>&1
[ $? -eq 3 ] || { echo "expected exit 3 for an exhausted space-opt budget"; exit 1; }
"$CFMAP" space-opt --alg matmul --mu 4 --pi 1,4,1 --entry-bound 0 > /dev/null 2>&1
[ $? -eq 1 ] || { echo "expected exit 1 for an empty space-opt pool"; exit 1; }
set -e

echo "== smoke: cfmapd round trip (ephemeral port, stdin-EOF shutdown)"
CFMAPD=target/release/cfmapd
# Start the daemon with stdin held open on a fifo; closing it shuts down.
mkfifo "$FIFO"
"$CFMAPD" --addr 127.0.0.1:0 --watch-stdin < "$FIFO" > "$OUTFILE" &
CFMAPD_PID=$!
exec 9> "$FIFO"
# Wait for the startup line.
for _ in $(seq 1 50); do
    grep -q "cfmapd listening on" "$OUTFILE" 2>/dev/null && break
    sleep 0.1
done
ADDR=$(sed -n 's/^cfmapd listening on //p' "$OUTFILE")
[ -n "$ADDR" ] || { echo "cfmapd did not start"; exit 1; }
"$CFMAP" client --addr "$ADDR" --alg matmul --mu 4 --space 1,1,-1 | grep -q "t = 25 cycles" \
    || { echo "cfmap client round trip failed"; exit 1; }
# The request above must be visible in the observability layer: the /map
# route counter is at 1 and the solve actually ran (solves_total 1).
METRICS=$("$CFMAP" client --addr "$ADDR" --get /metrics)
echo "$METRICS" | grep -q 'cfmapd_requests_total{route="/map",status="200"} 1' \
    || { echo "/metrics is missing the /map request counter"; exit 1; }
echo "$METRICS" | grep -q '^cfmap_solves_total 1$' \
    || { echo "/metrics is missing the solve counter"; exit 1; }
echo "$METRICS" | grep -q 'cfmapd_request_duration_seconds_count{route="/map"} 1' \
    || { echo "/metrics is missing the /map latency histogram"; exit 1; }
# Exact-arithmetic fast-path telemetry: the spill gauge must be exported
# and stay at zero for a paper-sized solve (the fast-path guarantee).
echo "$METRICS" | grep -q '^cfmap_intlin_bigint_spills_total 0$' \
    || { echo "/metrics is missing a zero bigint spill counter"; exit 1; }
echo "$METRICS" | grep -q 'cfmap_candidate_screen_duration_seconds_count' \
    || { echo "/metrics is missing the candidate screen histogram"; exit 1; }
# Admission-control telemetry: both series must be exported from startup,
# and an unloaded daemon must show an empty queue and zero sheds.
echo "$METRICS" | grep -q '^cfmapd_queue_depth 0$' \
    || { echo "/metrics is missing a zero queue-depth gauge"; exit 1; }
echo "$METRICS" | grep -q '^cfmapd_requests_shed_total 0$' \
    || { echo "/metrics is missing a zero shed counter"; exit 1; }
# Symmetry-quotient gate (ISSUE 8): an n=4 identity solve — 29,960
# candidates unquotiented — must finish under the default budget with
# the quotient engaged: t = f°+1 = 29 and orbits actually pruned.
"$CFMAP" client --addr "$ADDR" --alg identity4 --mu 2 --space 1,0,0,0 | grep -q "t = 29 cycles" \
    || { echo "identity4 solve failed or returned a wrong optimum"; exit 1; }
POST_METRICS=$("$CFMAP" client --addr "$ADDR" --get /metrics)
ORBITS=$(printf '%s\n' "$POST_METRICS" \
    | sed -n 's/^cfmap_orbits_pruned_total \([0-9]*\)$/\1/p')
[ "${ORBITS:-0}" -gt 0 ] \
    || { echo "cfmap_orbits_pruned_total = '${ORBITS:-missing}', want > 0"; exit 1; }
# Screening-route gate: Procedure 5.1 decides the rank and conflict gates
# of these small boxes from its per-search box-kernel table, so the /map
# solves above ran no exact lattice test and computed no Hermite form —
# all on the i64 fast path (no bignum spills).
printf '%s\n' "$POST_METRICS" | grep -q '^cfmap_core_exact_conflict_tests_total 0$' \
    || { echo "exact lattice tests after the /map solves, want 0"; exit 1; }
printf '%s\n' "$POST_METRICS" | grep -q '^cfmap_core_hnf_computations_total 0$' \
    || { echo "Hermite forms after the /map solves, want 0"; exit 1; }
printf '%s\n' "$POST_METRICS" | grep -q '^cfmap_intlin_bigint_spills_total 0$' \
    || { echo "bigint spills after the quotient/table solves, want 0"; exit 1; }
# Pareto gate (ISSUE 10): the fixed-space frontier for matmul mu=4 on
# S = [1,1,-1] is a single point whose time corner must agree with the
# Procedure 5.1 answer /map gives for the identical body — same t = 25
# and the exact same pulled-back schedule witness.
PARETO_BODY='{"algorithm":"matmul","mu":[4],"space":[[1,1,-1]]}'
MAP_SCHED=$("$CFMAP" client --addr "$ADDR" --post /map --body "$PARETO_BODY" \
    | sed -n 's/.*"schedule":\(\[[0-9,-]*\]\).*/\1/p')
[ -n "$MAP_SCHED" ] || { echo "/map gave no schedule to compare the corner against"; exit 1; }
PARETO=$("$CFMAP" client --addr "$ADDR" --post /pareto --body "$PARETO_BODY")
printf '%s\n' "$PARETO" | grep -q '"status":"ok"' \
    || { echo "/pareto did not answer ok: $PARETO"; exit 1; }
printf '%s\n' "$PARETO" | grep -q '"frontier_size":1' \
    || { echo "/pareto frontier is not the expected single point: $PARETO"; exit 1; }
printf '%s\n' "$PARETO" | grep -q '"total_time":25' \
    || { echo "/pareto time corner disagrees with Procedure 5.1: $PARETO"; exit 1; }
printf '%s\n' "$PARETO" | grep -qF "\"schedule\":$MAP_SCHED" \
    || { echo "/pareto corner witness differs from /map's ($MAP_SCHED): $PARETO"; exit 1; }
printf '%s\n' "$PARETO" | grep -q '"verified":true' \
    || { echo "/pareto answered without simulator verification: $PARETO"; exit 1; }
PARETO_METRICS=$("$CFMAP" client --addr "$ADDR" --get /metrics)
printf '%s\n' "$PARETO_METRICS" | grep -q '^cfmap_pareto_frontier_size 1$' \
    || { echo "/metrics is missing the pareto frontier-size gauge"; exit 1; }
printf '%s\n' "$PARETO_METRICS" | grep -q '^cfmap_pareto_solves_total 1$' \
    || { echo "/metrics is missing the pareto solve counter"; exit 1; }
printf '%s\n' "$PARETO_METRICS" \
    | grep -q 'cfmapd_requests_total{route="/pareto",status="200"} 1' \
    || { echo "/metrics is missing the /pareto request counter"; exit 1; }
# Fixed-schedule table gate: a fixed-schedule frontier searches space
# maps, screened by dot products against the box-kernel table of its Π —
# no Hermite form and no exact lattice test, here or in any solve above.
"$CFMAP" client --addr "$ADDR" --post /pareto \
    --body '{"algorithm":"matmul","mu":[4],"schedule":[1,4,1]}' | grep -q '"status":"ok"' \
    || { echo "fixed-schedule /pareto did not answer ok"; exit 1; }
PI_METRICS=$("$CFMAP" client --addr "$ADDR" --get /metrics)
printf '%s\n' "$PI_METRICS" | grep -q '^cfmap_core_hnf_computations_total 0$' \
    || { echo "Hermite forms after the fixed-schedule /pareto, want 0"; exit 1; }
printf '%s\n' "$PI_METRICS" | grep -q '^cfmap_core_exact_conflict_tests_total 0$' \
    || { echo "exact lattice tests after the fixed-schedule /pareto, want 0"; exit 1; }
# Bandwidth gate: a joint frontier with the link-load axis. Its three
# points (t = 13, 16, 19; bandwidth 2, 1, 1) are re-verified on the
# simulator and by the link-load probe before they are served.
BW=$("$CFMAP" client --addr "$ADDR" --post /pareto \
    --body '{"algorithm":"matmul","mu":[3],"include_bandwidth":true}')
printf '%s\n' "$BW" | grep -q '"frontier_size":3' \
    || { echo "bandwidth /pareto frontier is not the expected three points: $BW"; exit 1; }
printf '%s\n' "$BW" | grep -q '"verified":true' \
    || { echo "bandwidth /pareto answered without verification: $BW"; exit 1; }
printf '%s\n' "$BW" | grep -q '"total_time":13,[^}]*"bandwidth":2' \
    || { echo "bandwidth /pareto lost its t = 13, bandwidth 2 point: $BW"; exit 1; }
exec 9>&-          # close stdin: the daemon drains and exits
wait "$CFMAPD_PID" || { echo "cfmapd did not exit cleanly"; exit 1; }
CFMAPD_PID=

echo "== smoke: router — failover across a live 2-backend fleet"
ROUTER=target/release/cfmapd-router
mkfifo "$B1_FIFO" "$B2_FIFO" "$R_FIFO"
"$CFMAPD" --addr 127.0.0.1:0 --watch-stdin < "$B1_FIFO" > "$B1_OUT" &
B1_PID=$!
exec 7> "$B1_FIFO"
"$CFMAPD" --addr 127.0.0.1:0 --watch-stdin < "$B2_FIFO" > "$B2_OUT" &
B2_PID=$!
exec 8> "$B2_FIFO"
for _ in $(seq 1 50); do
    grep -q "cfmapd listening on" "$B1_OUT" 2>/dev/null \
        && grep -q "cfmapd listening on" "$B2_OUT" 2>/dev/null && break
    sleep 0.1
done
B1_ADDR=$(sed -n 's/^cfmapd listening on //p' "$B1_OUT")
B2_ADDR=$(sed -n 's/^cfmapd listening on //p' "$B2_OUT")
[ -n "$B1_ADDR" ] && [ -n "$B2_ADDR" ] || { echo "backends did not start"; exit 1; }
# A slow probe loop on purpose: the failover below must be discovered
# passively (by the forwarded request), not by a lucky health probe.
"$ROUTER" --backend "$B1_ADDR" --backend "$B2_ADDR" --addr 127.0.0.1:0 \
    --health-interval-ms 2000 --watch-stdin < "$R_FIFO" > "$R_OUT" &
R_PID=$!
exec 6> "$R_FIFO"
for _ in $(seq 1 50); do
    grep -q "cfmapd-router listening on" "$R_OUT" 2>/dev/null && break
    sleep 0.1
done
R_ADDR=$(sed -n 's/^cfmapd-router listening on //p' "$R_OUT")
[ -n "$R_ADDR" ] || { echo "cfmapd-router did not start"; exit 1; }
"$CFMAP" client --addr "$R_ADDR" --alg matmul --mu 4 --space 1,1,-1 | grep -q "t = 25 cycles" \
    || { echo "router round trip failed"; exit 1; }
# Which backend answered? Kill exactly that one, so the repeat request
# is forced through the failover path.
SERVING=$("$CFMAP" client --addr "$R_ADDR" --get /metrics \
    | sed -n 's/^cfmapd_router_requests_total{backend="\([^"]*\)",status="200"}.*/\1/p' | head -n 1)
case "$SERVING" in
    "$B1_ADDR") VICTIM_PID=$B1_PID; B1_PID= ;;
    "$B2_ADDR") VICTIM_PID=$B2_PID; B2_PID= ;;
    *) echo "metrics did not name the serving backend (got '$SERVING')"; exit 1 ;;
esac
kill -9 "$VICTIM_PID"
"$CFMAP" client --addr "$R_ADDR" --alg matmul --mu 4 --space 1,1,-1 | grep -q "t = 25 cycles" \
    || { echo "map after backend kill failed: no failover"; exit 1; }
R_METRICS=$("$CFMAP" client --addr "$R_ADDR" --get /metrics)
FAILOVERS=$(printf '%s\n' "$R_METRICS" | sed -n 's/^cfmapd_router_failovers_total \([0-9]*\)$/\1/p')
[ "${FAILOVERS:-0}" -ge 1 ] \
    || { echo "cfmapd_router_failovers_total = '${FAILOVERS:-missing}', want >= 1"; exit 1; }
printf '%s\n' "$R_METRICS" | grep -q '^cfmapd_router_backend_up{backend="' \
    || { echo "/metrics is missing the per-backend up gauge"; exit 1; }
wait "$VICTIM_PID" 2>/dev/null || true   # reap the SIGKILLed backend
exec 6>&-          # close the router's stdin: it drains and exits
wait "$R_PID" || { echo "cfmapd-router did not exit cleanly"; exit 1; }
R_PID=
exec 7>&- 8>&-     # the surviving backend follows suit
for pid in "$B1_PID" "$B2_PID"; do
    if [ -n "$pid" ]; then
        wait "$pid" || { echo "backend did not exit cleanly"; exit 1; }
    fi
done
B1_PID=
B2_PID=

echo "== smoke: benchmark — all four workloads through both daemons"
# Builds the benchmark package against this tree and drives map-cold,
# map-warm, pareto-cold and fleet-warmstart (1 s each) through cfmapd and
# cfmapd-router, checking every answer; it exits non-zero on a wrong
# answer. A renamed public item the benchmark imports, or a fault in the
# serving loop, fails here before it fails a benchmark run. Its outputs
# stay under target/benchmark/.
bash benchmark/run.sh --smoke > /dev/null \
    || { echo "benchmark smoke failed"; exit 1; }

echo "== smoke: family warm-start — save, restart, warm hit"
# Daemon 1 solves three sizes of the matmul family; its background
# fitter mints an affine-in-μ certificate; the snapshot ships to disk.
# Daemon 2 — a fresh process loaded with --cache-load — must answer a
# size NO process ever solved from that certificate alone.
mkfifo "$W1_FIFO"
"$CFMAPD" --addr 127.0.0.1:0 --watch-stdin < "$W1_FIFO" > "$W1_OUT" &
W1_PID=$!
exec 5> "$W1_FIFO"
for _ in $(seq 1 50); do
    grep -q "cfmapd listening on" "$W1_OUT" 2>/dev/null && break
    sleep 0.1
done
W1_ADDR=$(sed -n 's/^cfmapd listening on //p' "$W1_OUT")
[ -n "$W1_ADDR" ] || { echo "warm-start daemon 1 did not start"; exit 1; }
for MU in 2 3 4; do
    "$CFMAP" client --addr "$W1_ADDR" --alg matmul --mu "$MU" --space 1,1,-1 > /dev/null \
        || { echo "warm-start seed solve (mu=$MU) failed"; exit 1; }
done
# The fitter runs in the background; wait for the certificate.
CERTS=0
for _ in $(seq 1 100); do
    CERTS=$("$CFMAP" client --addr "$W1_ADDR" --get /family \
        | sed -n 's/.*"certificates":\([0-9]*\).*/\1/p')
    [ "${CERTS:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${CERTS:-0}" -ge 1 ] || { echo "background fitter minted no certificate"; exit 1; }
"$CFMAP" client --addr "$W1_ADDR" --get /cache/save > "$SNAP"
head -c 12 "$SNAP" | grep -q "cfmapsnap v1" \
    || { echo "snapshot is missing its versioned header"; exit 1; }
exec 5>&-          # daemon 1 drains and exits
wait "$W1_PID" || { echo "warm-start daemon 1 did not exit cleanly"; exit 1; }
W1_PID=
mkfifo "$W2_FIFO"
"$CFMAPD" --addr 127.0.0.1:0 --cache-load "$SNAP" --watch-stdin < "$W2_FIFO" > "$W2_OUT" &
W2_PID=$!
exec 5> "$W2_FIFO"
for _ in $(seq 1 50); do
    grep -q "cfmapd listening on" "$W2_OUT" 2>/dev/null && break
    sleep 0.1
done
W2_ADDR=$(sed -n 's/^cfmapd listening on //p' "$W2_OUT")
[ -n "$W2_ADDR" ] || { echo "warm-start daemon 2 did not start"; exit 1; }
# μ = 9 was never solved by either process: the answer must come from
# the certificate (family hit), at the exact optimum t = μ(μ+2)+1 = 100.
"$CFMAP" client --addr "$W2_ADDR" --alg matmul --mu 9 --space 1,1,-1 | grep -q "t = 100 cycles" \
    || { echo "warm-started daemon gave a wrong answer at mu=9"; exit 1; }
W_METRICS=$("$CFMAP" client --addr "$W2_ADDR" --get /metrics)
echo "$W_METRICS" | grep -q '^cfmapd_family_hits_total 1$' \
    || { echo "/metrics is missing the family hit"; exit 1; }
echo "$W_METRICS" | grep -q '^cfmap_solves_total 0$' \
    || { echo "warm-started daemon ran a search it should not need"; exit 1; }
exec 5>&-          # daemon 2 drains and exits
wait "$W2_PID" || { echo "warm-start daemon 2 did not exit cleanly"; exit 1; }
W2_PID=

echo "== smoke: chaos — one seeded fault plan against a live daemon"
# Replays a fixed-seed FaultPlan (slow-loris, disconnects, injected
# panics and stalls) against a fault-injection-enabled daemon and checks
# every response class plus worker survival. Deterministic from its seed.
cargo test -q --offline --test service_chaos seeded_fault_plan \
    || { echo "seeded fault plan replay failed"; exit 1; }

echo "== smoke: timing benches under a 5 ms budget"
CFMAP_BENCH_MS=5 cargo bench --offline -p cfmap-bench --bench e1_feasibility > /dev/null
CFMAP_BENCH_MS=5 cargo bench --offline -p cfmap-bench --bench e13_hot_path > /dev/null

echo "== smoke: bench.sh writes experiment JSON"
SMOKE_START=$(date +%s)
CFMAP_BENCH_MS=5 BENCH_OUT=/tmp/cfmap_bench_smoke_$$.json scripts/bench.sh E13 E14 E15 E16 E17 > /dev/null
SMOKE_ELAPSED=$(( $(date +%s) - SMOKE_START ))
grep -q '"commit":"' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "bench.sh JSON header is missing the commit stamp"; exit 1; }
grep -q '"threads":' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "bench.sh JSON header is missing the thread count"; exit 1; }
grep -q '"id":"E13"' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "bench.sh produced no E13 report"; exit 1; }
grep -q '"id":"E14"' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "bench.sh produced no E14 report"; exit 1; }
grep -q '"id":"E15"' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "bench.sh produced no E15 report"; exit 1; }
grep -q '"id":"E16"' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "bench.sh produced no E16 report"; exit 1; }
grep -q '"id":"E17"' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "bench.sh produced no E17 report"; exit 1; }
grep -q 'hybrid-ilp' "/tmp/cfmap_bench_smoke_$$.json" \
    || { echo "E15 shows no enumeration→ILP crossover"; exit 1; }
# E16 gates: the smoke run must stay under a wall-clock ceiling (the
# smoke instances are sized for seconds, not the full bit-level boxes),
# and every row must screen on the box-kernel table route: exact conflict
# dispatches, but no Hermite form.
[ "$SMOKE_ELAPSED" -le 90 ] \
    || { echo "bench smoke took ${SMOKE_ELAPSED}s, ceiling is 90s"; exit 1; }
E16_LINE=$(sed -n 's/.*"id":"E16".*/&/p' "/tmp/cfmap_bench_smoke_$$.json")
printf '%s\n' "$E16_LINE" | grep -q '"hnf_computations":0[,}]' \
    || { echo "E16 telemetry shows Hermite forms, want 0"; exit 1; }
E16_EXACT=$(printf '%s\n' "$E16_LINE" | sed -n 's/.*"condition_exact":\([0-9]*\).*/\1/p')
[ "${E16_EXACT:-0}" -gt 0 ] \
    || { echo "E16 telemetry shows no exact dispatches (got '${E16_EXACT:-missing}')"; exit 1; }
rm -f "/tmp/cfmap_bench_smoke_$$.json"

echo "verify: OK"
