#!/usr/bin/env sh
# The full CI gate, runnable locally: build, offline tests, bench smoke.
#
# The workspace has no external dependencies, so everything here runs with
# CARGO_NET_OFFLINE=true — any accidental registry dependency fails fast
# instead of hanging on an unreachable network.
set -eu

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check (workspace)"
cargo fmt --all --check

echo "==> cargo build --release (workspace)"
cargo build --workspace --release --offline

echo "==> cargo test (workspace, offline)"
# One run of every test target in the workspace. Among them, the suites
# that gate the properties below (each runs here once, in this step):
#
# * sweep determinism (crates/sweep/tests/determinism.rs): 1/2/8 worker
#   threads, shuffled input, warm cache.
# * fault injection (crates/sweep/tests/fault_injection.rs): a
#   3,000-point sweep, 5% injected faults, 1/2/8 threads.
# * obs determinism (crates/sweep/tests/obs_determinism.rs): telemetry
#   counts bit-identical across 1/2/8 threads.
# * worker pool lifecycle (crates/sweep/tests/pool_lifecycle.rs): 50
#   2-thread sweeps leave one helper thread, nested calls run serially,
#   concurrent callers share the helpers, a panicking item leaves its
#   helper serving.
# * svc telemetry e2e (crates/svc/tests/metrics.rs): healthz,
#   scrape-vs-registry bit-match, slow log, periodic flush.
# * presolve differential oracle (tests/batch_vs_scalar_props.rs,
#   tests/golden_batched.rs, and the `batch` unit tests of
#   cyclesteal-markov): `Qbd::solve_batch_in` over random
#   same-shape/mixed-shape/frontier groups, which shrink on failure, is
#   bit-identical to solving each chain alone, and the golden suite
#   holds the presolved Figure-4 sweep at 1/2/8 threads and under
#   shuffling to `run_queries`, each point answered on its own through
#   `run_query`, byte for byte.
# * (k, m) fleet reduction gate (tests/km_reduction.rs, tests/km_props.rs):
#   the fleet chain is the only CS-CQ builder, trusted through its
#   reduction. The differential suite proves the (1, 1) fleet chain IS
#   the paper's 2-host chain as the reference builder in tests/support
#   builds it (same QBD signature, solution bits, reports and
#   distribution, for Poisson and MAP arrivals), then cross-validates
#   every {1,2,4}^2 shape against the simulator's fleet policy; the
#   property suite shrinks random workloads over the same invariants.
# * CS-ID one-chain gate (tests/cs_id_reduction.rs): CS-ID has one chain
#   builder, long-host state x short-arrival MAP phase. At a one-phase
#   MAP it must reproduce the Poisson decomposition in tests/support bit
#   for bit (analyze, thinned-Poisson baseline and the long-only Figure-6
#   formula, errors included) on a 2,145-point grid, and analyze_map must
#   hold its pinned bursty/asymmetric/near-overload values.
cargo test -q --workspace --offline

echo "==> clippy (incl. unwrap-free non-test code in core and sweep)"
# core and sweep deny clippy::unwrap_used outside tests; warnings anywhere
# in the workspace, tests, benches and examples included, are promoted to
# errors so the gate cannot rot.
cargo clippy -q --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (warnings are errors)"
# Deleted or private names leave dangling intra-doc links that neither the
# compiler nor clippy reports; rustdoc does.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "==> benchmark harness builds (perfbench, outside the workspace)"
# perfbench is outside the workspace: without this step a break in the
# core API it calls would only surface when the benchmark runs.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> bench smoke (--quick)"
cargo bench -p cyclesteal-bench --offline --bench solver -- --quick
cargo bench -p cyclesteal-bench --offline --bench analysis_vs_simulation -- --quick

echo "==> kernel bench: allocations per QBD solve and per chain build, certificate power steps (hard >=5x, <=4, <=42 and step gates; timings informational)"
# The bench binary itself asserts workspace_allocs * 5 <= reference_allocs,
# the solve and build counts (counting-allocator probe, deterministic) and
# the certificate step totals; the re-check below reads the emitted
# metrics so a stale or hand-edited JSON also fails the gate. Wall-clock
# stays report-only: cross-binary timing gates on code layout.
cargo bench -p cyclesteal-bench --offline --bench kernels -- --quick
kernel_metric() {
    sed -n "s|.*\"id\": \"$1\", \"value\": \([0-9.e+-]*\).*|\1|p" crates/bench/BENCH_kernels.json
}
allocs_ref=$(kernel_metric 'allocs/qbd_solve/reference')
allocs_ws=$(kernel_metric 'allocs/qbd_solve/workspace')
# The workspace count is also capped absolutely: a kernel rewrite must not
# buy speed with allocations. 4 is the solution's four owned fields; the
# stability certificate borrows its buffers from the workspace.
awk -v ref="$allocs_ref" -v ws="$allocs_ws" 'BEGIN {
    if (ref == "" || ws == "" || ref <= 0) { print "kernel gate: missing alloc metrics"; exit 1 }
    printf "qbd solve heap allocations: reference %d, workspace %d (%.1fx fewer)\n", ref, ws, ref / (ws > 0 ? ws : 1)
    if (ws * 5 > ref) { print "kernel gate: workspace path must allocate >= 5x less"; exit 1 }
    if (ws > 4) { print "kernel gate: workspace path must allocate <= 4 times per solve"; exit 1 }
}'
# A chain build (busy-period fits, block assembly, validation) is capped
# at the counts the stack-buffer layout reached: 42 for the heavy (2, 2)
# fleet (467 before) and for the Figure-4 chain (105 before); the fits
# and the Poisson MAP take 31 of them.
awk -v k2m2="$(kernel_metric 'allocs/build/k2m2')" -v fig4="$(kernel_metric 'allocs/build/figure4')" 'BEGIN {
    if (k2m2 == "" || fig4 == "") { print "kernel gate: missing build alloc metrics"; exit 1 }
    printf "chain build heap allocations: (2, 2) %d, Figure-4 %d\n", k2m2, fig4
    if (k2m2 > 42) { print "kernel gate: a (2, 2) chain build must allocate <= 42 times"; exit 1 }
    if (fig4 > 42) { print "kernel gate: a Figure-4 chain build must allocate <= 42 times"; exit 1 }
}'
# The multi-RHS row sweep against the per-column substitution it
# replaced, on one 21 x 21 (2, 2) factor inside one binary.
awk -v ratio="$(kernel_metric 'multi_rhs_solve/k2m2/per_column_over_sweep')" 'BEGIN {
    if (ratio == "") { print "kernel gate: missing multi-RHS sweep ratio"; exit 1 }
    printf "multi-RHS solve, 21 x 21: per-column / row sweep %.2fx\n", ratio
    if (ratio < 2) { print "kernel gate: the row sweep must clear 2x the per-column solve"; exit 1 }
}'

# The stability certificate stops the power iteration on R once a
# Collatz-Wielandt bound is below the margin. Its power steps over the
# bench's 64 Figure-4 chains and 32 (2, 2) chains are exact counts; the
# full estimate's total, which the certificate replaces, is printed
# beside each.
awk -v f4="$(kernel_metric 'cert_steps/figure4/certificate')" \
    -v f4_full="$(kernel_metric 'cert_steps/figure4/full_estimate')" \
    -v k2="$(kernel_metric 'cert_steps/k2m2/certificate')" \
    -v k2_full="$(kernel_metric 'cert_steps/k2m2/full_estimate')" 'BEGIN {
    if (f4 == "" || f4_full == "" || k2 == "" || k2_full == "") { print "kernel gate: missing certificate step metrics"; exit 1 }
    printf "stability certificate power steps: Figure-4 %d (full estimate %d), (2, 2) %d (full estimate %d)\n", f4, f4_full, k2, k2_full
    if (f4 > 96) { print "kernel gate: the Figure-4 grid certificates must take <= 96 power steps"; exit 1 }
    if (k2 > 64) { print "kernel gate: the (2, 2) grid certificates must take <= 64 power steps"; exit 1 }
}'
# Chain-by-chain solve throughput, report-only.
awk -v f4="$(kernel_metric 'points_per_sec/qbd_scalar')" -v k2="$(kernel_metric 'points_per_sec/qbd_scalar_k2m2')" 'BEGIN {
    printf "qbd solve throughput (report-only): Figure-4 %.0f points/s, (2, 2) %.0f points/s\n", f4, k2
}'

echo "==> recovery bench: table CRC, bounded restore, bounded serving misses (hard >=4x, <=3x, <=1.5x gates; times informational)"
# All three gates are ratios inside one binary: the table CRC against a
# bitwise CRC on the same 4096-answer snapshot image; opening a
# 16384-answer store into a cache bounded at 4096 against the same open
# unbounded; and never-seen (1, 1) misses on a report layer full at 8192
# against the same misses unbounded. The bench asserts all three; this
# re-check reads the emitted metrics so a stale or hand-edited JSON also
# fails. Absolute times are report-only.
cargo bench -p cyclesteal-bench --offline --bench recovery -- --quick
recovery_metric() {
    sed -n "s|.*\"id\": \"$1\", \"value\": \([0-9.e+-]*\).*|\1|p" crates/bench/BENCH_recovery.json
}
awk -v table="$(recovery_metric 'crc_mib_per_sec/table')" \
    -v bitwise="$(recovery_metric 'crc_mib_per_sec/bitwise')" \
    -v unbounded="$(recovery_metric 'open_ms/16384/unbounded')" \
    -v bounded="$(recovery_metric 'open_ms/16384/capacity_4096')" \
    -v open4096="$(recovery_metric 'open_ms/4096/unbounded')" \
    -v miss_unbounded="$(recovery_metric 'miss_us/8192/unbounded')" \
    -v miss_bounded="$(recovery_metric 'miss_us/8192/capacity_8192')" 'BEGIN {
    if (table == "" || bitwise == "" || unbounded == "" || bounded == "" || bitwise <= 0 || unbounded <= 0 ||
        miss_unbounded == "" || miss_bounded == "" || miss_unbounded <= 0) {
        print "recovery gate: missing metrics"; exit 1
    }
    printf "crc32: table %.0f MiB/s, bitwise %.0f MiB/s (%.1fx)\n", table, bitwise, table / bitwise
    printf "open of 16384 answers: unbounded %.2f ms, capacity 4096 %.2f ms (%.2fx); 4096 answers %.2f ms (ms report-only)\n",
           unbounded, bounded, bounded / unbounded, open4096
    printf "miss on a full 8192-report layer: unbounded %.1f us, capacity 8192 %.1f us (%.2fx, us report-only)\n",
           miss_unbounded, miss_bounded, miss_bounded / miss_unbounded
    if (table < 4 * bitwise) { print "recovery gate: the table CRC must clear 4x the bitwise throughput"; exit 1 }
    if (bounded > 3 * unbounded) { print "recovery gate: a bounded restore must stay within 3x of an unbounded one"; exit 1 }
    if (miss_bounded > 1.5 * miss_unbounded) { print "recovery gate: a miss on a full bounded cache must stay within 1.5x of an unbounded one"; exit 1 }
}'

echo "==> obs overhead gate (<1% of a sweep with recording off)"
# The obs runtime is compiled into every build and starts off, so every
# instrumented call site pays one relaxed load and a never-taken branch.
# The hard <1% assertion runs inside the bench binary: per-call disabled
# cost x exact record count over the workload's own runtime, all from
# one binary, since comparing binaries by wall clock would gate on
# link-time code layout.
cargo bench -p cyclesteal-bench --offline --bench obs_overhead

echo "==> sweep bench smoke (--quick)"
# Asserts the reports are bit-identical at 1 and 8 threads, and prints the
# 8-over-1-thread speedup of the grid's CS-CQ points, whose QBD solves the
# presolve spreads over the sweep's threads. The speedup is a wall-clock
# ratio and report-only; that the pool's helpers persist is gated by
# crates/sweep/tests/pool_lifecycle.rs in the workspace test step.
cargo run --release --offline --example sweep -- --quick --threads 1,8 --out crates/bench

# Bench binaries run with the package directory as CWD, so the JSON
# lands next to the bench crate; the sweep example writes there via --out.
for f in crates/bench/BENCH_solver.json crates/bench/BENCH_analysis_vs_simulation.json \
         crates/bench/BENCH_sweep.json crates/bench/BENCH_obs_overhead.json \
         crates/bench/BENCH_kernels.json crates/bench/BENCH_recovery.json; do
    [ -s "$f" ] || { echo "missing bench output $f" >&2; exit 1; }
done

echo "==> daemon crash-recovery smoke (SIGKILL mid-WAL-append, restart, bit-identical replay)"
# The kill-restart gate, end to end over real TCP and a real filesystem:
# a daemon armed with --kill-after-appends writes a torn WAL record and
# raw-SIGKILLs itself mid-stream; the restarted daemon must truncate the
# torn tail, recover every completed append, and re-serve the full query
# stream byte-identically to a daemon that never crashed.
cargo build --release --offline --example svc_daemon --example svc_client
SVC_DAEMON=target/release/examples/svc_daemon
SVC_CLIENT=target/release/examples/svc_client
SVC_TMP=target/svc-gate
rm -rf "$SVC_TMP"
mkdir -p "$SVC_TMP"

# Waits for "LISTENING <addr>" in $1 and prints the addr. The daemon may
# not have created its log yet, so test for the file before reading it.
svc_wait_addr() {
    i=0
    while [ $i -lt 100 ]; do
        addr=""
        [ -f "$1" ] && addr=$(sed -n 's/^LISTENING //p' "$1")
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        i=$((i + 1))
        sleep 0.1
    done
    echo "daemon did not start: $1" >&2
    return 1
}

# 1. Arm the crash: die with a torn record after the 7th append (index 6).
"$SVC_DAEMON" --workers 1 --data-dir "$SVC_TMP/crashdir" --kill-after-appends 6 \
    > "$SVC_TMP/d_crash.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_crash.log")
"$SVC_CLIENT" --addr "$svc_addr" stream --count 12 --tolerate-crash > "$SVC_TMP/crashed.txt"
wait "$svc_pid" && { echo "crash gate: daemon should have been SIGKILLed" >&2; exit 1; } || true
grep -q "^CRASHED_AT_QUERY 6$" "$SVC_TMP/crashed.txt" \
    || { echo "crash gate: expected the crash at query 6" >&2; cat "$SVC_TMP/crashed.txt" >&2; exit 1; }

# 2. Restart on the crashed dir: warm recovery must report the torn tail.
"$SVC_DAEMON" --workers 1 --data-dir "$SVC_TMP/crashdir" > "$SVC_TMP/d_recovered.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_recovered.log")
grep -q "recovered: 0 snapshot + 6 wal entries (torn tail truncated)" "$SVC_TMP/d_recovered.log" \
    || { echo "crash gate: wrong recovery" >&2; cat "$SVC_TMP/d_recovered.log" >&2; exit 1; }
"$SVC_CLIENT" --addr "$svc_addr" stream --count 12 > "$SVC_TMP/recovered.txt"
"$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
wait "$svc_pid"

# 3. Oracle: the same stream against a daemon that never crashed.
"$SVC_DAEMON" --workers 1 --data-dir "$SVC_TMP/freshdir" > "$SVC_TMP/d_oracle.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_oracle.log")
"$SVC_CLIENT" --addr "$svc_addr" stream --count 12 > "$SVC_TMP/oracle.txt"
"$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
wait "$svc_pid"
cmp "$SVC_TMP/recovered.txt" "$SVC_TMP/oracle.txt" \
    || { echo "crash gate: recovered answers differ from the never-crashed run" >&2; exit 1; }

# 4. Both drains compacted the same 12 answers through the streaming
# snapshot writer: the two snapshots must be byte-identical, and one more
# restart on the crashed dir must read all 12 back through the streaming
# reader, with nothing left in its WAL.
cmp "$SVC_TMP/crashdir/snapshot.bin" "$SVC_TMP/freshdir/snapshot.bin" \
    || { echo "crash gate: the compacted snapshots differ" >&2; exit 1; }
"$SVC_DAEMON" --workers 1 --data-dir "$SVC_TMP/crashdir" > "$SVC_TMP/d_compacted.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_compacted.log")
grep -qx "recovered: 12 snapshot + 0 wal entries" "$SVC_TMP/d_compacted.log" \
    || { echo "crash gate: wrong recovery of the compacted store" >&2; cat "$SVC_TMP/d_compacted.log" >&2; exit 1; }
"$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
wait "$svc_pid"
echo "crash gate: 6 entries recovered, torn tail truncated, 12 replayed answers bit-identical," \
     "compacted snapshots identical and recovered whole"

echo "==> daemon overload smoke (slowed worker, bounded queue -> structured sheds, live scrape)"
# 10x the daemon's drain rate: a 20-query burst into a 2-slot queue behind
# one 40 ms/query worker — with micro-batching at its default (on), so the
# shed/hint/probe contracts are exercised through the batched drain loop.
# Admitted queries must all complete; the rest must shed as structured
# queue_full rejections with retry hints (the client asserts the shape of
# every shed response AND that every queue_full hint is >= 1 ms — the
# EWMA-priced floor). The /metrics scrape must tell the same story LIVE,
# mid-burst — not only after the dust settles — and the body must be
# valid Prometheus exposition. The daemon records telemetry (--obs), so
# the scrape also carries the obs registry's per-query histograms.
"$SVC_DAEMON" --workers 1 --queue 2 --slow-ms 40 --metrics-addr 127.0.0.1:0 --obs \
    > "$SVC_TMP/d_overload.log" 2>&1 &
svc_pid=$!
svc_addr=$(svc_wait_addr "$SVC_TMP/d_overload.log")
i=0
while [ $i -lt 100 ]; do
    metrics_addr=$(sed -n 's/^METRICS //p' "$SVC_TMP/d_overload.log")
    [ -n "$metrics_addr" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$metrics_addr" ] || { echo "overload gate: daemon printed no METRICS addr" >&2; exit 1; }
"$SVC_CLIENT" --addr "$svc_addr" burst --count 20 > "$SVC_TMP/burst.txt" &
burst_pid=$!
# The 40 ms/query worker holds the overload window open ~800 ms; poll the
# scrape until the queue_full shed counter is visible while the burst is
# still in flight. The client validates the exposition syntax each time.
scraped_live=0
i=0
while [ $i -lt 60 ]; do
    if "$SVC_CLIENT" --addr "$metrics_addr" metrics > "$SVC_TMP/scrape.txt" 2>/dev/null \
        && grep -q '^svc_shed_total{reason="queue_full"} [1-9]' "$SVC_TMP/scrape.txt"; then
        scraped_live=1
        break
    fi
    i=$((i + 1))
    sleep 0.05
done
if [ "$scraped_live" -eq 1 ]; then
    # Probe consistency while the burst is still draining: the health
    # command itself exits non-zero if `queue_depth + in_service` ever
    # undercounts `admitted - completed` (the popped-but-unclaimed race).
    "$SVC_CLIENT" --addr "$metrics_addr" health > /dev/null \
        || { echo "overload gate: mid-burst healthz undercounted in-flight work" >&2; exit 1; }
fi
wait "$burst_pid"
burst=$(cat "$SVC_TMP/burst.txt")
echo "$burst"
if [ "$scraped_live" -eq 1 ]; then
    echo "overload gate: live scrape saw queue_full sheds mid-burst"
else
    # Machine-speed fallback: the burst outran the poll loop; the final
    # scrape must still account for the sheds.
    "$SVC_CLIENT" --addr "$metrics_addr" metrics > "$SVC_TMP/scrape.txt"
    grep -q '^svc_shed_total{reason="queue_full"} [1-9]' "$SVC_TMP/scrape.txt" \
        || { echo "overload gate: scrape never showed a queue_full shed" >&2; cat "$SVC_TMP/scrape.txt" >&2; exit 1; }
    echo "overload gate: sheds confirmed on the post-burst scrape"
fi
grep -q "^METRICS_OK series=" "$SVC_TMP/scrape.txt" \
    || { echo "overload gate: scrape body failed exposition validation" >&2; exit 1; }
health=$("$SVC_CLIENT" --addr "$metrics_addr" health)
echo "$health"
case "$health" in
    *"accepting=true"*) ;;
    *) echo "overload gate: daemon must still be accepting after the burst" >&2; exit 1 ;;
esac
# Hard count gates, read from a scrape taken after the burst and before
# the drain: every answer the client saw was admitted and completed
# (svc_served_total reads the same count), and every shed it saw is
# counted under some reason. A completion is counted just after its
# response goes out, so poll briefly for the last one.
burst_ok=$(echo "$burst" | sed -n 's/^BURST ok=\([0-9]*\) shed=[0-9]*$/\1/p')
burst_shed=$(echo "$burst" | sed -n 's/^BURST ok=[0-9]* shed=\([0-9]*\)$/\1/p')
i=0
while [ $i -lt 100 ]; do
    "$SVC_CLIENT" --addr "$metrics_addr" metrics > "$SVC_TMP/scrape_post.txt"
    grep -q "^svc_completed_total $burst_ok\$" "$SVC_TMP/scrape_post.txt" && break
    i=$((i + 1))
    sleep 0.05
done
awk -v ok="$burst_ok" -v shed="$burst_shed" '
    /^svc_admitted_total / { admitted = $2 }
    /^svc_completed_total / { completed = $2 }
    /^svc_served_total / { served = $2 }
    /^svc_shed_total[{]/ { sheds += $2 }
    END {
        if (ok == "" || shed == "") { print "overload gate: no BURST ok=/shed= counts"; exit 1 }
        if (admitted + 0 != ok + 0 || completed + 0 != ok + 0 || served + 0 != ok + 0) {
            printf "overload gate: admitted=%s completed=%s served=%s, but BURST ok=%s\n", admitted, completed, served, ok
            exit 1
        }
        if (sheds + 0 != shed + 0) {
            printf "overload gate: svc_shed_total sums to %s over reasons, but BURST shed=%s\n", sheds, shed
            exit 1
        }
        printf "overload gate: admitted = completed = served = %s, shed sum = %s\n", ok, sheds
    }' "$SVC_TMP/scrape_post.txt" || exit 1
# The recording daemon's scrape carries the obs section: every completed
# query was timed into svc.query.service_us, and the whole body, obs
# series included, passed the client's exposition validation.
grep -q "^METRICS_OK series=" "$SVC_TMP/scrape_post.txt" \
    || { echo "overload gate: post-burst scrape failed exposition validation" >&2; exit 1; }
awk '
    /^svc_query_service_us_count / { n = $2 }
    END {
        if (n + 0 < 1) { print "overload gate: no svc_query_service_us_count on a --obs scrape"; exit 1 }
        printf "overload gate: --obs scrape carries svc_query_service_us_count %s\n", n
    }' "$SVC_TMP/scrape_post.txt" || exit 1
"$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
wait "$svc_pid"
echo "$burst" | awk '{
    split($2, a, "="); split($3, b, "=");
    if (a[2] < 1) { print "overload gate: no admitted query completed"; exit 1 }
    if (b[2] < 1) { print "overload gate: nothing was shed under 10x load"; exit 1 }
}'

echo "==> batched serving gate (byte-identity vs --no-batch)"
# The same pipelined burst of 128 distinct heavy (2, 2)-fleet points
# (rho_s from 2.0 up, where the QBD solve dominates construction and
# framing) against a batching daemon (--batch 64: one wakeup can drain
# the whole burst, dedupe it and presolve it) and a --no-batch daemon,
# over real TCP. At one worker responses arrive in admission order, so
# the transcripts must be byte-identical (cmp); at four workers
# completion order races, so the client sorts both sides (--sorted)
# before the compare. The batching run must also prove it actually
# coalesced (svc_batch_width > 1 on the scrape). That no serving path
# hashes a chain signature is gated in-process by
# tests/serving_counts.rs.
# Throughput (client-measured points/s, best of BATCH_REPS interleaved
# rounds, a fresh daemon per round) is printed and written to
# crates/bench/BENCH_svc_batch.json, but not gated: it is a wall-clock
# ratio between two processes, which code layout alone moves by several
# percent.
BATCH_COUNT=128
BATCH_REPS=6

# Runs one daemon + pipeline burst: svc_batch_run <tag> <workers> <daemon-flags...>
svc_batch_run() {
    tag=$1; wrk=$2; shift 2
    "$SVC_DAEMON" --workers "$wrk" --queue 256 --inflight 256 \
        --metrics-addr 127.0.0.1:0 "$@" > "$SVC_TMP/d_$tag.log" 2>&1 &
    svc_pid=$!
    svc_addr=$(svc_wait_addr "$SVC_TMP/d_$tag.log")
    bm_addr=$(sed -n 's/^METRICS //p' "$SVC_TMP/d_$tag.log")
    sort_flag=""
    [ "$wrk" -gt 1 ] && sort_flag="--sorted"
    "$SVC_CLIENT" --addr "$svc_addr" pipeline --count "$BATCH_COUNT" --hosts 2,2 \
        --rho-base 2.0 $sort_flag \
        > "$SVC_TMP/pipe_$tag.txt" 2> "$SVC_TMP/pipe_$tag.stderr"
    "$SVC_CLIENT" --addr "$bm_addr" metrics > "$SVC_TMP/scrape_$tag.txt"
    "$SVC_CLIENT" --addr "$svc_addr" drain > /dev/null
    wait "$svc_pid"
    grep "^PIPELINE " "$SVC_TMP/pipe_$tag.stderr"
    grep -q "^PIPELINE n=$BATCH_COUNT ok=$BATCH_COUNT " "$SVC_TMP/pipe_$tag.stderr" \
        || { echo "batch gate[$tag]: burst did not fully serve" >&2; exit 1; }
}

r=1
while [ "$r" -le "$BATCH_REPS" ]; do
    svc_batch_run "batched$r" 1 --batch 64
    svc_batch_run "scalar$r" 1 --no-batch
    # Identity must hold on every round, not just a lucky one.
    cmp "$SVC_TMP/pipe_batched$r.txt" "$SVC_TMP/pipe_scalar$r.txt" \
        || { echo "batch gate: batched responses differ from --no-batch at 1 worker (round $r)" >&2; exit 1; }
    # Every batching round must have genuinely coalesced at least one wakeup.
    grep -q '^svc_batch_width \([2-9]\|[0-9][0-9]\)' "$SVC_TMP/scrape_batched$r.txt" \
        || { echo "batch gate: svc_batch_width never exceeded 1 (round $r)" >&2; exit 1; }
    r=$((r + 1))
done
grep '^svc_batch_width ' "$SVC_TMP/scrape_batched1.txt"

svc_batch_run batched_w4 4 --batch 64
svc_batch_run scalar_w4 4 --no-batch
cmp "$SVC_TMP/pipe_batched_w4.txt" "$SVC_TMP/pipe_scalar_w4.txt" \
    || { echo "batch gate: batched responses differ from --no-batch at 4 workers" >&2; exit 1; }
echo "batch gate: $BATCH_COUNT responses byte-identical at 1 and 4 workers"

pps_b=$(cat "$SVC_TMP"/pipe_batched[0-9].stderr \
    | sed -n 's/^PIPELINE .* pps=\([0-9.]*\).*/\1/p' | sort -g | tail -1)
pps_s=$(cat "$SVC_TMP"/pipe_scalar[0-9].stderr \
    | sed -n 's/^PIPELINE .* pps=\([0-9.]*\).*/\1/p' | sort -g | tail -1)
awk -v b="$pps_b" -v s="$pps_s" -v r="$BATCH_REPS" 'BEGIN {
    if (b == "" || s == "" || s <= 0) { print "batch gate: missing pipeline throughput"; exit 1 }
    printf "daemon burst throughput (best of %d): scalar %.1f points/s, batched %.1f points/s (%.2fx, report-only)\n", r, s, b, b / s
}'
{
    printf '{\n  "harness": "cyclesteal-xtest",\n  "version": 1,\n'
    printf '  "name": "svc_batch",\n  "quick": false,\n  "results": [],\n  "metrics": [\n'
    printf '    {"id": "points_per_sec/daemon_burst_scalar", "value": %s},\n' "$pps_s"
    printf '    {"id": "points_per_sec/daemon_burst_batched", "value": %s}\n' "$pps_b"
    printf '  ]\n}\n'
} > crates/bench/BENCH_svc_batch.json
[ -s crates/bench/BENCH_svc_batch.json ] || { echo "missing bench output BENCH_svc_batch.json" >&2; exit 1; }

echo "==> OK"
