#!/usr/bin/env sh
# The full offline gate. The workspace is hermetic — everything here
# must succeed with no network and an empty registry cache.
set -eu

cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== benchmark build (recvbench against the workspace crates) =="
# recvbench is a package of its own that builds against the workspace
# crates' APIs: a dap-net change that breaks it fails here, not in the
# benchmark run. --locked keeps recvbench/Cargo.lock as committed.
cargo build --release --offline --locked --manifest-path recvbench/Cargo.toml

echo "== benchmark correctness gate (recvbench, every workload) =="
# recvbench exits 1 without a result when the pool loses, duplicates or
# reorders a frame, drops or sheds one, or authenticates a different
# set of reveals than the seed fixes. One-second smoke runs, not a
# measurement; seed 20160704 is reserved for validating claimed gains.
# The traced runs drive the flight recorder through each workload's
# path: flood's unwindowed shard, fleet's windowed flush and adaptive's
# posture directives.
recvbench="cargo run --release --offline --quiet --locked --manifest-path recvbench/Cargo.toml --"
for run in "flood 0" "fleet 0" "adaptive 0" "flood 1" "fleet 1" "adaptive 1"; do
    set -- $run
    out=$($recvbench --workload "$1" --seed 3 --seconds 1 --trace "$2")
    echo "$out" | tail -n 1 | grep -q '"correct": true' || {
        echo "recvbench $1 --trace $2 did not report a correct run" >&2
        exit 1
    }
done

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== Algorithm 3 oracle (closed form vs integrated, every estimate) =="
# The control plane prices each m's ESS in closed form. In release, this
# leg checks all 1001 permille estimates at cap 50 against the sweep it
# replaced (each game settled for up to 100k Euler steps, then snapped):
# the same m*, ESS kind and paper-literal m, the same point and cost bit
# for bit from 1 permille up, and every landscape cell within 1e-4. The
# tests above run every 25th estimate in debug.
cargo test --release --offline -q -p dap-game --lib -- --ignored

echo "== clippy (offline, deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (offline, deny warnings) =="
# A broken intra-doc link is a warning; this makes it an error.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== formatting =="
cargo fmt --check

echo "== sweep determinism (parallel vs sequential, default grid) =="
cargo run --release --offline -p dap-bench --bin sweep -- 400 --check > /dev/null

echo "== net soak (seeded loopback flood, sharded pool) =="
# Flood at p = 0.9: --assert-soak checks no shed frames, no weak
# rejects, balanced counters, and auth rate within tolerance of 1 - p^m.
# Two same-seed runs must be byte-identical (multi-threaded pool,
# deterministic by construction — see DESIGN.md §8).
soak="cargo run --release --offline -q -p dap-net --bin dapd --"
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --assert-soak > target/net_soak_a.txt
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --assert-soak > target/net_soak_b.txt
cmp target/net_soak_a.txt target/net_soak_b.txt
# No adversary: 100% of genuine reveals must authenticate.
$soak --loopback --seed 7 --intervals 100 --flood 0 --copies 1 \
    --assert-soak > /dev/null

echo "== telemetry gate (seeded trace + snapshot byte-identity) =="
# Two same-seed traced runs: the printed registry snapshot must be
# byte-identical, and the trace JSONL must be byte-identical as a
# *whole file* — the header timestamp reads the run's own TimeSource,
# so a frozen-clock run has nothing wall-clocked to skip (DESIGN.md §9
# and tests/telemetry.rs).
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --trace-out target/net_trace_a.jsonl \
    > target/net_telemetry_a.txt
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --trace-out target/net_trace_b.jsonl \
    > target/net_telemetry_b.txt
cmp target/net_telemetry_a.txt target/net_telemetry_b.txt
cmp target/net_trace_a.jsonl target/net_trace_b.jsonl
test -s target/net_trace_a.jsonl

echo "== fleet soak (1k tagged senders, session tables, byte-identity) =="
# Crowd-scale gate: every sender spoofed by the flooder at p = 0.8,
# frames routed to shards by SenderId, per-sender sessions under a fixed
# memory budget. --assert-soak checks balanced counters, no weak
# accepts, budget compliance and the per-sender 1 - p^m rate; two
# same-seed campaigns must print byte-identical snapshots (DESIGN §10).
$soak --fleet --seed 2016 --senders 1024 --intervals 4 --buffers 4 \
    --shards 4 --flood 0.8 --assert-soak > target/fleet_soak_a.txt
$soak --fleet --seed 2016 --senders 1024 --intervals 4 --buffers 4 \
    --shards 4 --flood 0.8 --assert-soak > target/fleet_soak_b.txt
cmp target/fleet_soak_a.txt target/fleet_soak_b.txt

echo "== overload gate (burst adversary, pinned floor, shed byte-identity) =="
# The prioritized posture under the worst targeted adversary: pins 1-8,
# a finite per-shard drain budget, burst-at-reanchor at p = 0.9. Two
# same-seed campaigns must print byte-identical reports and emit
# byte-identical traces, whole file, shed decisions and header
# included, and the pinned senders must authenticate every reveal
# (>= 0.99 x the clean baseline asserted below). See DESIGN.md §11.
$soak --fleet --seed 2016 --senders 64 --intervals 8 --buffers 4 \
    --shards 4 --flood 0.9 --copies 4 --adversary burst-reanchor \
    --pin-first 8 --drain-budget 96 --assert-soak \
    --assert-pinned-floor 990 --trace-out target/overload_a.jsonl \
    > target/overload_a.txt
$soak --fleet --seed 2016 --senders 64 --intervals 8 --buffers 4 \
    --shards 4 --flood 0.9 --copies 4 --adversary burst-reanchor \
    --pin-first 8 --drain-budget 96 --assert-soak \
    --assert-pinned-floor 990 --trace-out target/overload_b.jsonl \
    > target/overload_b.txt
cmp target/overload_a.txt target/overload_b.txt
cmp target/overload_a.jsonl target/overload_b.jsonl
test -s target/overload_a.jsonl
# The burst must actually overflow the budget: shed decisions traced.
grep -q '"ev":"shed_decision"' target/overload_a.jsonl
# Clean baseline for the 0.99x floor: no adversary, same posture — the
# pinned rate is 1000 permille, so the attacked floor above is >= 0.99x.
$soak --fleet --seed 2016 --senders 64 --intervals 8 --buffers 4 \
    --shards 4 --flood 0 --copies 1 --pin-first 8 --drain-budget 96 \
    --assert-pinned-floor 1000 > /dev/null

echo "== adaptive gate (live control plane: ramp to the ESS, byte-identity) =="
# DESIGN §13: --adaptive closes the loop — the driver estimates the
# forged share from reveal-time buffer evidence and broadcasts re-size
# directives at quiesced interval boundaries. Under a 0.1 -> 0.9 flood
# ramp the final commanded m must land within +-1 of the offline
# Algorithm 3 optimum (--assert-adaptive); two same-seed runs must
# print byte-identical snapshots and whole-file byte-identical traces
# (the feedback edge costs no determinism); and the trace must
# narrate at least one live re-size.
$soak --loopback --seed 2016 --intervals 300 --buffers 2 --shards 4 \
    --flood 0.1 --flood-end 0.9 --adaptive --assert-adaptive \
    --trace-out target/adaptive_a.jsonl > target/adaptive_a.txt
$soak --loopback --seed 2016 --intervals 300 --buffers 2 --shards 4 \
    --flood 0.1 --flood-end 0.9 --adaptive --assert-adaptive \
    --trace-out target/adaptive_b.jsonl > target/adaptive_b.txt
cmp target/adaptive_a.txt target/adaptive_b.txt
cmp target/adaptive_a.jsonl target/adaptive_b.jsonl
grep -q '"ev":"posture_change"' target/adaptive_a.jsonl
# No-flap leg: a stationary clean wire must never fire a directive.
$soak --loopback --seed 7 --intervals 120 --buffers 1 --flood 0 \
    --copies 1 --adaptive --assert-posture-stable > /dev/null
# Heavy flood from the first interval: the ramp above starts at p = 0.1,
# but here an early interval can keep only forged copies, so the first
# estimate reads 1000 permille. The plane must solve it (as a give-up),
# not panic.
$soak --loopback --seed 2 --intervals 120 --flood 0.9 --adaptive > /dev/null

echo "== daptrace gate (forensic audit of the captured traces) =="
# DESIGN §14: the audit engine replays every capture the gates above
# produced and proves the causal invariants hold — gapless per-source
# seqs, shed quiescence, monotone posture epochs, the k <= m reservoir
# bound, pinned-session immunity — exiting nonzero on any violation.
# The same-seed flood soak is traced twice (net_trace_a/b above); both
# must audit clean and their audits and reports must be byte-identical.
daptrace="cargo run --release --offline -q -p dap-net --bin daptrace --"
# The flood capture must actually carry flight-recorder spans.
grep -q '"ev":"frame_span"' target/net_trace_a.jsonl
$daptrace audit target/net_trace_a.jsonl > target/audit_a.txt
$daptrace audit target/net_trace_b.jsonl > target/audit_b.txt
cmp target/audit_a.txt target/audit_b.txt
$daptrace report target/net_trace_a.jsonl > target/report_a.txt
$daptrace report target/net_trace_b.jsonl > target/report_b.txt
cmp target/report_a.txt target/report_b.txt
test -s target/report_a.txt
# The stage-latency table and the attack-onset verdict must be there:
# a p = 0.9 flood from interval zero registers an onset immediately.
grep -q 'verify' target/report_a.txt
grep -q 'attack onset' target/report_a.txt
# The overload capture audits clean under its pinned-floor posture —
# --pin-first mirrors the soak flags, arming the pin-respected rule.
$daptrace audit --pin-first 8 target/overload_a.jsonl > /dev/null
# The adaptive capture's posture epochs are monotone end to end.
$daptrace audit target/adaptive_a.jsonl > /dev/null
# A collusion capture: the colluders claim ids past the roster, which
# the fleet shards refuse and label unknown_sender. It must parse and
# audit clean.
$soak --fleet --seed 2016 --senders 16 --intervals 6 --buffers 4 \
    --shards 2 --flood 0.9 --adversary collusion \
    --trace-out target/collusion.jsonl > /dev/null
grep -q '"outcome":"unknown_sender"' target/collusion.jsonl
$daptrace audit target/collusion.jsonl > /dev/null
# A tampered capture must be rejected with a nonzero exit.
sed 's/"ev":"verify_end"/"ev":"verify_end_forged"/' \
    target/net_trace_a.jsonl > target/net_trace_tampered.jsonl
if $daptrace audit target/net_trace_tampered.jsonl > /dev/null 2>&1; then
    echo "daptrace accepted a tampered trace" >&2
    exit 1
fi
# So must a capture with one well-formed record deleted: here the first
# verify_end, which leaves a gap in its shard's seqs.
awk '!cut && /"ev":"verify_end"/ { cut = 1; next } { print }' \
    target/net_trace_a.jsonl > target/net_trace_deleted.jsonl
if $daptrace audit target/net_trace_deleted.jsonl > /dev/null 2>&1; then
    echo "daptrace accepted a trace with a deleted record" >&2
    exit 1
fi

echo "== perf harness (every micro-bench lane, with its spread) =="
# One binary, one timer: each lane runs 12 repetitions after a
# discarded warm-up, and a lane timed against its baseline or twin runs
# pair by pair, alternating which side goes first. Every gate below
# reads a median of those per-pair ratios from this one file. 25 ms per
# calibrated repetition.
DAP_BENCH_MS=25 cargo run --release --offline -q -p dap-net --bin perf -- target > /dev/null
bench=target/BENCH_perf.json
# field FILE LANE KEY prints KEY's value in LANE's record. The comma
# after the name keeps a lane from matching its _traced, _batched or
# _baseline sibling.
field() {
    grep "\"name\":\"$2\"," "$1" | grep -o "\"$3\":[^,}]*" | cut -d: -f2 | tr -d '"'
}
# The verify lanes must report a real latency tail, and the adversary
# survival matrix (class x posture) must be present with its survival
# fields (see EXPERIMENTS.md).
p99=$(field $bench dap_reveal_verify p99_ns)
test -n "$p99" && test "$p99" -gt 0
grep -q '"name":"overload_burst-reanchor_prioritized"' $bench
grep -q '"pinned_permille"' $bench

echo "== sweep parallelism gate (workers engaged, bit-identical) =="
# The provisioning floor guarantees at least two engaged workers on any
# box; the speedup claim only means something with two real cores
# under the process. The speedup is the median of the per-pair
# sequential / parallel wall-time ratios.
engaged=$(field $bench sweep_12x8x4 workers_engaged)
test -n "$engaged" && test "$engaged" -ge 2
test "$(field $bench sweep_12x8x4 bit_identical)" = true
cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -ge 2 ]; then
    speedup=$(field $bench sweep_12x8x4 speedup)
    echo "$speedup" | awk '{ exit !($1 > 1.2) }' || {
        echo "sweep speedup $speedup <= 1.2 on a $cores-core box" >&2
        exit 1
    }
fi

echo "== traced-ingest overhead gate (flight recorder <= 10%) =="
# The loopback ingest campaign runs untraced and in the flight-recorder
# posture (per-shard retain-last-8192 rings, a span on every frame),
# pair by pair. Tracing every frame may cost at most 10% of untraced
# throughput, or the recorder is not flight-recorder-grade: the median
# per-pair untraced / traced time ratio must be >= 0.90.
ratio=$(field $bench loopback_ingest_traced speedup)
test -n "$ratio"
echo "$ratio" | awk '{ exit !($1 >= 0.90) }' || {
    echo "traced ingest runs at $ratio x untraced throughput (< 0.90)" >&2
    exit 1
}

echo "== batch gate (lane-parallel reveal-verify >= 2x scalar) =="
# The batched lanes amortize the per-interval chain walk and push the
# HMAC re-key + MAC through the multi-lane SHA-256 kernels; the whole
# point is >= 2x the sequential lane on the same 2048-reveal workload
# (see DESIGN.md §12). Both sides call the bare receivers; the ratio is
# the median per-pair scalar / batched time.
# The premise is a multi-lane kernel against the portable block. Where
# compress_many runs SHA-NI (the lane's "kernel" field), both lanes
# hash on the same single-message kernel, so the ratio is printed and
# the gate skipped -- the host-capability rule the crypto gate below
# applies to compress_x8 without AVX2. The lane kernels stay gated on
# every host through the compress_x4/compress_x8 records.
for lane in dap_reveal_verify_batched teslapp_reveal_verify_batched; do
    speedup=$(field $bench $lane speedup)
    kernel=$(field $bench $lane kernel)
    test -n "$speedup" && test -n "$kernel"
    if [ "$kernel" = "sha-ni" ]; then
        echo "  $lane ${speedup}x its scalar twin" \
            "-- skipped: compress_many runs SHA-NI, one message per block"
        continue
    fi
    echo "$speedup" | awk '{ exit !($1 >= 2.0) }' || {
        echo "$lane is only ${speedup}x its scalar twin ($kernel kernel)" >&2
        exit 1
    }
done

echo "== crypto bench regression gate (vs committed BENCH_perf.json) =="
# Every lane the committed file times against a *_baseline must keep
# >= 0.8x its committed median speedup in the fresh run -- a >20%
# regression on any crypto lane fails CI. Ratios (not raw ns) make this
# robust to slow boxes; lanes the host cannot produce (e.g. compress_x8
# without AVX2) are skipped.
for name in $(grep '"vs":"[^"]*_baseline"' BENCH_perf.json | grep -o '"name":"[^"]*"' | cut -d'"' -f4); do
    committed=$(field BENCH_perf.json $name speedup)
    fresh=$(field $bench $name speedup)
    if [ -z "$fresh" ]; then
        echo "  lane $name not produced on this host -- skipped"
        continue
    fi
    echo "$fresh $committed" | awk '{ exit !($1 >= 0.8 * $2) }' || {
        echo "crypto lane $name regressed: speedup $fresh < 0.8 x committed $committed" >&2
        exit 1
    }
done

echo "ci.sh: all green"
