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

echo "== ESS oracles (decided closed form vs integrated runs) =="
# The control plane prices each m's ESS as ess::decide names it in
# closed form. In release, this leg checks it against two integrated
# oracles. Algorithm 3: all 1001 permille estimates at cap 50 against
# the sweep it replaced (each game settled for up to 100k Euler steps,
# then snapped): the same m*, ESS kind and paper-literal m, the same
# point and cost bit for bit from 1 permille up, and every landscape
# cell within 1e-4. RK4 at t = 0.01 from (0.5, 0.5) on 200,000 seeded
# random economies: each run ends nearest the decided ESS among the
# closed forms. The tests above run every 25th estimate and 2,000
# economies in debug.
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

echo "== figure binaries (each run twice, byte-identical stdout) =="
# Every figure is seeded or closed-form, so two runs must print the
# same bytes; a panicking figure fails here too.
for fig in fig5 fig6 fig7 fig8 memory_table recovery ablation fleet; do
    for run in a b; do
        cargo run --release --offline -q -p dap-bench --bin "$fig" \
            > "target/fig_${fig}_$run.txt"
    done
    cmp "target/fig_${fig}_a.txt" "target/fig_${fig}_b.txt"
done

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
# Tracing changes no counter: the same flood with the flight recorder
# on but no trace ring (no --trace-out) prints the same snapshot.
$soak --loopback --seed 2016 --intervals 400 --buffers 4 --shards 4 \
    --flood 0.9 --copies 4 --span-every 1 > target/net_telemetry_ringless.txt
cmp target/net_telemetry_a.txt target/net_telemetry_ringless.txt
# The capture opens with its header line. The parser also reads a file
# without one, so no gate below would notice a writer that dropped it.
test "$(head -n 1 target/net_trace_a.jsonl)" = \
    '{"trace":"dap-obs","version":3,"clock_ns":0}'

echo "== UDP receiver smoke (no sender: empty snapshot, wall-clocked header) =="
# The real-socket receiver with nothing to hear: its empty snapshot
# must end its line, so the summary line stands alone, and the capture
# header must stamp the pool's own wall clock, which has run the whole
# 300 ms listening window by the time the trace is written.
$soak --role receiver --bind 127.0.0.1:0 --seed 1 --intervals 10 \
    --duration-ms 300 --trace-out target/udp_rx.jsonl > target/udp_rx.txt
grep -qx 'receiver done: 0/0 reveals authenticated' target/udp_rx.txt
clock=$(head -n 1 target/udp_rx.jsonl | grep -o '"clock_ns":[0-9]*' | cut -d: -f2)
test -n "$clock" && test "$clock" -ge 300000000

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
# The timeline prints each record's fields under their JSONL names,
# byte-stably: a span's stages read ingress_ns= through reveal_ns=.
$daptrace timeline target/net_trace_a.jsonl > target/timeline_a.txt
$daptrace timeline target/net_trace_b.jsonl > target/timeline_b.txt
cmp target/timeline_a.txt target/timeline_b.txt
grep ' frame_span ' target/timeline_a.txt | grep -q 'ingress_ns='
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
# A capture whose rings shed: the adaptive fleet ramp outruns the
# default ring depth. Its header declares the shed count, and the
# audit checks each source from its first retained record.
$soak --fleet --seed 2016 --senders 256 --intervals 60 --buffers 2 \
    --shards 2 --flood 0.1 --flood-end 0.9 --adaptive \
    --trace-out target/fleet_shed.jsonl > /dev/null
head -n 1 target/fleet_shed.jsonl | grep -q '"shed":'
$daptrace audit target/fleet_shed.jsonl > /dev/null
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
# And so must one whose first verify_end has two fields swapped: the
# parser reads a line only as its record's canonical rendering.
n=$(grep -n -m 1 '"ev":"verify_end"' target/net_trace_a.jsonl | cut -d: -f1)
sed "$n"'s/\("interval":[0-9]*\),\("outcome":"[a-z_]*"\)/\2,\1/' \
    target/net_trace_a.jsonl > target/net_trace_swapped.jsonl
if cmp -s target/net_trace_a.jsonl target/net_trace_swapped.jsonl; then
    echo "the field swap edited nothing" >&2
    exit 1
fi
if $daptrace audit target/net_trace_swapped.jsonl > /dev/null 2>&1; then
    echo "daptrace accepted a trace with two fields swapped" >&2
    exit 1
fi

echo "== byte identity (every pinned output vs committed digests) =="
# The cmp legs above check that two runs of this tree agree. This one
# checks that the tree agrees with the commit that pinned digests.sha256:
# figures, sweeps, campaigns, traces, audits, reports and examples.
./digests.sh

echo "== perf harness (every micro-bench lane, with its spread) =="
# One binary, one timer: each lane runs 12 repetitions after a
# discarded warm-up, and a lane timed against its baseline or twin runs
# pair by pair, alternating which side goes first. Every gate below
# reads a median of those per-pair ratios from this one file. 25 ms per
# calibrated repetition.
DAP_BENCH_MS=25 cargo run --release --offline -q -p dap-net --bin perf -- target > /dev/null
bench=target/BENCH_perf.json
# field FILE LANE KEY prints KEY's value in LANE's record. The comma
# after the name keeps a lane from matching its _traced or _baseline
# sibling.
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
# seeded LANE KEY... requires each KEY of LANE to equal the committed
# file's: the seed fixes it, so any drift means a receiver or a drain
# decided differently, not noise.
seeded() {
    name=$1
    shift
    for key in "$@"; do
        committed=$(field BENCH_perf.json $name $key)
        fresh=$(field $bench $name $key)
        test -n "$committed" && test "$fresh" = "$committed" || {
            echo "lane $name: $key ${fresh:-missing} != committed $committed" >&2
            exit 1
        }
    done
}
# Every overload lane's survival fields, and the flood lane's reservoir
# decisions.
for name in $(grep -o '"name":"overload_[^"]*"' BENCH_perf.json | cut -d'"' -f4); do
    seeded $name pinned_permille unpinned_permille shed_permille evictions
done
seeded dap_flood_announce stored_permille

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

echo "== crypto bench regression gate (vs committed BENCH_perf.json) =="
# Every lane the committed file times against a *_baseline must keep
# >= 0.8x its committed median speedup in the fresh run -- a >20%
# regression on any crypto lane fails CI. Ratios (not raw ns) make this
# robust to slow boxes. A missing lane fails too, except compress_ni on
# a CPU without the SHA extensions, where perf has no kernel to time
# against the portable one.
for name in $(grep '"vs":"[^"]*_baseline"' BENCH_perf.json | grep -o '"name":"[^"]*"' | cut -d'"' -f4); do
    committed=$(field BENCH_perf.json $name speedup)
    fresh=$(field $bench $name speedup)
    if [ -z "$fresh" ]; then
        if [ "$name" = compress_ni ] && ! grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
            echo "  lane compress_ni: no SHA-NI on this host -- skipped"
            continue
        fi
        echo "crypto lane $name missing from the fresh run" >&2
        exit 1
    fi
    echo "$fresh $committed" | awk '{ exit !($1 >= 0.8 * $2) }' || {
        echo "crypto lane $name regressed: speedup $fresh < 0.8 x committed $committed" >&2
        exit 1
    }
done

echo "ci.sh: all green"
