#!/usr/bin/env sh
# Byte identity against committed digests.
#
# Runs every deterministic output the repository pins -- the figure
# binaries, the sweeps, seeded dapd campaigns with their traces, the
# daptrace audits, reports and a timeline of those traces, and the
# examples -- into target/digests/, then checks each file against its
# line in digests.sha256 with `sha256sum -c`.
#
#   ./digests.sh          check (ci.sh runs this)
#   ./digests.sh --write  rewrite digests.sha256, and record the
#                         toolchain that produced it in digests.rustc
#
# A change that means to move an output commits the rewritten lines and
# names each one in CHANGES.md; the manifest diff is then the review.
# Wall-clocked outputs stay out: the UDP receiver's trace header and
# BENCH_perf.json. Float formatting is deterministic, but powf and exp
# come from the platform's libm, so a new toolchain or host may have to
# re-pin, file by file.
set -eu

cd "$(dirname "$0")"

case "${1:-}" in
    "") write=0 ;;
    --write) write=1 ;;
    *) echo "usage: $0 [--write]" >&2; exit 2 ;;
esac

cargo build --release --offline -q --workspace
cargo build --release --offline -q --examples

out=target/digests
rm -rf "$out"
mkdir -p "$out"
bin=target/release

# Figures and sweeps.
for fig in fig5 fig6 fig7 fig8 memory_table recovery ablation fleet; do
    "$bin/$fig" > "$out/fig_$fig.txt"
done
"$bin/sweep" 200 --json > "$out/sweep_200.json"
"$bin/sweep" 200 --chaos --json > "$out/sweep_200_chaos.json"
"$bin/sweep" 400 --check > "$out/sweep_400_check.txt"

# dapd NAME ARGS... runs one seeded campaign, stdout to NAME.txt.
# Campaigns passed --trace-out write NAME.jsonl beside it.
dapd() {
    name=$1
    shift
    "$bin/dapd" "$@" > "$out/$name.txt"
}
trace() {
    echo "--trace-out $out/$1.jsonl"
}

# The campaigns ci.sh runs.
flood="--seed 2016 --intervals 400 --buffers 4 --shards 4 --flood 0.9 --copies 4"
dapd net_soak --loopback $flood --assert-soak
dapd clean_soak --loopback --seed 7 --intervals 100 --flood 0 --copies 1 --assert-soak
dapd net_telemetry --loopback $flood $(trace net_trace)
dapd net_ringless --loopback $flood --span-every 1
dapd fleet_soak --fleet --seed 2016 --senders 1024 --intervals 4 --buffers 4 \
    --shards 4 --flood 0.8 --assert-soak
overload="--fleet --seed 2016 --senders 64 --intervals 8 --buffers 4 --shards 4"
dapd overload $overload --flood 0.9 --copies 4 --adversary burst-reanchor \
    --pin-first 8 --drain-budget 96 --assert-soak --assert-pinned-floor 990 \
    $(trace overload)
dapd overload_clean $overload --flood 0 --copies 1 --pin-first 8 \
    --drain-budget 96 --assert-pinned-floor 1000
dapd adaptive --loopback --seed 2016 --intervals 300 --buffers 2 --shards 4 \
    --flood 0.1 --flood-end 0.9 --adaptive --assert-adaptive $(trace adaptive)
dapd adaptive_stable --loopback --seed 7 --intervals 120 --buffers 1 --flood 0 \
    --copies 1 --adaptive --assert-posture-stable
dapd adaptive_heavy --loopback --seed 2 --intervals 120 --flood 0.9 --adaptive
dapd collusion --fleet --seed 2016 --senders 16 --intervals 6 --buffers 4 \
    --shards 2 --flood 0.9 --adversary collusion $(trace collusion)
dapd fleet_shed --fleet --seed 2016 --senders 256 --intervals 60 --buffers 2 \
    --shards 2 --flood 0.1 --flood-end 0.9 --adaptive $(trace fleet_shed)
dapd udp_rx --role receiver --bind 127.0.0.1:0 --seed 1 --intervals 10 \
    --duration-ms 300

# A lossy, corrupting wire, and the other adversary classes.
dapd fleet_faults --fleet --seed 5 --senders 32 --intervals 40 --buffers 3 \
    --shards 2 --flood 0.5 --loss 0.05 --corrupt 0.05 $(trace fleet_faults)
for class in replay-edge adaptive reputation-farming burst-reanchor; do
    dapd "fleet_$class" --fleet --seed 41 --senders 32 --intervals 24 \
        --buffers 3 --shards 2 --flood 0.8 --copies 2 --adversary "$class" \
        --pin-first 4 $(trace "fleet_$class")
done

# Forensics over every capture.
for capture in "$out"/*.jsonl; do
    name=$(basename "$capture" .jsonl)
    pins=
    case "$name" in
        overload) pins="--pin-first 8" ;;
        fleet_replay-edge | fleet_adaptive | fleet_reputation-farming | fleet_burst-reanchor)
            pins="--pin-first 4" ;;
    esac
    "$bin/daptrace" audit $pins "$capture" > "$out/audit_$name.txt"
    "$bin/daptrace" report "$capture" > "$out/report_$name.txt"
done
"$bin/daptrace" timeline "$out/net_trace.jsonl" > "$out/timeline_net_trace.txt"

# The examples.
for example in quickstart adaptive_defense boundary_attack \
    crowdsensing_campaign game_explorer protocol_zoo; do
    "$bin/examples/$example" > "$out/example_$example.txt"
done

if [ "$write" = 1 ]; then
    (cd "$out" && sha256sum -- *) > digests.sha256
    rustc -V > digests.rustc
    echo "digests.sh: wrote $(wc -l < digests.sha256) digests ($(cat digests.rustc))"
    exit 0
fi

if (cd "$out" && sha256sum --strict --quiet -c ../../digests.sha256); then
    echo "digests.sh: every output matches digests.sha256"
else
    echo "digests.sh: outputs differ from digests.sha256 (pinned with" \
        "$(cat digests.rustc), built with $(rustc -V))" >&2
    exit 1
fi
