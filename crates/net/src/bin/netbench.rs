//! Wire-runtime benchmarks: ingress throughput through the sharded
//! pool and per-frame verify latency for DAP and TESLA++ behind the
//! same codec.
//!
//! Usage: `cargo run --release -p dap-net --bin netbench [out_dir]`
//!
//! Writes `BENCH_net.json` into `out_dir` (default: current directory)
//! and prints the same numbers to stdout. Per-frame lanes stream their
//! samples through a [`Histogram`], so each lane reports p50/p95/p99
//! alongside the mean — tail latency is what a DoS posture cares
//! about, and a mean hides it. `DAP_BENCH_MS` scales the measurement
//! budget (default 100 ms) — `DAP_BENCH_MS=5` is the CI smoke shape.

use std::time::Instant;

use dap_bench::json::{array, JsonObject};
use dap_bench::timer::measure_counted;
use dap_core::{codec, DapMessage, DapParams, DapReceiver, DapSender, Reveal, SenderId};
use dap_crypto::lanes::{self, LaneWidth};
use dap_net::adversary::AdversaryClass;
use dap_net::fleet::{run_fleet, FleetSpec};
use dap_net::pool::{DapShard, FrameVerifier, LiveCounters, TeslaPpShard};
use dap_obs::Histogram;
use dap_simnet::{keys, Registry, SimDuration, SimRng, SimTime};
use dap_tesla::teslapp::{TeslaPpMessage, TeslaPpOutcome, TeslaPpReceiver, TeslaPpSender};
use dap_tesla::TeslaParams;

fn budget_ms() -> u64 {
    std::env::var("DAP_BENCH_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

/// Survival numbers for one overload-matrix cell: what the fleet
/// report says happened to pinned vs unpinned senders under attack.
struct Survival {
    pinned_permille: u64,
    unpinned_permille: u64,
    shed_permille: u64,
    evictions: u64,
}

struct Lane {
    name: String,
    /// Mean nanoseconds spent per frame.
    ns_per_frame: u64,
    /// The same number as a rate.
    frames_per_sec: f64,
    /// Frames behind the measurement (1 for `measure`-style lanes).
    frames: u64,
    /// Per-frame latency quantiles `(p50, p95, p99)`; absent for lanes
    /// without per-frame samples.
    quantiles: Option<(u64, u64, u64)>,
    /// Overload-matrix cells carry their survival numbers into the
    /// JSON; absent for pure throughput/latency lanes.
    survival: Option<Survival>,
    /// The `compress_many` kernel behind a batched lane; ci.sh reads it
    /// to decide which batch gate applies on this host.
    kernel: Option<LaneWidth>,
}

impl Lane {
    /// A `measure_counted`-style lane: mean ns per frame plus the
    /// number of timed iterations that produced it, so frames-weighted
    /// rollups of the JSON weigh the lane by real work.
    fn from_iters(name: impl Into<String>, (ns, iters): (u64, u64)) -> Self {
        Self {
            name: name.into(),
            ns_per_frame: ns,
            frames_per_sec: 1e9 / ns.max(1) as f64,
            frames: iters,
            quantiles: None,
            survival: None,
            kernel: None,
        }
    }

    fn from_batch(name: impl Into<String>, frames: u64, elapsed_ns: u128) -> Self {
        let ns = (elapsed_ns / u128::from(frames.max(1))).max(1) as u64;
        Self {
            name: name.into(),
            ns_per_frame: ns,
            frames_per_sec: 1e9 / ns as f64,
            frames,
            quantiles: None,
            survival: None,
            kernel: None,
        }
    }

    /// A batch lane with streamed per-frame samples: mean from the
    /// batch total, tail from the histogram.
    fn from_hist(name: impl Into<String>, frames: u64, elapsed_ns: u128, hist: &Histogram) -> Self {
        let mut lane = Self::from_batch(name, frames, elapsed_ns);
        lane.quantiles = match (hist.quantile(0.5), hist.quantile(0.95), hist.quantile(0.99)) {
            (Some(p50), Some(p95), Some(p99)) => Some((p50, p95, p99)),
            _ => None,
        };
        lane
    }
}

/// End-to-end frames/sec through encode → transport → shard routing →
/// bounded queues → decode → verify, on the seeded loopback campaign.
/// The traced twin runs the identical campaign with the ring trace and
/// the flight recorder sampling every datagram — the pair is the
/// observability-overhead measurement ci.sh gates at ≤ 10%.
fn bench_ingest_pair() -> (Lane, Lane) {
    let spec_with = |trace_depth, span_every| FleetSpec {
        // Floor of 1000 even on the smoke budget: the traced/untraced
        // pair feeds a ratio gate, and under ~1000 intervals the fixed
        // setup costs (thread spawn, ring prealloc, trace collection)
        // swamp the per-frame signal the gate is about.
        intervals: (budget_ms() * 10).clamp(1000, 4000),
        trace_depth,
        span_every,
        ..FleetSpec::untagged()
    };
    // The traced twin runs the flight-recorder posture: per-shard
    // retain-last-8192 rings (the black-box model — keep the recent
    // window, bounded memory) with spans sampled on every frame.
    let specs = [spec_with(0, 0), spec_with(8192, 1)];
    // The gate divides these two numbers, so measure them as
    // interleaved best-of-4 pairs: alternating runs see the same box
    // weather, and the min discards contention spikes that would flap
    // a 10% ratio threshold if each lane were timed in isolation.
    let mut frames = [0u64; 2];
    let mut best = [u128::MAX; 2];
    for _ in 0..4 {
        for (i, spec) in specs.iter().enumerate() {
            let t0 = Instant::now();
            let report = run_fleet(spec);
            frames[i] = report.frames;
            best[i] = best[i].min(t0.elapsed().as_nanos());
        }
    }
    (
        Lane::from_batch("loopback_ingest", frames[0], best[0]),
        Lane::from_batch("loopback_ingest_traced", frames[1], best[1]),
    )
}

/// Fleet frames/sec: tagged frames from many senders through
/// sender-routing, session tables and per-session verify — the
/// many-to-one ingress path `tests/fleet_soak.rs` gates.
fn bench_fleet_ingest() -> Lane {
    let spec = FleetSpec {
        senders: (budget_ms() * 2).clamp(32, 512),
        intervals: 6,
        ..FleetSpec::default()
    };
    let t0 = Instant::now();
    let report = run_fleet(&spec);
    Lane::from_batch("fleet_ingest", report.frames, t0.elapsed().as_nanos())
}

/// The interval grid both verify lanes use: `d = 1`, synchronised.
fn bench_params() -> DapParams {
    DapParams::new(SimDuration(100), 1, 0, 8)
}

fn during(i: u64) -> SimTime {
    SimTime((i - 1) * 100 + 10)
}

/// Times one call, feeding the sample into `hist` and the batch total.
fn sample(hist: &mut Histogram, total: &mut u128, mut call: impl FnMut()) {
    let t0 = Instant::now();
    call();
    let ns = t0.elapsed().as_nanos();
    hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
    *total += ns;
}

/// DAP verify latency. The flood lane hammers one announce over and
/// over — the reservoir bounds state at `m`, so that is a stationary
/// measurement of the attack's per-frame cost. The announce and reveal
/// lanes interleave over fresh intervals (the receiver GCs pools more
/// than d + 2 intervals old — that bound is the point of the protocol)
/// with only the measured call inside the timer.
fn bench_dap_verify() -> (Lane, Lane, Lane) {
    const REVEALS: u64 = 2048;
    let chain = usize::try_from(REVEALS).expect("fits") + 4;
    let mut sender = DapSender::new(b"netbench/dap", chain, bench_params());
    let mut shard = DapShard::new(sender.bootstrap(), b"netbench");
    let mut rng = SimRng::new(7);
    let mut registry = Registry::new();
    let live = LiveCounters::default();

    let flood_frame = DapMessage::Announce(
        sender
            .announce(1, b"hot-path reading")
            .expect("fresh chain"),
    );
    let flood_sample = measure_counted(|| {
        shard.on_frame(
            SenderId::UNTAGGED,
            &flood_frame,
            during(1),
            &mut rng,
            &mut registry,
            &live,
        );
    });

    let mut announce_hist = Histogram::new();
    let mut reveal_hist = Histogram::new();
    let mut announce_elapsed: u128 = 0;
    let mut reveal_elapsed: u128 = 0;
    for i in 2..2 + REVEALS {
        let frame = DapMessage::Announce(sender.announce(i, b"batched reading").expect("chain"));
        sample(&mut announce_hist, &mut announce_elapsed, || {
            shard.on_frame(
                SenderId::UNTAGGED,
                &frame,
                during(i),
                &mut rng,
                &mut registry,
                &live,
            );
        });

        let frame = DapMessage::Reveal(sender.reveal(i).expect("announced"));
        sample(&mut reveal_hist, &mut reveal_elapsed, || {
            shard.on_frame(
                SenderId::UNTAGGED,
                &frame,
                during(i + 1),
                &mut rng,
                &mut registry,
                &live,
            );
        });
    }
    assert_eq!(
        registry.counters().get(keys::NET_REVEAL_AUTH),
        REVEALS,
        "bench reveals must authenticate for the timing to mean anything"
    );
    (
        Lane::from_iters("dap_flood_announce", flood_sample),
        Lane::from_hist(
            "dap_announce_verify",
            REVEALS,
            announce_elapsed,
            &announce_hist,
        ),
        Lane::from_hist("dap_reveal_verify", REVEALS, reveal_elapsed, &reveal_hist),
    )
}

/// TESLA++ over the identical byte stream (converted frames), as the
/// comparison baseline. No stationary flood lane here: TESLA++ stores
/// *every* safe announcement until its reveal window expires, so
/// hammering one index only measures that list growing — which is
/// TESLA++'s flood weakness, not a per-frame cost.
fn bench_teslapp_verify() -> (Lane, Lane) {
    const REVEALS: u64 = 2048;
    let chain = usize::try_from(REVEALS).expect("fits") + 4;
    let params = TeslaParams::new(SimDuration(100), 1, 0);
    let mut sender = TeslaPpSender::new(b"netbench/tpp", chain, params);
    let mut shard = TeslaPpShard::new(sender.bootstrap(), b"netbench");
    let mut rng = SimRng::new(7);
    let mut registry = Registry::new();
    let live = LiveCounters::default();

    let mut announce_hist = Histogram::new();
    let mut reveal_hist = Histogram::new();
    let mut announce_elapsed: u128 = 0;
    let mut reveal_elapsed: u128 = 0;
    for i in 1..=REVEALS {
        let TeslaPpMessage::MacAnnounce { index, mac } =
            sender.announce(i, b"batched reading").expect("fresh chain")
        else {
            unreachable!("announce returns MacAnnounce")
        };
        let frame = DapMessage::Announce(dap_core::Announce { index, mac });
        sample(&mut announce_hist, &mut announce_elapsed, || {
            shard.on_frame(
                SenderId::UNTAGGED,
                &frame,
                during(i),
                &mut rng,
                &mut registry,
                &live,
            );
        });

        let TeslaPpMessage::Reveal {
            index,
            message,
            key,
        } = sender.reveal(i).expect("announced")
        else {
            unreachable!("reveal returns Reveal")
        };
        let frame = DapMessage::Reveal(dap_core::Reveal {
            index,
            message,
            key,
        });
        sample(&mut reveal_hist, &mut reveal_elapsed, || {
            shard.on_frame(
                SenderId::UNTAGGED,
                &frame,
                during(i + 1),
                &mut rng,
                &mut registry,
                &live,
            );
        });
    }
    assert_eq!(
        registry.counters().get(keys::NET_REVEAL_AUTH),
        REVEALS,
        "bench reveals must authenticate for the timing to mean anything"
    );
    (
        Lane::from_hist(
            "teslapp_announce_verify",
            REVEALS,
            announce_elapsed,
            &announce_hist,
        ),
        Lane::from_hist(
            "teslapp_reveal_verify",
            REVEALS,
            reveal_elapsed,
            &reveal_hist,
        ),
    )
}

/// Batched DAP reveal verify: the amortized + lane-parallel pipeline
/// the windowed pool drain runs. 64 sender/receiver pairs per window —
/// the fleet shape, where one drain window carries one reveal from each
/// of many sessions — so every flush hands the multi-lane compressor a
/// full batch. Timed per window: one `precompute_reveals` over all 64
/// reveals, then the sequential consume loop. The scalar reference is
/// the `dap_reveal_verify` lane; where the batch kernel is multi-lane,
/// ci.sh gates this one at ≥ 2× its frames/sec.
fn bench_dap_reveal_batched() -> Lane {
    const PAIRS: usize = 64;
    const INTERVALS: u64 = 32;
    let chain = usize::try_from(INTERVALS).expect("fits") + 4;
    let mut senders: Vec<DapSender> = (0..PAIRS)
        .map(|p| {
            DapSender::new(
                format!("netbench/dap-batch/{p}").as_bytes(),
                chain,
                bench_params(),
            )
        })
        .collect();
    let mut receivers: Vec<DapReceiver> = senders
        .iter()
        .map(|s| DapReceiver::new(s.bootstrap(), b"netbench"))
        .collect();
    let mut rng = SimRng::new(7);
    let mut elapsed: u128 = 0;
    let mut hist = Histogram::new();
    let mut authenticated = 0u64;
    for i in 1..=INTERVALS {
        // Announces land untimed — this lane measures reveal verify.
        for (sender, receiver) in senders.iter_mut().zip(receivers.iter_mut()) {
            let announce = sender.announce(i, b"batched reading").expect("chain");
            receiver.on_announce(&announce, during(i), &mut rng);
        }
        let reveals: Vec<Reveal> = senders
            .iter_mut()
            .map(|s| s.reveal(i).expect("announced"))
            .collect();
        let t0 = Instant::now();
        let items: Vec<(&DapReceiver, &Reveal)> = receivers.iter().zip(reveals.iter()).collect();
        let pres = DapReceiver::precompute_reveals(&items);
        for ((receiver, reveal), pre) in receivers.iter_mut().zip(reveals.iter()).zip(pres.iter()) {
            if receiver
                .on_reveal_precomputed(reveal, during(i + 1), pre)
                .is_authenticated()
            {
                authenticated += 1;
            }
        }
        let window_ns = t0.elapsed().as_nanos();
        elapsed += window_ns;
        // The window is the amortization unit: each of its frames paid
        // an equal share, so the quantiles stream one share per frame.
        hist.record_n(
            u64::try_from(window_ns / PAIRS as u128).unwrap_or(u64::MAX),
            PAIRS as u64,
        );
    }
    assert_eq!(
        authenticated,
        PAIRS as u64 * INTERVALS,
        "bench reveals must authenticate for the timing to mean anything"
    );
    let mut lane = Lane::from_hist(
        "dap_reveal_verify_batched",
        PAIRS as u64 * INTERVALS,
        elapsed,
        &hist,
    );
    lane.kernel = Some(lanes::detected());
    lane
}

/// Batched TESLA++ reveal verify over the same fleet shape, against the
/// `teslapp_reveal_verify` scalar lane.
fn bench_teslapp_reveal_batched() -> Lane {
    const PAIRS: usize = 64;
    const INTERVALS: u64 = 32;
    let chain = usize::try_from(INTERVALS).expect("fits") + 4;
    let params = TeslaParams::new(SimDuration(100), 1, 0);
    let mut senders: Vec<TeslaPpSender> = (0..PAIRS)
        .map(|p| TeslaPpSender::new(format!("netbench/tpp-batch/{p}").as_bytes(), chain, params))
        .collect();
    let mut receivers: Vec<TeslaPpReceiver> = senders
        .iter()
        .map(|s| TeslaPpReceiver::new(s.bootstrap(), b"netbench"))
        .collect();
    let mut elapsed: u128 = 0;
    let mut hist = Histogram::new();
    let mut authenticated = 0u64;
    for i in 1..=INTERVALS {
        for (sender, receiver) in senders.iter_mut().zip(receivers.iter_mut()) {
            let announce = sender.announce(i, b"batched reading").expect("chain");
            receiver.on_message(&announce, during(i));
        }
        let reveals: Vec<TeslaPpMessage> = senders
            .iter_mut()
            .map(|s| s.reveal(i).expect("announced"))
            .collect();
        let t0 = Instant::now();
        let items: Vec<(&TeslaPpReceiver, &TeslaPpMessage)> =
            receivers.iter().zip(reveals.iter()).collect();
        let pres = TeslaPpReceiver::precompute_reveals(&items);
        for ((receiver, message), pre) in receivers.iter_mut().zip(reveals.iter()).zip(pres.iter())
        {
            let outcome = match pre {
                Some(p) => receiver.on_message_precomputed(message, during(i + 1), p),
                None => receiver.on_message(message, during(i + 1)),
            };
            if matches!(outcome, TeslaPpOutcome::Authenticated { .. }) {
                authenticated += 1;
            }
        }
        let window_ns = t0.elapsed().as_nanos();
        elapsed += window_ns;
        hist.record_n(
            u64::try_from(window_ns / PAIRS as u128).unwrap_or(u64::MAX),
            PAIRS as u64,
        );
    }
    assert_eq!(
        authenticated,
        PAIRS as u64 * INTERVALS,
        "bench reveals must authenticate for the timing to mean anything"
    );
    let mut lane = Lane::from_hist(
        "teslapp_reveal_verify_batched",
        PAIRS as u64 * INTERVALS,
        elapsed,
        &hist,
    );
    lane.kernel = Some(lanes::detected());
    lane
}

/// The adversary-class × defender-posture survival matrix (DESIGN §11,
/// EXPERIMENTS.md recipe): every adversary class at p = 0.9 against
/// two postures over the same pinned fleet (ids 1–4): `fifo` drains
/// unbounded in arrival order (the pre-overload defender — nothing
/// sheds, everyone pays), `prioritized` caps each shard's per-window
/// verify budget so pinned/high-score frames verify first and the
/// surplus is shed with attribution. Each cell is one seeded fleet
/// campaign; the lane carries ingest throughput plus the survival
/// numbers (worst pinned / unpinned auth permille, shed fraction,
/// eviction churn) into the JSON.
fn bench_overload_matrix() -> Vec<Lane> {
    let senders = (budget_ms() / 2).clamp(16, 64);
    let postures: [(&str, usize); 2] = [("fifo", usize::MAX), ("prioritized", 64)];
    let mut lanes = Vec::new();
    println!("overload survival matrix (p = 0.9, {senders} senders, pins 1-4):");
    println!(
        "  {:<16} {:<12} {:>9} {:>11} {:>7} {:>10}",
        "class", "posture", "pinned", "unpinned", "shed", "evictions"
    );
    for class in AdversaryClass::ALL {
        for (posture, drain_budget) in postures {
            let spec = FleetSpec {
                seed: 20_160_900,
                senders,
                intervals: 6,
                flood: 0.9,
                pins: vec![1, 2, 3, 4],
                adversary: class,
                drain_budget,
                ..FleetSpec::default()
            };
            let t0 = Instant::now();
            let report = run_fleet(&spec);
            let mut lane = Lane::from_batch(
                format!("overload_{}_{posture}", class.label()),
                report.frames,
                t0.elapsed().as_nanos(),
            );
            let survival = Survival {
                pinned_permille: report.min_pinned_auth_permille.unwrap_or(0),
                unpinned_permille: report.min_unpinned_auth_permille.unwrap_or(0),
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                shed_permille: (report.shed_fraction * 1000.0).round() as u64,
                evictions: report.evictions,
            };
            println!(
                "  {:<16} {:<12} {:>8}‰ {:>10}‰ {:>6}‰ {:>10}",
                class.label(),
                posture,
                survival.pinned_permille,
                survival.unpinned_permille,
                survival.shed_permille,
                survival.evictions
            );
            lane.survival = Some(survival);
            lanes.push(lane);
        }
    }
    lanes
}

/// Raw codec cost for context: encode + reassemble + decode one reveal.
fn bench_codec() -> Lane {
    let params = bench_params();
    let mut sender = DapSender::new(b"netbench/codec", 8, params);
    sender.announce(1, b"codec reading").expect("fresh chain");
    let frame = codec::encode(&DapMessage::Reveal(sender.reveal(1).expect("announced")))
        .expect("encodable");
    let sample = measure_counted(|| {
        let mut asm = codec::FrameAssembler::new();
        asm.push(&frame);
        asm.next_frame().expect("whole frame")
    });
    Lane::from_iters("codec_roundtrip", sample)
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| ".".into());

    let (ingest, ingest_traced) = bench_ingest_pair();
    let fleet = bench_fleet_ingest();
    let (dap_flood, dap_announce, dap_reveal) = bench_dap_verify();
    let dap_reveal_batched = bench_dap_reveal_batched();
    let (tpp_announce, tpp_reveal) = bench_teslapp_verify();
    let tpp_reveal_batched = bench_teslapp_reveal_batched();
    let codec_lane = bench_codec();
    let mut lanes = vec![
        ingest,
        ingest_traced,
        fleet,
        dap_flood,
        dap_announce,
        dap_reveal,
        dap_reveal_batched,
        tpp_announce,
        tpp_reveal,
        tpp_reveal_batched,
        codec_lane,
    ];
    lanes.extend(bench_overload_matrix());

    for lane in &lanes {
        let tail = lane.quantiles.map_or(String::new(), |(p50, p95, p99)| {
            format!("   p50={p50} p95={p95} p99={p99}")
        });
        println!(
            "{:<26} {:>10} ns/frame   {:>14.0} frames/s   ({} frames){tail}",
            lane.name, lane.ns_per_frame, lane.frames_per_sec, lane.frames
        );
    }

    let json = array(&lanes, |lane| {
        let mut object = JsonObject::new()
            .str("name", &lane.name)
            .u64("ns_per_frame", lane.ns_per_frame)
            .f64("frames_per_sec", lane.frames_per_sec)
            .u64("frames", lane.frames);
        if let Some((p50, p95, p99)) = lane.quantiles {
            object = object
                .u64("p50_ns", p50)
                .u64("p95_ns", p95)
                .u64("p99_ns", p99);
        }
        if let Some(kernel) = lane.kernel {
            object = object.str("kernel", &kernel.to_string());
        }
        if let Some(survival) = &lane.survival {
            object = object
                .u64("pinned_permille", survival.pinned_permille)
                .u64("unpinned_permille", survival.unpinned_permille)
                .u64("shed_permille", survival.shed_permille)
                .u64("evictions", survival.evictions);
        }
        object
    });
    let path = format!("{out_dir}/BENCH_net.json");
    std::fs::write(&path, format!("{json}\n")).expect("write BENCH_net.json");
    println!("wrote {path}");
}
