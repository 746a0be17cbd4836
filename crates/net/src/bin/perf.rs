//! The micro-benchmark harness: what each primitive, packet, campaign
//! and solve costs, every lane timed by `dap_bench::timer` and reported
//! with its spread.
//!
//! Usage: `cargo run --release -p dap-net --bin perf [out_dir]`
//!
//! Writes `BENCH_perf.json` into `out_dir` (default: current directory),
//! one record per lane, and prints each record as it lands. Every record
//! carries `name`, `unit`, `median`, `mad` and `n` ([`timer::REPS`]
//! repetitions); a lane timed pair by pair against a baseline or twin
//! adds `vs` and the median per-pair `speedup`. `DAP_BENCH_MS` (default
//! 100) is the wall-clock budget of one calibrated repetition.
//!
//! The lanes, in order:
//! * crypto — `one_way_iter_4096` and `micro_mac_rekey`, each against
//!   its pre-optimisation `*_baseline`, and on a SHA-NI host
//!   `compress_ni` against the portable kernel;
//! * ingest — the seeded loopback campaign untraced
//!   (`loopback_ingest`) and at three recorder levels, each paired
//!   against it;
//! * verify — DAP and TESLA++ announce and reveal verify on the bare
//!   receivers (the shard layer is recvbench's to measure), the
//!   announces of recvbench's flood mix and the codec round trip;
//! * overload — the adversary class × defender posture survival matrix;
//! * Algorithm 3 — the control plane's re-solve at five attack levels;
//! * sweep — the 12×8×4 parameter sweep, parallel against sequential.

use std::time::Instant;

use dap_bench::sweep::{run_sweep_sequential, run_sweep_with_stats, to_csv, SweepConfig};
use dap_bench::timer::{self, calibrated, paired, record, repeat, versus};
use dap_core::codec::{self, TaggedFrame};
use dap_core::{
    Announce, DapBootstrap, DapMessage, DapParams, DapReceiver, DapSender, DapStats, Reveal,
};
use dap_crypto::mac::{micro_mac_prepared, prepare_receiver_key, Mac80};
use dap_crypto::oneway::one_way_iter;
use dap_crypto::sha256::{self, sha_ni, Sha256, BLOCK_LEN, DIGEST_LEN, INITIAL_STATE};
use dap_crypto::{Domain, Key};
use dap_game::solve_posture_permille;
use dap_net::adversary::AdversaryClass;
use dap_net::fleet::{run_fleet, FleetReport, FleetSpec};
use dap_obs::json::JsonObject;
use dap_obs::Histogram;
use dap_simnet::{SimDuration, SimRng, SimTime};
use dap_tesla::teslapp::{TeslaPpOutcome, TeslaPpReceiver, TeslaPpSender};
use dap_tesla::TeslaParams;

/// The records so far, printed as they land and written as one array.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
}

impl Report {
    fn push(&mut self, record: JsonObject) {
        let line = record.finish();
        println!("{line}");
        self.lines.push(line);
    }

    /// Times `lane` against `baseline` pair by pair and records both,
    /// the lane carrying its speedup over `<name>_baseline`.
    fn against_baseline(
        &mut self,
        name: &str,
        unit: &str,
        lane: impl FnMut() -> f64,
        baseline: impl FnMut() -> f64,
    ) {
        let (fast, slow) = paired(lane, baseline);
        let baseline_name = format!("{name}_baseline");
        self.push(versus(
            record(name, unit, &fast),
            &baseline_name,
            &fast,
            &slow,
        ));
        self.push(record(&baseline_name, unit, &slow));
    }
}

/// HMAC-SHA-256 the way the workspace computed it before midstate
/// caching landed: the key schedule re-runs on every call and both
/// passes go through the incremental staging buffer. Kept here as the
/// measured baseline so the reported speedups always compare against
/// the same reference, not against whatever the library currently does.
fn hmac_unprepared(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut block_key = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let digest = sha256::digest(key);
        block_key[..DIGEST_LEN].copy_from_slice(&digest);
    } else {
        block_key[..key.len()].copy_from_slice(key);
    }
    let mut pad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        pad[i] = block_key[i] ^ 0x36;
    }
    let mut inner = Sha256::new();
    inner.update(&pad);
    inner.update(message);
    let inner_digest = inner.finalize();
    for i in 0..BLOCK_LEN {
        pad[i] = block_key[i] ^ 0x5c;
    }
    let mut outer = Sha256::new();
    outer.update(&pad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// `one_way_iter` built on the unprepared reference.
fn one_way_iter_unprepared(domain: Domain, key: &Key, steps: usize) -> Key {
    let mut k = *key;
    for _ in 0..steps {
        let tag = hmac_unprepared(domain.label(), k.as_bytes());
        k = Key::from_slice(&tag[..Key::LEN]).expect("digest longer than key");
    }
    k
}

fn crypto_lanes(out: &mut Report) {
    let key = Key::derive(b"perf/chain", b"head");
    let recv = Key::derive(b"perf/receiver", b"local");
    let mac = Mac80::from_slice(&[0xabu8; Mac80::LEN]).expect("fixed length");

    // Sanity: the two paths must agree before their timings mean anything.
    assert_eq!(
        one_way_iter(Domain::F, &key, 64),
        one_way_iter_unprepared(Domain::F, &key, 64),
    );
    out.against_baseline(
        "one_way_iter_4096",
        "ns/iter",
        calibrated(|| one_way_iter(Domain::F, &key, 4096)),
        calibrated(|| one_way_iter_unprepared(Domain::F, &key, 4096)),
    );

    let prepared = prepare_receiver_key(&recv);
    assert_eq!(
        micro_mac_prepared(&prepared, &mac).as_bytes(),
        &hmac_unprepared(recv.as_bytes(), mac.as_bytes())[..3],
    );
    out.against_baseline(
        "micro_mac_rekey",
        "ns/iter",
        calibrated(|| micro_mac_prepared(&prepared, &mac)),
        calibrated(|| {
            let tag = hmac_unprepared(recv.as_bytes(), mac.as_bytes());
            (tag[0], tag[1], tag[2])
        }),
    );

    // The compression kernel: ns per *block* of `compress_from`, which
    // runs SHA-NI here, against the portable kernel on the same blocks.
    // A host without SHA-NI runs the portable kernel on both sides, so
    // it omits the record.
    if !sha_ni() {
        return;
    }
    const BLOCKS: usize = 8;
    let blocks = [[0x5au8; BLOCK_LEN]; BLOCKS];
    let (mut fast, mut portable) = ([INITIAL_STATE; BLOCKS], [INITIAL_STATE; BLOCKS]);
    // Sanity: the kernel must agree with the portable one.
    compress_each(&mut fast, &blocks, Sha256::compress_from);
    compress_each(&mut portable, &blocks, Sha256::compress_portable);
    assert_eq!(
        fast, portable,
        "compress_ni must match the portable compression"
    );

    let mut kernel = calibrated(|| compress_each(&mut fast, &blocks, Sha256::compress_from));
    let mut baseline =
        calibrated(|| compress_each(&mut portable, &blocks, Sha256::compress_portable));
    out.against_baseline(
        "compress_ni",
        "ns/block",
        || kernel() / BLOCKS as f64,
        || baseline() / BLOCKS as f64,
    );
}

/// `states[i] ← compress(states[i], blocks[i])` for every block.
fn compress_each(
    states: &mut [[u32; 8]],
    blocks: &[[u8; BLOCK_LEN]],
    compress: impl Fn(&[u32; 8], &[u8; BLOCK_LEN]) -> [u32; 8],
) {
    for (state, block) in states.iter_mut().zip(blocks) {
        *state = compress(state, block);
    }
}

/// The seeded loopback campaign (`FleetSpec::untagged`, p = 0.9, m = 4)
/// end to end — encode, transport, shard routing, bounded queues,
/// decode, verify — as ns per frame, at four flight-recorder levels.
/// Each traced level is paired against the untraced run, which holds no
/// trace ring and builds no record, so each pair reads the recorder's
/// whole cost; the every-span pair is the observability-overhead
/// measurement ci.sh gates at ≤ 10%.
fn ingest_lanes(out: &mut Report) {
    // 1000 intervals (41,000 frames): below that the fixed set-up costs
    // (thread spawn, ring preallocation, trace collection) swamp the
    // per-frame signal the ratio is about.
    let campaign = |trace_depth, span_every| {
        let spec = FleetSpec {
            intervals: 1000,
            trace_depth,
            span_every,
            ..FleetSpec::untagged()
        };
        move || {
            let t0 = Instant::now();
            let report = run_fleet(&spec);
            t0.elapsed().as_nanos() as f64 / report.frames as f64
        }
    };
    // Every span, ring only (no spans) and one span in 64, each over a
    // retain-last-8192 ring per shard: the flight-recorder posture.
    let levels = [
        ("loopback_ingest_traced", 1),
        ("loopback_ingest_ring", 0),
        ("loopback_ingest_sampled", 64),
    ];
    for (name, span_every) in levels {
        let (untraced, traced) = paired(campaign(0, 0), campaign(8192, span_every));
        if span_every == 1 {
            out.push(record("loopback_ingest", "ns/frame", &untraced));
        }
        out.push(versus(
            record(name, "ns/frame", &traced),
            "loopback_ingest",
            &traced,
            &untraced,
        ));
    }
}

/// The interval grid every verify lane uses: `d = 1`, synchronised.
fn bench_params() -> DapParams {
    DapParams::new(SimDuration(100), 1, 0, 8)
}

fn during(i: u64) -> SimTime {
    SimTime((i - 1) * 100 + 10)
}

/// Runs `call`, feeding its wall time into `hist` and `total`.
fn timed<T>(hist: &mut Histogram, total: &mut u128, call: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = call();
    let ns = t0.elapsed().as_nanos();
    hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
    *total += ns;
    out
}

/// Adds the per-frame quantiles of every timed call to a lane record.
fn with_tail(record: JsonObject, hist: &Histogram) -> JsonObject {
    let q = |p| hist.quantile(p).expect("the lane timed at least one frame");
    record
        .u64("p50_ns", q(0.5))
        .u64("p95_ns", q(0.95))
        .u64("p99_ns", q(0.99))
}

/// The verify lanes interleave announce and reveal over fresh intervals
/// (the receivers drop pools more than d + 2 intervals old — that bound
/// is the point of the protocol), with only the verify call timed.
const REVEALS: u64 = 2048;

/// What one protocol's verify lanes collect over their repetitions:
/// the announce samples, and per-frame latencies.
#[derive(Default)]
struct VerifyRun {
    announce: Vec<f64>,
    announce_hist: Histogram,
    reveal_hist: Histogram,
}

impl VerifyRun {
    /// Records `<protocol>_announce_verify` and `<protocol>_reveal_verify`.
    fn push(self, out: &mut Report, protocol: &str, reveal: &[f64]) {
        // The first pass is `repeat`'s discarded warm-up.
        let announce = &self.announce[self.announce.len() - timer::REPS..];
        let name = |lane: &str| format!("{protocol}_{lane}");
        out.push(with_tail(
            record(&name("announce_verify"), "ns/frame", announce),
            &self.announce_hist,
        ));
        out.push(with_tail(
            record(&name("reveal_verify"), "ns/frame", reveal),
            &self.reveal_hist,
        ));
    }
}

/// Intervals one pass of the flood lane plays.
const FLOOD_INTERVALS: u64 = 1024;

/// One interval of the flood lane's wire: its announces in arrival
/// order, then its reveal, which arrives in the next interval.
struct FloodInterval {
    index: u64,
    announces: Vec<Announce>,
    reveal: Reveal,
}

/// recvbench's flood mix on one sender: per interval, 36 forged and 4
/// genuine announces uniformly interleaved (p = 0.9), with m = 4.
fn flood_wire() -> (DapBootstrap, Vec<FloodInterval>) {
    let params = DapParams::new(SimDuration(100), 1, 0, 4);
    let chain = usize::try_from(FLOOD_INTERVALS).expect("fits") + 2;
    let mut sender = DapSender::new(b"perf/dap-flood", chain, params);
    let (mut mac_rng, mut shuffle_rng) = (SimRng::new(1), SimRng::new(2));
    let wire = (1..=FLOOD_INTERVALS)
        .map(|index| {
            let genuine = sender.announce(index, b"flood reading").expect("chain");
            let (mut genuine_left, forged) = (4u64, 36u64);
            let announces = (1..=genuine_left + forged)
                .rev()
                .map(|slots_left| {
                    if genuine_left > 0 && shuffle_rng.below(slots_left) < genuine_left {
                        genuine_left -= 1;
                        genuine
                    } else {
                        let mut mac = [0u8; Mac80::LEN];
                        mac_rng.fill_bytes(&mut mac);
                        let mac = Mac80::from_slice(&mac).expect("fixed length");
                        Announce { index, mac }
                    }
                })
                .collect();
            let reveal = sender.reveal(index).expect("announced");
            FloodInterval {
                index,
                announces,
                reveal,
            }
        })
        .collect();
    (sender.bootstrap(), wire)
}

/// Plays the flood wire into a fresh receiver and returns its counters.
/// The announce calls alone add their wall time to `announce_ns`. The
/// receiver's RNG seed is fixed, so every pass decides the same.
fn flood_pass(bootstrap: DapBootstrap, wire: &[FloodInterval], announce_ns: &mut u128) -> DapStats {
    let mut receiver = DapReceiver::new(bootstrap, b"perf");
    let mut rng = SimRng::new(7);
    for interval in wire {
        let at = during(interval.index);
        let t0 = Instant::now();
        for announce in &interval.announces {
            std::hint::black_box(receiver.on_announce(announce, at, &mut rng));
        }
        *announce_ns += t0.elapsed().as_nanos();
        receiver.on_reveal(&interval.reveal, during(interval.index + 1));
    }
    *receiver.stats()
}

/// DAP verify on bare `DapReceiver`s: the flood announce at the paper's
/// share, then announce and reveal verify.
fn dap_verify_lanes(out: &mut Report) {
    // The flood lane times the announces of recvbench's flood mix, the
    // reveals untimed between intervals. Its `stored_permille` comes
    // from one untimed pass, so the seed alone fixes it.
    {
        let (bootstrap, wire) = flood_wire();
        let fixed = flood_pass(bootstrap, &wire, &mut 0);
        assert!(
            fixed.authenticated > 0 && fixed.announces_unsafe == 0,
            "the flood pass must authenticate for the timing to mean anything"
        );
        let samples = repeat(|| {
            let mut announce_ns = 0;
            let stats = flood_pass(bootstrap, &wire, &mut announce_ns);
            assert_eq!(stats, fixed, "a flood pass decided differently");
            announce_ns as f64 / stats.announces_offered as f64
        });
        let stored_permille =
            (fixed.announces_stored * 1000 + fixed.announces_offered / 2) / fixed.announces_offered;
        out.push(
            record("dap_flood_announce", "ns/frame", &samples)
                .u64("stored_permille", stored_permille),
        );
    }

    let mut run = VerifyRun::default();
    let reveal = repeat(|| {
        let chain = usize::try_from(REVEALS).expect("fits") + 4;
        let mut sender = DapSender::new(b"perf/dap", chain, bench_params());
        let mut receiver = DapReceiver::new(sender.bootstrap(), b"perf");
        let mut rng = SimRng::new(7);
        let (mut announce_ns, mut reveal_ns, mut authenticated) = (0, 0, 0);
        for i in 1..=REVEALS {
            let announce = sender.announce(i, b"bench reading").expect("chain");
            timed(&mut run.announce_hist, &mut announce_ns, || {
                receiver.on_announce(&announce, during(i), &mut rng)
            });
            let reveal = sender.reveal(i).expect("announced");
            let outcome = timed(&mut run.reveal_hist, &mut reveal_ns, || {
                receiver.on_reveal(&reveal, during(i + 1))
            });
            authenticated += u64::from(outcome.is_authenticated());
        }
        assert_eq!(
            authenticated, REVEALS,
            "bench reveals must authenticate for the timing to mean anything"
        );
        run.announce.push(announce_ns as f64 / REVEALS as f64);
        reveal_ns as f64 / REVEALS as f64
    });
    run.push(out, "dap", &reveal);
}

/// TESLA++ over the same workload, as the comparison baseline. No
/// flood lane: TESLA++ stores *every* safe announcement until its
/// reveal window expires, so a flood only measures that list growing —
/// TESLA++'s flood weakness, not a per-frame cost.
fn teslapp_verify_lanes(out: &mut Report) {
    let params = TeslaParams::new(SimDuration(100), 1, 0);
    let mut run = VerifyRun::default();
    let reveal = repeat(|| {
        let chain = usize::try_from(REVEALS).expect("fits") + 4;
        let mut sender = TeslaPpSender::new(b"perf/tpp", chain, params);
        let mut receiver = TeslaPpReceiver::new(sender.bootstrap(), b"perf");
        let (mut announce_ns, mut reveal_ns, mut authenticated) = (0, 0, 0);
        for i in 1..=REVEALS {
            let announce = sender.announce(i, b"bench reading").expect("fresh chain");
            timed(&mut run.announce_hist, &mut announce_ns, || {
                receiver.on_message(&announce, during(i))
            });
            let reveal = sender.reveal(i).expect("announced");
            let outcome = timed(&mut run.reveal_hist, &mut reveal_ns, || {
                receiver.on_message(&reveal, during(i + 1))
            });
            authenticated += u64::from(matches!(outcome, TeslaPpOutcome::Authenticated { .. }));
        }
        assert_eq!(
            authenticated, REVEALS,
            "bench reveals must authenticate for the timing to mean anything"
        );
        run.announce.push(announce_ns as f64 / REVEALS as f64);
        reveal_ns as f64 / REVEALS as f64
    });
    run.push(out, "teslapp", &reveal);
}

/// Codec cost: encode one reveal, then decode the datagram the way the
/// pool does, in place into a reused frame vector.
fn codec_lane(out: &mut Report) {
    let mut sender = DapSender::new(b"perf/codec", 8, bench_params());
    sender.announce(1, b"codec reading").expect("fresh chain");
    let reveal = DapMessage::Reveal(sender.reveal(1).expect("announced"));
    let mut decoded: Vec<TaggedFrame> = Vec::new();
    let samples = repeat(calibrated(|| {
        let bytes = codec::encode(&reveal).expect("encodable");
        decoded.clear();
        codec::decode_datagram(&bytes, &mut decoded);
        assert_eq!(decoded.len(), 1, "one whole frame");
    }));
    out.push(record("codec_roundtrip", "ns/frame", &samples));
}

/// The adversary-class × defender-posture survival matrix (DESIGN §11,
/// EXPERIMENTS.md recipe): every adversary class at p = 0.9 against
/// two postures over the same pinned fleet (ids 1–4 of 50): `fifo`
/// drains unbounded in arrival order (the pre-overload defender —
/// nothing sheds, everyone pays), `prioritized` caps each shard's
/// per-window verify budget so pinned/high-score frames verify first
/// and the surplus is shed with attribution. Each cell is one seeded
/// fleet campaign, timed per frame; the record carries the survival
/// numbers (worst pinned / unpinned auth permille, shed fraction,
/// eviction churn), which the seed fixes.
fn overload_lanes(out: &mut Report) {
    let postures: [(&str, usize); 2] = [("fifo", usize::MAX), ("prioritized", 64)];
    for class in AdversaryClass::ALL {
        for (posture, drain_budget) in postures {
            let spec = FleetSpec {
                seed: 20_160_900,
                senders: 50,
                intervals: 6,
                flood: 0.9,
                pins: vec![1, 2, 3, 4],
                adversary: class,
                drain_budget,
                ..FleetSpec::default()
            };
            let mut last: Option<FleetReport> = None;
            let samples = repeat(|| {
                let t0 = Instant::now();
                let report = run_fleet(&spec);
                let ns = t0.elapsed().as_nanos() as f64 / report.frames as f64;
                last = Some(report);
                ns
            });
            let report = last.expect("repeat ran the campaign");
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let shed_permille = (report.shed_fraction * 1000.0).round() as u64;
            out.push(
                record(
                    &format!("overload_{}_{posture}", class.label()),
                    "ns/frame",
                    &samples,
                )
                .u64(
                    "pinned_permille",
                    report.min_pinned_auth_permille.unwrap_or(0),
                )
                .u64(
                    "unpinned_permille",
                    report.min_unpinned_auth_permille.unwrap_or(0),
                )
                .u64("shed_permille", shed_permille)
                .u64("evictions", report.evictions),
            );
        }
    }
}

/// Algorithm 3 as the control plane re-solves it: 50 buffer counts, each
/// game's ESS decided in closed form, at five estimated attack levels.
/// No game is integrated, so the five cost about the same.
fn algorithm3_lanes(out: &mut Report) {
    for p in [1, 10, 100, 300, 900] {
        let samples: Vec<f64> = repeat(calibrated(|| solve_posture_permille(p, 50)))
            .into_iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.push(record(
            &format!("solve_posture_permille_{p}"),
            "us",
            &samples,
        ));
    }
}

/// The sweep engine on the acceptance grid, 12 attack levels × 8 buffer
/// counts × 4 loss rates of short campaigns (this measures scheduling,
/// not the simulator), work-stealing against the single-threaded
/// reference, pair by pair.
fn sweep_lane(out: &mut Report) {
    let config = SweepConfig {
        attack_levels: (0..12).map(|i| 0.05 + 0.07 * f64::from(i)).collect(),
        buffer_counts: (0..8).map(|i| 1usize << i).collect(),
        loss_rates: vec![0.0, 0.1, 0.2, 0.3],
        intervals: 40,
        announce_copies: 1,
        seed: 2016,
        fault: None,
    };
    let reference = to_csv(&run_sweep_sequential(&config));
    let (mut cells, mut engaged, mut identical) = (0, usize::MAX, true);
    let (parallel, sequential) = paired(
        || {
            let t0 = Instant::now();
            let (rows, stats) = run_sweep_with_stats(&config);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            cells = rows.len();
            engaged = engaged.min(stats.workers_engaged);
            identical &= to_csv(&rows) == reference;
            ms
        },
        || {
            let t0 = Instant::now();
            std::hint::black_box(run_sweep_sequential(&config));
            t0.elapsed().as_secs_f64() * 1e3
        },
    );
    assert!(
        identical,
        "parallel sweep diverged from sequential reference"
    );
    out.push(
        versus(
            record("sweep_12x8x4", "ms", &parallel),
            "sweep_12x8x4_sequential",
            &parallel,
            &sequential,
        )
        .u64("cells", cells as u64)
        .u64("workers_engaged", engaged as u64)
        .bool("bit_identical", identical),
    );
    out.push(record("sweep_12x8x4_sequential", "ms", &sequential));
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with('-'))
        .unwrap_or_else(|| ".".into());

    let mut report = Report::default();
    crypto_lanes(&mut report);
    ingest_lanes(&mut report);
    dap_verify_lanes(&mut report);
    teslapp_verify_lanes(&mut report);
    codec_lane(&mut report);
    overload_lanes(&mut report);
    algorithm3_lanes(&mut report);
    sweep_lane(&mut report);

    let path = format!("{out_dir}/BENCH_perf.json");
    let json = format!("[\n  {}\n]\n", report.lines.join(",\n  "));
    std::fs::write(&path, json).expect("write BENCH_perf.json");
    println!("wrote {path}");
}
