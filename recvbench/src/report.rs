//! Turns measured passes into the benchmark's output: the correctness
//! gates that need a whole pass or run, the drift handling, and the
//! metric lines.

use dap_game::{optimal_buffer_count, DosGameParams};
use dap_net::ControlConfig;
use dap_simnet::keys;

use crate::measure::{median, quantile};
use crate::probe::Tally;
use crate::run::{Chunk, Layers, PassOut};
use crate::stream::{Stream, SHARDS};
use crate::{Failure, Run};

/// The reference pipeline's time on a host in its fast state.
const NOMINAL_REF_NS: f64 = 1_000_000.0;

/// How strongly the receiver's timings follow the reference's. A run's
/// timings are reported at nominal host speed: multiplied by
/// `(NOMINAL_REF_NS / its fast-state reference time) ^ REF_EXPONENT`,
/// the fast-state reference being the [`FAST_CHUNKS`] quantile of its
/// reference timings. An adaptive run that never reached the fast state
/// (1.63 ms against 1.03-1.20 ms in five neighbouring runs) ran at
/// 0.71-0.81 of their raw frames/s, a log-log slope of 0.69-0.74: the
/// receiver feels a slow host less than the reference, all hashing and
/// handoff, does. One factor per run, not per chunk: a 1 ms reference
/// next to a 15 ms chunk is too noisy to correct that chunk alone.
const REF_EXPONENT: f64 = 0.8;

/// Share of a run's untraced chunks its timings come from: the fastest.
/// The shared host drifts between a fast and a slow state over seconds,
/// and a run can spend most of its time in either; the fastest tenth of
/// chunks is in the fast state in nearly every run, so a program change
/// moves it while the host's drift mostly does not.
const FAST_CHUNKS: f64 = 0.1;

/// Share of a run's timed set-ups `setup_s` comes from: the fastest.
const FAST_SETUPS: f64 = 0.25;

/// Samples a percentile needs beyond it to be reported.
const BEYOND: usize = 10;

/// Gates one pass on what it alone can show: an adaptive pass ends
/// within ±1 of the offline optimum `m*` at the plateau's `p`.
pub fn check_pass(stream: &Stream, out: &PassOut) -> Result<(), Failure> {
    if let Some((m, directives)) = out.control {
        let offline = optimal_buffer_count(
            DosGameParams::paper_defaults(stream.shape.flood.1, 1),
            ControlConfig::default().cap,
        );
        if m.abs_diff(offline.m) > 1 || directives == 0 {
            return Err(Failure::gate(format!(
                "adaptive posture ended at m = {m} after {directives} directives; offline m* = {}",
                offline.m
            )));
        }
    }
    Ok(())
}

/// The fastest `share` of `values` (at least one), ascending.
fn fastest<T>(mut values: Vec<T>, share: f64, key: impl Fn(&T) -> f64) -> Vec<T> {
    values.sort_by(|a, b| key(a).total_cmp(&key(b)));
    values.truncate(((values.len() as f64 * share).ceil() as usize).max(1));
    values
}

/// What the end-to-end timings are taken from: the [`FAST_CHUNKS`]
/// share of a run's chunks with the least wall time per frame, and the
/// reveals ingested in them. Raw, not yet scaled.
struct Fast {
    chunks: usize,
    /// Per fast chunk: wall ns per frame.
    wall_per_frame: Vec<f64>,
    /// Per fast chunk: process CPU ns per frame.
    cpu_per_frame: Vec<f64>,
    /// Ingest → authenticated delays of the fast chunks' reveals, sorted.
    delays: Vec<u64>,
}

impl Fast {
    fn of(passes: &[PassOut]) -> Self {
        let all: Vec<(&Chunk, &Vec<u64>)> = passes
            .iter()
            .flat_map(|p| p.chunks.iter().zip(&p.delays))
            .collect();
        let chunks = all.len();
        let fast = fastest(all, FAST_CHUNKS, |(c, _)| {
            c.wall_ns as f64 / c.frames as f64
        });
        let mut delays: Vec<u64> = fast.iter().flat_map(|(_, d)| d.iter().copied()).collect();
        delays.sort_unstable();
        Fast {
            chunks,
            wall_per_frame: fast
                .iter()
                .map(|(c, _)| c.wall_ns as f64 / c.frames as f64)
                .collect(),
            cpu_per_frame: fast
                .iter()
                .map(|(c, _)| c.cpu.total as f64 / c.frames as f64)
                .collect(),
            delays,
        }
    }
}

/// A set of passes' chunks, summed or listed whole, for the per-layer
/// metrics.
#[derive(Default)]
struct Totals {
    /// Per chunk: process CPU ns per frame.
    cpu_per_frame: Vec<f64>,
    /// Per chunk: shard-worker CPU over shard wall time.
    shard_busy: Vec<f64>,
    frames: f64,
    allocs: f64,
    alloc_bytes: f64,
}

impl Totals {
    fn of(passes: &[PassOut]) -> Self {
        let mut out = Totals::default();
        for c in passes.iter().flat_map(|p| &p.chunks) {
            let frames = c.frames as f64;
            out.cpu_per_frame.push(c.cpu.total as f64 / frames);
            out.shard_busy
                .push(c.cpu.shards as f64 / (SHARDS as f64 * c.wall_ns as f64));
            out.frames += frames;
            out.allocs += c.allocs as f64;
            out.alloc_bytes += c.alloc_bytes as f64;
        }
        out
    }
}

fn metric(name: &str, value: f64, unit: &str) -> Result<String, Failure> {
    if !value.is_finite() {
        return Err(Failure::gate(format!("{name} is not a number ({value})")));
    }
    Ok(format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Renders the run: context lines, then the JSON result line. Fails the
/// gate when the delay percentiles lack [`BEYOND`] samples past them.
pub fn render(run: &Run, trace: bool) -> Result<Vec<String>, Failure> {
    let stream = &run.stream;
    let first = run.plain.first().expect("at least one measured pass");
    let passes = (run.plain.len() + run.traced.len()) as u64;
    let failed_per_pass = stream.reveals - first.authenticated;
    let mut references: Vec<u64> = run
        .plain
        .iter()
        .chain(&run.traced)
        .flat_map(|p| p.chunks.iter().map(|c| c.reference_ns))
        .collect();
    references.sort_unstable();
    // The host's fast-state speed in this run, against the nominal one.
    let fast_ref = quantile(&references, FAST_CHUNKS) as f64;
    let scale = (NOMINAL_REF_NS / fast_ref).powf(REF_EXPONENT);
    let fast = Fast::of(&run.plain);
    let setup_ns = median(&fastest(
        run.setups.iter().map(|&ns| ns as f64).collect(),
        FAST_SETUPS,
        |&ns| ns,
    ));
    let n = fast.delays.len();
    if n / 100 < BEYOND {
        return Err(Failure::gate(format!(
            "{n} authenticated reveals in the fastest chunks leave fewer than {BEYOND} \
             samples beyond p99"
        )));
    }
    let delay_us = |q: f64| quantile(&fast.delays, q) as f64 / 1e3;
    let mut lines = vec![
        format!(
            "recvbench workload={} seed={} shards={SHARDS} passes={} traced={} (+1 warm-up) \
             frames/pass={} genuine/pass={} authenticated/pass={}",
            stream.workload.name(),
            stream.seed,
            run.plain.len(),
            run.traced.len(),
            stream.frames.len(),
            stream.reveals,
            first.authenticated,
        ),
        format!(
            "counters: {}",
            first
                .fingerprint
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "drift: fastest {} of {} untraced chunks kept; reference p10 {fast_ref:.0} ns, \
             median {:.0} ns; timings scaled by {scale:.4}; raw frames_per_s={:.1} \
             auth_delay_p50_us={:.3} setup_s={:.6}",
            fast.wall_per_frame.len(),
            fast.chunks,
            quantile(&references, 0.5),
            1e9 / median(&fast.wall_per_frame),
            delay_us(0.5),
            setup_ns / 1e9,
        ),
        format!(
            "samples: auth_delay n={n} in the fastest chunks, {} beyond p50, {} beyond p99",
            n / 2,
            n / 100,
        ),
    ];
    let peaks: Vec<f64> = run
        .plain
        .iter()
        .map(|p| p.peak_bytes as f64 / (1024.0 * 1024.0))
        .collect();
    let metrics = if trace {
        per_layer(run)?
    } else {
        vec![
            metric(
                "frames_per_s",
                1e9 / (median(&fast.wall_per_frame) * scale),
                "1/s",
            )?,
            metric(
                "cpu_ns_per_frame",
                median(&fast.cpu_per_frame) * scale,
                "ns",
            )?,
            metric("auth_delay_p50_us", delay_us(0.5) * scale, "us")?,
            metric("auth_delay_p99_us", delay_us(0.99) * scale, "us")?,
            metric(
                "auth_fail_ratio",
                failed_per_pass as f64 / stream.reveals as f64,
                "ratio",
            )?,
            metric("peak_heap_mb", median(&peaks), "MB")?,
            metric("setup_s", setup_ns / 1e9 * scale, "s")?,
        ]
    };
    // An operation is one datagram handed to the receiver. It fails if
    // the receiver drops, sheds or cannot decode it, and any such frame
    // fails a pass's gate before a result is printed. A genuine message
    // the defense did not authenticate is not a failure of the program:
    // the paper's reservoir loses some under flood by design, and
    // `auth_fail_ratio` reports that share.
    lines.push(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        stream.frames.len() as u64 * passes,
        metrics.join(", ")
    ));
    Ok(lines)
}

/// The per-layer metrics of a `--trace 1` run. Timings of single calls
/// come from the traced passes; CPU shares and allocation counts come
/// from the untraced passes interleaved with them, so they describe the
/// program as deployed. Per-layer figures are raw: they have no bound,
/// and the stage budget compares them with each other.
fn per_layer(run: &Run) -> Result<Vec<String>, Failure> {
    let plain = Totals::of(&run.plain);
    let traced = Totals::of(&run.traced);
    let layers: Vec<&Layers> = run
        .traced
        .iter()
        .filter_map(|p| p.layers.as_ref())
        .collect();
    let sorted = |f: &dyn Fn(&Layers) -> Vec<u64>| {
        let mut all: Vec<u64> = layers.iter().flat_map(|l| f(l)).collect();
        all.sort_unstable();
        all
    };
    let widen = |v: &[u32]| v.iter().map(|&ns| u64::from(ns)).collect::<Vec<_>>();
    let ingest = sorted(&|l| widen(&l.driver.ingest_ns));
    let quiesce = sorted(&|l| l.driver.quiesce_ns.clone());
    let step = sorted(&|l| l.driver.step_ns.clone());
    let posture = sorted(&|l| l.driver.posture_ns.clone());
    let announce = sorted(&|l| widen(&l.tally.announce_ns));
    let reveal = sorted(&|l| widen(&l.tally.reveal_ns));
    let tally = |f: &dyn Fn(&Tally) -> u64| layers.iter().map(|l| f(&l.tally)).sum::<u64>() as f64;
    let calls = (announce.len() + reveal.len()) as f64;
    let per_pass = |n: usize| n as f64 / layers.len() as f64;
    let traced_cpu = median(&traced.cpu_per_frame);

    let mut stages = dap_simnet::Registry::new();
    for l in &layers {
        stages.merge(&l.registry);
    }
    let stage_keys = [
        ("ingress", keys::NET_STAGE_INGRESS_NS),
        ("queue_wait", keys::NET_STAGE_QUEUE_WAIT_NS),
        ("decode", keys::NET_STAGE_DECODE_NS),
        ("prefetch", keys::NET_STAGE_PREFETCH_NS),
        ("verify", keys::NET_STAGE_VERIFY_NS),
        ("buffer", keys::NET_STAGE_BUFFER_NS),
        ("reveal_auth", keys::NET_STAGE_REVEAL_AUTH_NS),
    ];
    let mut out = Vec::new();
    let mut attributed = 0.0;
    for (name, key) in stage_keys {
        let hist = stages.get_histogram(key);
        let p50 = hist.and_then(|h| h.quantile(0.5)).unwrap_or(0) as f64;
        // Queue wait is time spent waiting, not working: it has no
        // share of the CPU budget the remainder is taken against.
        if name != "queue_wait" {
            attributed += hist.map_or(0.0, |h| ratio(h.sum() as f64, h.count() as f64));
        }
        out.push(metric(&format!("stage.{name}_ns_p50"), p50, "ns")?);
    }
    out.push(metric("stage.remainder_ns", traced_cpu - attributed, "ns")?);

    let last = run.traced.last().expect("at least one traced pass");
    let (admitted, evicted, resident) = last.sessions;
    let us = |sorted: &[u64], q: f64| quantile(sorted, q) as f64 / 1e3;
    out.extend([
        metric("pool.ingest_ns_p50", quantile(&ingest, 0.5) as f64, "ns")?,
        metric(
            "pool.ingest_ns_per_frame",
            ratio(ingest.iter().sum::<u64>() as f64, ingest.len() as f64),
            "ns",
        )?,
        metric("pool.quiesce_us_p50", us(&quiesce, 0.5), "us")?,
        metric("pool.quiesce_us_p99", us(&quiesce, 0.99), "us")?,
        metric("pool.shard_busy_ratio", median(&plain.shard_busy), "ratio")?,
        metric(
            "verify.announce_ns_p50",
            quantile(&announce, 0.5) as f64,
            "ns",
        )?,
        metric("verify.announce_count", per_pass(announce.len()), "count")?,
        metric("verify.reveal_ns_p50", quantile(&reveal, 0.5) as f64, "ns")?,
        metric("verify.reveal_count", per_pass(reveal.len()), "count")?,
        metric(
            "verify.useful_ratio",
            ratio(tally(&|t| t.useful), calls),
            "ratio",
        )?,
        metric(
            "verify.prefetch_ns_per_reveal",
            ratio(tally(&|t| t.prefetch_ns), tally(&|t| t.prefetch_reveals)),
            "ns",
        )?,
        metric(
            "verify.prefetch_batch_mean",
            ratio(tally(&|t| t.prefetch_reveals), tally(&|t| t.prefetch_calls)),
            "count",
        )?,
        metric(
            "reservoir.kept_ratio",
            ratio(tally(&|t| t.kept), tally(&|t| t.offered)),
            "ratio",
        )?,
        metric("session.admitted", admitted as f64, "count")?,
        metric("session.evicted", evicted as f64, "count")?,
        metric("session.occupancy", resident as f64, "count")?,
        metric("control.step_us_p50", us(&step, 0.5), "us")?,
        metric(
            "control.directives",
            last.control.map_or(0, |(_, d)| d) as f64,
            "count",
        )?,
        metric("control.posture_us_p50", us(&posture, 0.5), "us")?,
        metric(
            "alloc.per_frame",
            ratio(plain.allocs, plain.frames),
            "count",
        )?,
        metric(
            "alloc.bytes_per_frame",
            ratio(plain.alloc_bytes, plain.frames),
            "B",
        )?,
        metric(
            "trace.overhead_ratio",
            ratio(traced_cpu, median(&plain.cpu_per_frame)),
            "ratio",
        )?,
    ]);
    Ok(out)
}
