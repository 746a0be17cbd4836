//! `dapd` — DAP on a wire.
//!
//! One binary, five modes:
//!
//! ```text
//! # Deterministic in-process campaign (the ci.sh soak gates): one
//! # untagged sender (--loopback) or N tagged senders with a per-sender
//! # spoofing flood and session-table shards (--fleet):
//! dapd --loopback [--seed N] [--intervals N] [--buffers M] [--shards S]
//!      [--queue-depth Q] [--flood P] [--flood-end P2] [--copies G]
//!      [--loss L] [--corrupt C] [--tolerance T] [--adaptive]
//!      [--assert-soak] [--assert-adaptive] [--assert-posture-stable]
//!      [--trace-out PATH] [--trace-depth D] [--span-every N]
//!      [--telemetry ADDR]
//! dapd --fleet [every --loopback option] [--senders N]
//!      [--max-sessions K] [--session-budget-bits B] [--pin IDS]
//!      [--pin-first N] [--adversary CLASS] [--drain-budget B]
//!      [--assert-pinned-floor PERMILLE]
//!
//! # Adaptive defense (DESIGN §13): --adaptive runs the online control
//! # plane — the driver estimates the forged share from reveal-time
//! # buffer evidence and re-sizes every shard's reservoirs at the
//! # game's optimum as the flood changes. --flood-end P2 ramps the
//! # flood from --flood to P2 over the first half of the run.
//! # --assert-adaptive exits nonzero unless the loop actuated and the
//! # final m landed within ±1 of the offline Algorithm 3 optimum;
//! # --assert-posture-stable exits nonzero if any directive fired at
//! # all (the clean-wire no-flap gate). --assert-soak checks a clean,
//! # stationary wire against 1 − p^m.
//!
//! # Overload posture: --pin 1,2,7 (or --pin-first N for ids 1..=N)
//! # marks operator-pinned senders — never evicted while an unpinned
//! # session exists, drained first under pressure. --drain-budget B
//! # caps per-shard verifies per interval (the priority drain sheds the
//! # rest, attributed under net.shed.*). --adversary picks the attack:
//! # bernoulli | burst-reanchor | collusion | replay-edge | adaptive |
//! # reputation-farming (DESIGN §11). --assert-pinned-floor P exits
//! # nonzero if any pinned sender's auth rate lands below P permille.
//!
//! # Real UDP, three roles (run in separate terminals):
//! dapd --role receiver --bind 127.0.0.1:7440 [--seed N] [--intervals N]
//!      [--buffers M] [--shards S] [--queue-depth Q] [--duration-ms T]
//!      [--tick-us U] [--telemetry ADDR] [--trace-out PATH]
//! dapd --role sender   --target 127.0.0.1:7440 [--seed N] [--intervals N]
//!      [--copies G] [--tick-us U] [--sender-id ID]
//! dapd --role flooder  --target 127.0.0.1:7440 [--flood P] [--rate FPS]
//!      [--duration-ms T] [--seed N] [--tick-us U] [--spoof ID]
//! ```
//!
//! `--seed` and `--intervals` together stand in for the out-of-band
//! bootstrap a real deployment would provision: the receiver re-derives
//! the sender's chain (same seed, same length — the commitment is the
//! chain's end) instead of being handed the commitment. One tick is
//! `--tick-us` microseconds (default 1000 — 100 ms intervals).
//!
//! Observability: `--telemetry ADDR` serves the live registry in
//! Prometheus text format over HTTP (including the control plane's
//! `control_gauge_*` posture gauges under `--adaptive`); `--trace-out
//! PATH` writes the structured trace as JSONL — the header line's
//! timestamp comes from the run's own clock, so a seeded loopback/fleet
//! trace is byte-identical whole-file across same-seed runs.
//! `--span-every N` sets the flight-recorder cadence (default: every
//! verified datagram when traced; feed the file to `daptrace` for
//! timelines, audits and stage-latency reports); the receiver role
//! prints its final sorted telemetry snapshot on Ctrl-C or when
//! `--duration-ms` elapses.
//!
//! Every mode refuses, before it starts, any option it does not read
//! (exit status 2): a misspelled or foreign option never passes
//! silently. A missing or clashing mode exits 2 the same way, and
//! `--flood-end` is refused under any `--adversary` but bernoulli.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dap_core::{DapParams, DapSender, SenderId};
use dap_net::clock::{NetClock, RealClock};
use dap_net::fleet::{run_fleet_with, FleetReport, FleetSpec};
use dap_net::opts::Opts;
use dap_net::pool::{DapShard, OverflowPolicy, PoolConfig, PoolObs, ReceiverPool, RoutePolicy};
use dap_net::pump::{Flooder, SenderPump};
use dap_net::telemetry::{SharedRegistry, TelemetryServer};
use dap_net::transport::{Transport, UdpTransport};
use dap_obs::{JsonlSink, TimeSource, TraceRecord, TraceSink};
use dap_simnet::SimDuration;

const FLAGS: &[&str] = &[
    "loopback",
    "fleet",
    "assert-soak",
    "adaptive",
    "assert-adaptive",
    "assert-posture-stable",
];

/// Stores a Ctrl-C so the receiver loop can drain, snapshot and exit
/// cleanly instead of dying mid-run with its telemetry unprinted.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT handler (raw `signal(2)` — the workspace is
    /// hermetic, so no signal-hook crate; the handler only stores an
    /// atomic flag, which is async-signal-safe).
    pub fn install() {
        const SIGINT: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    /// Whether a SIGINT arrived since `install`.
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}

    pub fn interrupted() -> bool {
        false
    }
}

fn main() {
    let opts = Opts::parse(FLAGS);
    let (loopback, fleet) = (opts.flag("loopback"), opts.flag("fleet"));
    if loopback && fleet {
        refuse("--loopback and --fleet are exclusive");
    }
    if loopback || fleet {
        run_campaign(&opts, loopback);
        return;
    }
    match opts.get("role") {
        Some("sender") => run_sender(&opts),
        Some("receiver") => run_receiver(&opts),
        Some("flooder") => run_flooder(&opts),
        Some(other) => refuse(&format!(
            "unknown --role {other:?} (sender | receiver | flooder)"
        )),
        None => refuse("need --loopback, --fleet or --role sender|receiver|flooder"),
    }
}

/// Ends a run that was asked for wrongly: a `dapd:` line on stderr and
/// exit status 2, before anything starts.
fn refuse(message: &str) -> ! {
    eprintln!("dapd: {message}");
    std::process::exit(2);
}

/// Shared protocol parameters for the UDP roles: 100-tick intervals,
/// `d = 1`, a generous Δ (wall clocks on two processes are loose), `m`
/// buffers.
fn udp_params(buffers: usize) -> DapParams {
    DapParams::new(SimDuration(100), 1, 30, buffers)
}

/// Trace ring depth: explicit `--trace-depth`, else a generous default
/// whenever `--trace-out` asks for the trace at all.
fn trace_depth(opts: &Opts) -> usize {
    let default = if opts.get("trace-out").is_some() {
        65_536
    } else {
        0
    };
    opts.get_or("trace-depth", default)
}

/// Flight-recorder cadence: explicit `--span-every`, else record every
/// verified datagram whenever the run is traced at all (spans are what
/// `daptrace report` breaks latency down from).
fn span_every(opts: &Opts) -> u64 {
    let default = u64::from(trace_depth(opts) > 0);
    opts.get_or("span-every", default)
}

/// Exits with status 2 naming every option the selected mode never
/// read. Called once a mode has read all its options, before it starts.
fn refuse_unread(opts: &Opts) {
    let unread = opts.unread();
    if !unread.is_empty() {
        let names: Vec<String> = unread.iter().map(|name| format!("--{name}")).collect();
        refuse(&format!("this mode does not take {}", names.join(", ")));
    }
}

/// Writes the sorted trace as JSONL. The header line's timestamp comes
/// from the run's own `time` — frozen (0) for the deterministic
/// campaigns, so two same-seed traced runs are byte-identical whole-file
/// (no `tail -n +2` needed to compare them), wall for the UDP roles.
/// The note goes to stderr: stdout is the deterministic snapshot the
/// ci.sh gates `cmp`, and the note embeds a run-specific path. It says
/// when full rings shed records (`shed`): such a capture lacks each
/// ring's oldest records, and `daptrace audit` flags the gap.
fn write_trace(path: &str, records: &[TraceRecord], shed: u64, time: &TimeSource) {
    let mut sink = JsonlSink::create(path, time).expect("create --trace-out file");
    for record in records {
        sink.record(record.clone());
    }
    sink.finish().expect("flush --trace-out file");
    let note = if shed > 0 {
        format!(" ({shed} shed by full rings; raise --trace-depth)")
    } else {
        String::new()
    };
    eprintln!("trace: {} records -> {path}{note}", records.len());
}

/// The seeded in-process campaign. `untagged` (`--loopback`) picks the
/// one-untagged-sender roster and its defaults; `--fleet` the tagged
/// roster, which alone reads the session, pin, adversary and drain
/// options. Everything else means the same under both.
fn run_campaign(opts: &Opts, untagged: bool) {
    let base = if untagged {
        FleetSpec::untagged()
    } else {
        let base = FleetSpec::default();
        FleetSpec {
            senders: opts.get_or("senders", base.senders),
            max_sessions: opts.get_or("max-sessions", base.max_sessions),
            memory_budget_bits: opts.get_or("session-budget-bits", base.memory_budget_bits),
            pins: parse_pins(opts),
            adversary: opts
                .get("adversary")
                .map_or(Ok(base.adversary), str::parse)
                .expect("--adversary"),
            drain_budget: opts.get_or("drain-budget", base.drain_budget),
            ..base
        }
    };
    let spec = FleetSpec {
        seed: opts.get_or("seed", base.seed),
        intervals: opts.get_or("intervals", base.intervals),
        buffers: opts.get_or("buffers", base.buffers),
        shards: opts.get_or("shards", base.shards),
        queue_depth: opts.get_or("queue-depth", base.queue_depth),
        flood: opts.get_or("flood", base.flood),
        // Under an adversary that does not ramp, --flood-end stays
        // unread, and so refused.
        flood_end: base
            .adversary
            .ramps()
            .then(|| opts.get("flood-end"))
            .flatten()
            .map(|v| v.parse().expect("--flood-end is a bandwidth share")),
        copies: opts.get_or("copies", base.copies),
        loss: opts.get_or("loss", base.loss),
        corrupt: opts.get_or("corrupt", base.corrupt),
        adaptive: opts.flag("adaptive"),
        trace_depth: trace_depth(opts),
        span_every: span_every(opts),
        ..base
    };
    let tolerance = opts.get_or("tolerance", 0.08);
    let pinned_floor = if untagged {
        None
    } else {
        opts.get("assert-pinned-floor")
            .map(|v| v.parse::<u64>().expect("--assert-pinned-floor is permille"))
    };
    let (soak, adaptive, stable) = (
        opts.flag("assert-soak"),
        opts.flag("assert-adaptive"),
        opts.flag("assert-posture-stable"),
    );
    let (trace_out, telemetry) = (opts.get("trace-out"), opts.get("telemetry"));
    refuse_unread(opts);
    println!(
        "dapd --{} seed={} senders={} intervals={} m={} shards={} p={} p_end={} copies={} \
         loss={} corrupt={} budget={}b adversary={} pins={} drain_budget={} adaptive={}",
        if untagged { "loopback" } else { "fleet" },
        spec.seed,
        spec.senders,
        spec.intervals,
        spec.buffers,
        spec.shards,
        spec.flood,
        spec.flood_end.unwrap_or(spec.flood),
        spec.copies,
        spec.loss,
        spec.corrupt,
        spec.memory_budget_bits,
        spec.adversary.label(),
        spec.pins.len(),
        if spec.drain_budget == usize::MAX {
            "unbounded".to_string()
        } else {
            spec.drain_budget.to_string()
        },
        spec.adaptive
    );
    // One telemetry slot per shard plus the control plane's gauge slot.
    let shared = telemetry.map(|_| Arc::new(SharedRegistry::new(spec.shards + 1)));
    let server = telemetry.map(|addr| {
        let server = TelemetryServer::bind(addr, Arc::clone(shared.as_ref().expect("built above")))
            .expect("bind --telemetry listener");
        eprintln!("telemetry: http://{}/", server.local_addr());
        server
    });
    let report = run_fleet_with(&spec, shared);
    print!("{}", report.registry.render());
    println!(
        "auth_rate {:.4}   expected {:.4}   (1 - p^m, per sender)",
        report.auth_rate, report.expected_rate
    );
    if let (Some(lo), Some(hi)) = (
        report.min_sender_auth_permille,
        report.max_sender_auth_permille,
    ) {
        println!("sender envelope: {lo}..{hi} permille");
    }
    if let (Some(lo), Some(hi)) = (
        report.min_pinned_auth_permille,
        report.max_pinned_auth_permille,
    ) {
        println!("pinned envelope: {lo}..{hi} permille");
    }
    if let (Some(lo), Some(hi)) = (
        report.min_unpinned_auth_permille,
        report.max_unpinned_auth_permille,
    ) {
        println!("unpinned envelope: {lo}..{hi} permille");
    }
    println!(
        "shed: {} of {} frames ({:.4}), evictions {}",
        report.shed_frames, report.frames, report.shed_fraction, report.evictions
    );
    if let Some(path) = trace_out {
        write_trace(
            path,
            &report.trace,
            report.trace_shed,
            &TimeSource::frozen(),
        );
    }
    if soak {
        assert_soak(&spec, &report, tolerance);
        println!("soak: ok");
    }
    if let Some(floor) = pinned_floor {
        let lo = report
            .min_pinned_auth_permille
            .expect("--assert-pinned-floor needs pinned senders (--pin / --pin-first)");
        assert!(
            lo >= floor,
            "pinned auth floor {lo} permille below the asserted {floor}"
        );
        println!("pinned floor: ok ({lo} >= {floor} permille)");
    }
    if adaptive {
        assert_adaptive(spec.flood_end.unwrap_or(spec.flood), &report.metrics);
        println!("adaptive: ok");
    }
    if stable {
        assert_posture_stable(&report.metrics);
        println!("posture: stable");
    }
    if let Some(server) = server {
        server.stop();
    }
}

/// The adaptive-gate invariants: the control loop sampled evidence,
/// actuated at least once, and commanded a final `m` within ±1 of the
/// offline Algorithm 3 optimum for the final flood share.
fn assert_adaptive(final_flood: f64, m: &dap_simnet::Metrics) {
    use dap_game::{optimal_buffer_count, DosGameParams};
    use dap_simnet::keys;

    assert!(m.get(keys::CONTROL_SAMPLES) > 0, "no evidence sampled");
    assert!(
        m.get(keys::CONTROL_DIRECTIVES) >= 1,
        "the control loop never actuated"
    );
    let offline = optimal_buffer_count(DosGameParams::paper_defaults(final_flood, 1), 50);
    let live = u32::try_from(m.get(keys::CONTROL_M)).expect("control.m fits u32");
    assert!(
        live.abs_diff(offline.m) <= 1,
        "live m {live} vs offline m* {} at p = {final_flood}",
        offline.m
    );
}

/// The no-flap gate: on a wire whose measured forged share never
/// leaves the solver's current optimum, no directive may fire.
fn assert_posture_stable(m: &dap_simnet::Metrics) {
    use dap_simnet::keys;

    assert!(m.get(keys::CONTROL_SAMPLES) > 0, "no evidence sampled");
    assert_eq!(
        m.get(keys::CONTROL_DIRECTIVES),
        0,
        "stationary run flipped posture"
    );
}

/// The pin roster: `--pin 1,2,7` (explicit ids) merged with
/// `--pin-first N` (ids `1..=N`), deduplicated and sorted.
fn parse_pins(opts: &Opts) -> Vec<u64> {
    let mut pins: std::collections::BTreeSet<u64> = opts
        .get("pin")
        .map(|list| {
            list.split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.trim().parse().expect("--pin takes comma-separated ids"))
                .collect()
        })
        .unwrap_or_default();
    pins.extend(1..=opts.get_or("pin-first", 0u64));
    pins.into_iter().collect()
}

/// The soak invariants the ci.sh gates rely on. Only meaningful on a
/// clean, stationary wire (`loss = corrupt = 0`, no `--flood-end`):
/// every genuine reveal then arrives, no forged announce ever
/// authenticates, session residency respects the configured budget,
/// and the *only* way a genuine reveal fails is reservoir eviction by
/// the flood — precisely the per-sender `1 − p^m` experiment, predicted
/// at the one share the wire runs at.
fn assert_soak(spec: &FleetSpec, report: &FleetReport, tolerance: f64) {
    use dap_simnet::keys;

    assert!(
        spec.loss == 0.0 && spec.corrupt == 0.0,
        "--assert-soak needs a clean wire (loss = corrupt = 0)"
    );
    assert!(
        spec.flood_end.is_none(),
        "--assert-soak needs a stationary flood: 1 - p^m is predicted at --flood, \
         not along a --flood-end ramp"
    );
    let m = &report.metrics;
    // Nothing on a clean wire may be dropped, garbled or forged-key'd.
    assert_eq!(
        m.get(keys::NET_INGRESS_DROPPED),
        0,
        "backpressure run shed frames"
    );
    assert_eq!(
        m.get(keys::NET_DECODE_ERRORS),
        0,
        "clean wire had decode errors"
    );
    assert_eq!(
        m.get(keys::NET_REVEAL_WEAK_REJECTED),
        0,
        "forged or cross-sender key accepted by the weak check"
    );
    if let Some(memory) = report.registry.get_gauge(keys::NET_SESSION_MEMORY_BITS) {
        assert!(
            memory.max().unwrap_or(0) <= spec.memory_budget_bits,
            "session memory exceeded the per-shard budget"
        );
    }
    // The remaining invariants describe the classic Bernoulli posture
    // with an unbounded drain: a replay adversary makes NoCandidate
    // legitimate, and a finite budget sheds whole reveal windows — both
    // break the exact balance and the 1 − p^m tracking by design.
    if spec.adversary != dap_net::AdversaryClass::Bernoulli || spec.drain_budget != usize::MAX {
        return;
    }
    // Every sender's every reveal arrived and was decided one way:
    assert_eq!(
        m.get(keys::NET_REVEAL_TOTAL),
        spec.intervals * spec.senders,
        "reveals lost"
    );
    assert_eq!(
        m.get(keys::NET_REVEAL_AUTH) + m.get(keys::NET_REVEAL_STRONG_REJECTED),
        m.get(keys::NET_REVEAL_TOTAL),
        "reveal outcomes do not balance"
    );
    if spec.flood == 0.0 && m.get(keys::NET_SESSION_EVICTED) == 0 {
        // No adversary and no churn: every genuine reveal authenticates.
        assert_eq!(
            m.get(keys::NET_REVEAL_AUTH),
            m.get(keys::NET_REVEAL_TOTAL),
            "clean un-evicted run failed to authenticate everything"
        );
    } else if spec.flood > 0.0 {
        // Under flood: the buffer-hit rate tracks the paper's 1 − p^m.
        let gap = (report.auth_rate - report.expected_rate).abs();
        assert!(
            gap <= tolerance,
            "auth rate {:.4} vs expected {:.4}: gap {gap:.4} > tolerance {tolerance}",
            report.auth_rate,
            report.expected_rate
        );
    }
}

fn run_sender(opts: &Opts) {
    let seed: u64 = opts.get_or("seed", 2016);
    let intervals: u64 = opts.get_or("intervals", 60);
    let copies: u32 = opts.get_or("copies", 2);
    let tick_us: u64 = opts.get_or("tick-us", 1000);
    let target = opts.get("target").expect("sender needs --target host:port");
    let bind = opts.get("bind").unwrap_or("127.0.0.1:0");
    let tag = opts
        .get("sender-id")
        .map(|id| SenderId(id.parse().expect("--sender-id must be a number")));
    refuse_unread(opts);

    let chain_len = usize::try_from(intervals).expect("interval count") + 2;
    let sender = DapSender::new(&seed.to_be_bytes(), chain_len, udp_params(8));
    let transport = UdpTransport::sender(bind, target).expect("bind sender socket");
    let clock = RealClock::new(Duration::from_micros(tick_us));
    println!(
        "dapd sender -> {target}: {intervals} intervals x {copies} copies, seed {seed}, \
         {tick_us}us ticks{}",
        tag.map_or(String::new(), |id| format!(", sender-id {}", id.0))
    );
    let mut pump = SenderPump::new(sender, transport, clock, copies);
    if let Some(id) = tag {
        pump = pump.with_sender_id(id);
    }
    let stats = pump
        .run(intervals, |i| format!("reading {i}").into_bytes())
        .expect("send failed");
    println!(
        "sender done: {} announces, {} reveals, {} exhausted",
        stats.announces, stats.reveals, stats.exhausted
    );
}

fn run_receiver(opts: &Opts) {
    let seed: u64 = opts.get_or("seed", 2016);
    let intervals: u64 = opts.get_or("intervals", 60);
    let buffers: usize = opts.get_or("buffers", 8);
    let shards: usize = opts.get_or("shards", 4);
    let queue_depth: usize = opts.get_or("queue-depth", 1024);
    let duration_ms: u64 = opts.get_or("duration-ms", 10_000);
    let tick_us: u64 = opts.get_or("tick-us", 1000);
    let bind = opts.get("bind").expect("receiver needs --bind host:port");
    let (trace_depth, span_every) = (trace_depth(opts), span_every(opts));
    let (trace_out, telemetry) = (opts.get("trace-out"), opts.get("telemetry"));
    refuse_unread(opts);

    sigint::install();

    // Derive the sender's commitment from the shared seed (the demo's
    // stand-in for out-of-band bootstrap). The chain commitment is the
    // *end* of the chain, so both sides must agree on `--intervals` too
    // — a different chain length is a different commitment.
    let chain_len = usize::try_from(intervals).expect("interval count") + 2;
    let bootstrap = DapSender::new(&seed.to_be_bytes(), chain_len, udp_params(buffers)).bootstrap();
    let mut transport =
        UdpTransport::receiver(bind, Duration::from_millis(20)).expect("bind receiver socket");
    let shared = telemetry.map(|_| Arc::new(SharedRegistry::new(shards)));
    let server = telemetry.map(|addr| {
        let server = TelemetryServer::bind(addr, Arc::clone(shared.as_ref().expect("built above")))
            .expect("bind --telemetry listener");
        eprintln!("telemetry: http://{}/", server.local_addr());
        server
    });
    let pool = ReceiverPool::spawn_with_obs(
        PoolConfig {
            shards,
            queue_depth,
            overflow: OverflowPolicy::DropCount,
            route: RoutePolicy::ByInterval,
            ..PoolConfig::default()
        },
        seed,
        |shard| DapShard::new(bootstrap, &[b'u', b'd', b'p', shard as u8]),
        PoolObs {
            time: TimeSource::wall(),
            trace_depth,
            publish: shared,
            // Live enough for a scrape without a per-frame lock.
            publish_every: 256,
            span_every,
        },
    );
    let handle = pool.handle();
    println!(
        "dapd receiver on {bind}: m={buffers} shards={shards} depth={queue_depth}, \
         listening {duration_ms}ms (Ctrl-C for early snapshot)"
    );
    let deadline = Instant::now() + Duration::from_millis(duration_ms);
    let schedule = udp_params(buffers).schedule();
    // The two processes share no epoch: anchor the receiver's clock on
    // the interval the first frame claims (loose sync by first contact,
    // unauthenticated — see RealClock::first_contact).
    let mut clock: Option<RealClock> = None;
    let mut buf = vec![0u8; dap_core::codec::MAX_FRAME_LEN];
    let mut socket_failed = false;
    while Instant::now() < deadline && !sigint::interrupted() {
        match transport.recv(&mut buf) {
            Ok(Some(n)) => {
                let at = clock
                    .get_or_insert_with(|| {
                        RealClock::first_contact(
                            Duration::from_micros(tick_us),
                            &schedule,
                            &buf[..n],
                        )
                    })
                    .now();
                handle.ingest(&buf[..n], at);
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("receiver socket error: {e}; draining shards and snapshotting");
                socket_failed = true;
                break;
            }
        }
    }
    if sigint::interrupted() {
        println!("interrupted: draining shards and snapshotting");
    }
    let report = pool.shutdown_with_report();
    print!("{}", report.registry.render());
    if let Some(path) = trace_out {
        write_trace(path, &report.trace, report.trace_shed, &TimeSource::wall());
    }
    let counters = report.registry.counters();
    let auth = counters.get(dap_simnet::keys::NET_REVEAL_AUTH);
    let total = counters.get(dap_simnet::keys::NET_REVEAL_TOTAL);
    println!("receiver done: {auth}/{total} reveals authenticated");
    if let Some(server) = server {
        server.stop();
    }
    if socket_failed {
        std::process::exit(1);
    }
}

fn run_flooder(opts: &Opts) {
    let seed: u64 = opts.get_or("seed", 666);
    let p: f64 = opts.get_or("flood", 0.9);
    let rate: u64 = opts.get_or("rate", 2000);
    let duration_ms: u64 = opts.get_or("duration-ms", 10_000);
    let tick_us: u64 = opts.get_or("tick-us", 1000);
    let target = opts
        .get("target")
        .expect("flooder needs --target host:port");
    let spoof = opts
        .get("spoof")
        .map(|id| SenderId(id.parse().expect("--spoof must be a sender id number")));
    refuse_unread(opts);

    let transport = UdpTransport::sender("127.0.0.1:0", target).expect("bind flooder socket");
    let clock = RealClock::new(Duration::from_micros(tick_us));
    let schedule = udp_params(8).schedule();
    let mut flooder = Flooder::new(transport, seed, p);
    println!(
        "dapd flooder -> {target}: p={p} ({rate} forged/s for {duration_ms}ms, seed {seed}{})",
        spoof.map_or(String::new(), |id| format!(", spoofing sender {}", id.0))
    );
    let deadline = Instant::now() + Duration::from_millis(duration_ms);
    // Send in 10ms batches so the claimed interval index stays current.
    let batch = (rate / 100).max(1);
    let mut sent = 0u64;
    while Instant::now() < deadline {
        match spoof {
            // Spoofed fleet attack: tagged forgeries claiming a victim.
            Some(victim) => {
                let index = schedule.index_at(clock.now());
                for _ in 0..batch {
                    flooder
                        .send_forged_as(victim, index)
                        .expect("flood send failed");
                }
                sent += batch;
            }
            None => {
                sent += flooder
                    .flood_current(&clock, &schedule, batch)
                    .expect("flood send failed");
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("flooder done: {sent} forged announces");
}
