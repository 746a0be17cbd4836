//! The observability plane must not cost determinism: a traced,
//! histogram-instrumented loopback campaign under a frozen time source
//! is as reproducible as an untraced one. Two same-seed runs must agree
//! byte-for-byte on the rendered registry snapshot *and* on the rendered
//! trace JSONL — that equality is what lets a flood incident be captured
//! once and replayed/diffed forever (see EXPERIMENTS.md).

use std::sync::Arc;

use crowdsense_dap::net::adversary::AdversaryClass;
use crowdsense_dap::net::fleet::{run_fleet, run_fleet_with, FleetReport, FleetSpec};
use crowdsense_dap::net::telemetry::SharedRegistry;
use crowdsense_dap::obs::{render_jsonl, TraceEvent};
use crowdsense_dap::simnet::keys;

fn traced_spec() -> FleetSpec {
    FleetSpec {
        seed: 20160706,
        intervals: 120,
        buffers: 4,
        shards: 4,
        queue_depth: 256,
        flood: 0.8,
        copies: 2,
        loss: 0.05,
        corrupt: 0.01,
        flood_end: None,
        adaptive: false,
        trace_depth: 65_536,
        span_every: 1,
        ..FleetSpec::untagged()
    }
}

fn run_traced() -> FleetReport {
    run_fleet_with(&traced_spec(), None)
}

#[test]
fn traced_loopback_snapshot_and_trace_are_byte_stable() {
    let a = run_traced();
    let b = run_traced();
    assert_eq!(
        a.registry.render(),
        b.registry.render(),
        "same seed must render the same telemetry snapshot"
    );
    assert_eq!(
        render_jsonl(&a.trace),
        render_jsonl(&b.trace),
        "same seed must render the same trace JSONL"
    );
    assert!(!a.trace.is_empty(), "traced run produced no records");
}

#[test]
fn trace_agrees_with_the_counters_it_narrates() {
    let report = run_traced();
    let m = &report.metrics;
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| -> u64 {
        report.trace.iter().filter(|r| pred(&r.event)).count() as u64
    };
    // One VerifyEnd per decoded frame, one BufferDecision per safe
    // announce, one KeyReveal per reveal — the trace is the counters,
    // event by event.
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::VerifyEnd { .. })),
        m.get(keys::NET_INGRESS_FRAMES) - m.get(keys::NET_DECODE_ERRORS),
        "every decoded frame gets exactly one verdict"
    );
    assert_eq!(
        count(&|e| matches!(e, TraceEvent::KeyReveal { .. })),
        m.get(keys::NET_REVEAL_TOTAL),
        "every reveal frame is narrated"
    );
    let kept = count(&|e| matches!(e, TraceEvent::BufferDecision { kept: true, .. }));
    assert_eq!(
        kept,
        m.get(keys::NET_ANNOUNCE_STORED),
        "kept buffer decisions match the stored counter"
    );
    // Wire faults are traced by the transport under its reserved source
    // id (shards + 1) and match the wire counters exactly.
    let spec = traced_spec();
    let wire_source = u32::try_from(spec.shards).expect("small") + 1;
    let wire_faults = report
        .trace
        .iter()
        .filter(|r| r.source == wire_source)
        .count() as u64;
    assert_eq!(
        wire_faults,
        m.get(keys::NET_WIRE_LOST) + m.get(keys::NET_WIRE_CORRUPTED),
        "every injected wire fault leaves a trace record"
    );
}

#[test]
fn span_recorder_narrates_every_decoded_frame_and_feeds_stage_histograms() {
    let report = run_traced();
    let m = &report.metrics;
    // span_every = 1: one FrameSpan per decoded frame, emitted after
    // the frame's causal events.
    let spans = report
        .trace
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::FrameSpan { .. }))
        .count() as u64;
    assert_eq!(
        spans,
        m.get(keys::NET_INGRESS_FRAMES) - m.get(keys::NET_DECODE_ERRORS),
        "every decoded frame gets exactly one flight-recorder span"
    );
    // The stage histograms carry one sample per span on the per-frame
    // stages (counts fingerprint the run; frozen clocks zero durations).
    let verify_stage = report
        .registry
        .get_histogram(keys::NET_STAGE_VERIFY_NS)
        .expect("stage histograms present under span_every > 0");
    assert_eq!(verify_stage.count(), spans);
    assert_eq!(verify_stage.max(), Some(0), "frozen clocks zero the stages");
    assert!(report
        .registry
        .get_histogram(keys::NET_STAGE_QUEUE_WAIT_NS)
        .is_some());
}

#[test]
fn adaptive_run_exposes_control_gauges_on_the_telemetry_snapshot() {
    // An adaptive ramp with a provisioned control slot (shards + 1)
    // publishes the plane's live posture as Prometheus gauges.
    let spec = FleetSpec {
        intervals: 160,
        flood: 0.1,
        flood_end: Some(0.9),
        adaptive: true,
        trace_depth: 0,
        span_every: 0,
        ..traced_spec()
    };
    let shared = Arc::new(SharedRegistry::new(spec.shards + 1));
    let report = run_fleet_with(&spec, Some(Arc::clone(&shared)));
    assert!(
        report.metrics.get(keys::CONTROL_SAMPLES) > 0,
        "the ramp must feed the estimator"
    );
    let text = shared.snapshot().render_prometheus();
    for family in [
        "# TYPE control_gauge_p_hat_ppm gauge",
        "# TYPE control_gauge_epoch gauge",
        "# TYPE control_gauge_m gauge",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    // The ramp ends near p = 0.9: the live estimate gauge must have
    // left zero, and the commanded m must be a live value >= 1.
    let shot = shared.snapshot();
    let p_hat = shot
        .get_gauge(keys::CONTROL_GAUGE_P_HAT_PPM)
        .and_then(|g| g.last())
        .expect("p̂ gauge set");
    assert!(p_hat > 0, "estimate gauge never moved");
    let live_m = shot
        .get_gauge(keys::CONTROL_GAUGE_M)
        .and_then(|g| g.last())
        .expect("m gauge set");
    assert!(live_m >= 1);
}

#[test]
fn frozen_time_keeps_latency_histograms_countful_but_durationless() {
    let report = run_traced();
    let verify = report
        .registry
        .get_histogram(keys::NET_STAGE_VERIFY_NS)
        .expect("verify stage histogram present");
    assert!(verify.count() > 0, "verify stage was timed");
    // Frozen TimeSource: every reading is zero ns, so counts fingerprint
    // the run while durations stay deterministic.
    assert_eq!(verify.max(), Some(0));
    // Queue occupancy is wall-only instrumentation and must be absent
    // from a deterministic run.
    assert!(report
        .registry
        .get_histogram(keys::NET_QUEUE_OCCUPANCY)
        .is_none());
}

#[test]
fn tracing_changes_no_counter() {
    // Each shape runs untraced and traced at the same span cadence: the
    // untagged flood (unwindowed drain); the tagged fleet under the
    // burst adversary with pins, a drain budget and a session cap (the
    // shed and eviction paths); and the adaptive ramp (the posture
    // path). A ring only records, so every counter, histogram and
    // report field must agree, and the untraced run holds no record.
    let flood = FleetSpec {
        intervals: 200,
        span_every: 1,
        ..FleetSpec::untagged()
    };
    let overload = FleetSpec {
        flood: 0.9,
        adversary: AdversaryClass::BurstReanchor,
        pins: (1..=8).collect(),
        drain_budget: 96,
        max_sessions: 12,
        span_every: 1,
        ..FleetSpec::default()
    };
    let ramp = FleetSpec {
        intervals: 300,
        buffers: 2,
        flood: 0.1,
        flood_end: Some(0.9),
        adaptive: true,
        span_every: 1,
        ..FleetSpec::untagged()
    };
    let fields = |r: &FleetReport| {
        (
            [r.auth_rate, r.expected_rate, r.shed_fraction].map(f64::to_bits),
            [r.frames, r.shed_frames, r.evictions],
            [
                r.min_sender_auth_permille,
                r.max_sender_auth_permille,
                r.median_sender_auth_permille,
                r.min_pinned_auth_permille,
                r.max_pinned_auth_permille,
                r.min_unpinned_auth_permille,
                r.max_unpinned_auth_permille,
            ],
        )
    };
    for (spec, paths) in [
        (flood, ["frame_span", "key_reveal"]),
        (overload, ["shed_decision", "session_evicted"]),
        (ramp, ["posture_change", "control_estimate"]),
    ] {
        let untraced = run_fleet(&FleetSpec {
            trace_depth: 0,
            ..spec.clone()
        });
        let traced = run_fleet(&FleetSpec {
            trace_depth: 65_536,
            ..spec
        });
        for path in paths {
            assert!(
                traced.trace.iter().any(|r| r.event.name() == path),
                "the traced run never emitted {path}"
            );
        }
        assert!(untraced.trace.is_empty() && untraced.trace_shed == 0);
        assert_eq!(
            untraced.registry.render(),
            traced.registry.render(),
            "{paths:?}"
        );
        assert_eq!(fields(&untraced), fields(&traced), "{paths:?}");
    }
}
