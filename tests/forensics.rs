//! Forensic-layer gates: the JSONL trace dialect round-trips
//! byte-identically, a seeded flood soak audits clean, a corrupted
//! capture is flagged with its line number, a capture whose rings shed
//! audits clean while its edits do not, and the daptrace report is
//! byte-stable across same-seed runs — the library-level versions of
//! what the ci.sh `daptrace` gate checks through the binary.

use std::collections::BTreeSet;

use crowdsense_dap::net::fleet::{run_fleet, FleetSpec};
use crowdsense_dap::net::{forensics, AdversaryClass};
use crowdsense_dap::obs::{header_line, parse_trace, render_jsonl, write_trace, TraceEvent};
use crowdsense_dap::simnet::keys;

/// The seeded flood capture every test here forensically examines:
/// heavy flood (`p = 0.9`), deep enough rings that nothing is shed,
/// spans on every frame.
fn flood_trace() -> Vec<crowdsense_dap::obs::TraceRecord> {
    let spec = FleetSpec {
        intervals: 60,
        trace_depth: 65_536,
        span_every: 1,
        ..FleetSpec::untagged()
    };
    let report = run_fleet(&spec);
    assert!(!report.trace.is_empty(), "traced run must produce records");
    report.trace
}

#[test]
fn jsonl_round_trip_is_byte_identical() {
    let records = flood_trace();
    // The on-disk shape: the frozen-clock header line plus one record
    // per line — exactly what `dapd --trace-out` writes.
    let text = format!("{}\n{}", header_line(0, 0), render_jsonl(&records));
    let parsed = parse_trace(&text).expect("own render must parse");
    let header = parsed.header.expect("header line present");
    let rendered = format!(
        "{}\n{}",
        header_line(header.clock_ns, header.shed),
        render_jsonl(&parsed.records)
    );
    assert_eq!(text, rendered, "parse → re-render must be byte-identical");
}

#[test]
fn seeded_flood_soak_audits_clean() {
    let records = flood_trace();
    let text = render_jsonl(&records);
    let parsed = parse_trace(&text).expect("flood trace parses");
    let violations = forensics::audit(&parsed, &BTreeSet::new());
    assert!(
        violations.is_empty(),
        "pipeline trace must satisfy its own invariants: {:?}",
        violations.first()
    );
    // The run floods at p = 0.9 from the first interval, so the
    // forged-share trajectory crosses the onset threshold immediately.
    let trajectory = forensics::forged_share_trajectory(&parsed);
    let onset = forensics::attack_onset(&trajectory);
    assert!(onset.is_some(), "constant 0.9 flood must register an onset");
}

#[test]
fn collusion_capture_with_unknown_senders_audits_clean() {
    // The colluders fabricate ids past the roster, so the fleet shards
    // label those frames `unknown_sender`: the capture must still parse
    // and satisfy every invariant.
    let report = run_fleet(&FleetSpec {
        seed: 2016,
        senders: 16,
        intervals: 6,
        buffers: 4,
        shards: 2,
        flood: 0.9,
        adversary: AdversaryClass::Collusion,
        trace_depth: 65_536,
        span_every: 1,
        ..FleetSpec::default()
    });
    assert!(report.metrics.get(keys::NET_SESSION_UNKNOWN) > 0);
    let text = render_jsonl(&report.trace);
    assert!(text.contains("\"outcome\":\"unknown_sender\""));
    let parsed = parse_trace(&text).expect("collusion trace parses");
    let violations = forensics::audit(&parsed, &BTreeSet::new());
    assert!(violations.is_empty(), "{:?}", violations.first());
}

#[test]
fn corrupted_line_is_flagged_with_its_line_number() {
    let records = flood_trace();
    let text = render_jsonl(&records);
    // Corrupt the first verify_end by renaming its outcome to a label
    // no writer produces — classic single-line tamper.
    let target = text
        .lines()
        .position(|l| l.contains("\"ev\":\"verify_end\""))
        .expect("flood trace has verify_end records");
    let tampered: String = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == target {
                l.replace("\"outcome\":\"", "\"outcome\":\"hacked_")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let err = parse_trace(&tampered).expect_err("tampered line must not parse");
    assert_eq!(err.line, target + 1, "violation names the tampered line");
}

#[test]
fn audit_flags_a_forged_causal_stream() {
    // Parsing alone cannot catch a *well-formed* lie; the audit must.
    // Splice a session eviction for a pinned sender into an otherwise
    // clean capture.
    let mut records = flood_trace();
    let last_seq = records
        .iter()
        .filter(|r| r.source == 0)
        .map(|r| r.seq)
        .max()
        .expect("shard 0 emitted");
    records.push(crowdsense_dap::obs::TraceRecord {
        source: 0,
        seq: last_seq + 1,
        at: 0,
        event: TraceEvent::SessionEvicted {
            sender: 7,
            shard: 0,
            occupancy: 0,
        },
    });
    crowdsense_dap::obs::sort_records(&mut records);
    let parsed = parse_trace(&render_jsonl(&records)).expect("splice still parses");
    let pinned: BTreeSet<u64> = [7].into();
    let violations = forensics::audit(&parsed, &pinned);
    assert!(
        violations.iter().any(|v| v.rule == "pin-respected"),
        "evicting a pinned sender must be flagged: {violations:?}"
    );
}

#[test]
fn report_is_byte_stable_across_same_seed_runs() {
    let first = flood_trace();
    let second = flood_trace();
    let report_a = forensics::render_report(&parse_trace(&render_jsonl(&first)).expect("parses"));
    let report_b = forensics::render_report(&parse_trace(&render_jsonl(&second)).expect("parses"));
    assert_eq!(report_a, report_b, "same seed ⇒ byte-identical report");
    assert!(report_a.contains("stage"), "report carries the stage table");
    assert!(
        report_a.contains("frame_span"),
        "report census counts flight-recorder spans"
    );
}

#[test]
fn a_shedding_capture_audits_as_shedding() {
    // The adaptive ramp with rings far shallower than the run: each
    // shard keeps only its newest records, so it opens mid-frame and
    // mid-stream, while the control plane's few records all fit.
    let report = run_fleet(&FleetSpec {
        intervals: 60,
        buffers: 2,
        shards: 2,
        flood: 0.1,
        flood_end: Some(0.9),
        adaptive: true,
        trace_depth: 1024,
        span_every: 1,
        ..FleetSpec::untagged()
    });
    let shed = report.trace_shed;
    assert!(shed > 0, "the shard rings must shed");
    let mut bytes = Vec::new();
    write_trace(&mut bytes, 0, shed, &report.trace).expect("write to a Vec");
    let text = String::from_utf8(bytes).expect("utf8");
    assert!(text.starts_with(&header_line(0, shed)));
    let findings = |text: &str| -> Vec<(usize, &'static str)> {
        let trace = parse_trace(text).expect("parses");
        forensics::audit(&trace, &BTreeSet::new())
            .iter()
            .map(|v| (v.line, v.rule))
            .collect()
    };
    assert_eq!(findings(&text), vec![]);
    let lines: Vec<&str> = text.lines().collect();
    let without = |cut: usize| -> String {
        let kept = lines.iter().enumerate().filter(|(i, _)| *i != cut);
        kept.map(|(_, line)| format!("{line}\n")).collect()
    };
    // A record lost inside the capture still breaks its source's seqs.
    let mid = lines.len() / 2;
    assert!(lines[mid + 1].starts_with(&lines[mid][..lines[mid].find(",\"seq\"").unwrap()]));
    assert_eq!(findings(&without(mid)), vec![(mid + 1, "seq-continuity")]);
    // A source that shed nothing starts at seq 0; cutting its first
    // record makes the late starts outrun the declared count.
    let first = lines
        .iter()
        .position(|line| line.contains(",\"seq\":0,"))
        .expect("the control plane's ring shed nothing");
    assert_eq!(findings(&without(first)), vec![(1, "seq-continuity")]);
    // So does a lowered count.
    let lowered = text.replacen(&header_line(0, shed), &header_line(0, shed - 1), 1);
    assert_eq!(findings(&lowered), vec![(1, "seq-continuity")]);
}
