//! Trace forensics: the analysis engine behind the `daptrace` binary.
//!
//! A `--trace-out` JSONL file is a complete causal narration of a run —
//! every frame arrival, verdict, reservoir decision, key reveal,
//! shed, eviction and posture change, ordered by `(source, seq)`. This
//! module turns that narration into three artefacts:
//!
//! * [`audit`] — checks the causal invariants the pipeline promises
//!   (each source's records are gapless and in order, shed frames
//!   never authenticate, spans agree with their verdicts, posture
//!   epochs are monotone, reservoirs respect `m`, pinned sessions are
//!   never evicted) and returns every [`Violation`] with its file line;
//! * [`render_report`] — a byte-stable stage-latency breakdown (from
//!   the flight recorder's [`TraceEvent::FrameSpan`] samples) plus an
//!   attack-onset estimate read off the forged-share trajectory the
//!   reservoir decisions encode;
//! * [`render_timeline`] — the per-source / per-sender frame lifecycle,
//!   one human-readable line per record.
//!
//! Everything here is a pure function of the parsed records, so two
//! same-seed traces produce byte-identical audits, reports and
//! timelines — which is exactly what the ci.sh `daptrace` gate `cmp`s.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use dap_obs::{ParsedTrace, SpanStage, TraceEvent, TraceRecord};
use dap_simnet::Samples;

/// One broken invariant, pointing at the 1-indexed JSONL line of the
/// record that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// 1-indexed line in the trace file (header included in the count).
    pub line: usize,
    /// The invariant's stable rule name.
    pub rule: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    /// The stable one-line rendering the audit output uses.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "violation line {}: [{}] {}",
            self.line, self.rule, self.detail
        )
    }
}

/// Per-source audit state: seqs must run on without a gap, shed tails
/// must stay quiet, epochs must move forward.
#[derive(Debug, Default)]
struct SourceState {
    /// The seq the source's next record must carry: one past the
    /// highest seen so far (its first retained seq before its first
    /// record).
    next_seq: u64,
    /// The source's ring shed its oldest records: its first retained
    /// seq is not 0, so the capture may open mid-frame and mid-stream.
    ring_shed: bool,
    /// `true` between a `ShedDecision` and the next `FrameRx`: shed
    /// frames were never decoded, so nothing frame-scoped may happen.
    in_shed_tail: bool,
    /// Line of the shed that opened the current tail.
    shed_line: usize,
    /// Last posture epoch seen (strictly increasing per source).
    last_posture_epoch: Option<u64>,
    /// Last control-estimate epoch seen (non-decreasing per source).
    last_estimate_epoch: Option<u64>,
    /// Outcome and interval of the most recent `VerifyEnd`, which a
    /// following `FrameSpan` must agree with.
    last_verdict: Option<(&'static str, u64)>,
}

/// Audits a parsed trace against the pipeline's causal invariants.
/// `pinned` is the operator pin roster the run was started with
/// (`--pin` / `--pin-first`); pinned senders must never be evicted.
///
/// A full ring keeps its newest records, so a source's first retained
/// seq is the number of records its ring shed. Those late starts must
/// add up to the shed count the header declares (0 without one);
/// otherwise the audit reports one `seq-continuity` finding at line 1.
/// Each source is then checked from its first retained seq.
///
/// The returned violations are in file-line order.
#[must_use]
pub fn audit(trace: &ParsedTrace, pinned: &BTreeSet<u64>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let offset = usize::from(trace.header.is_some());
    let mut sources: BTreeMap<u32, SourceState> = BTreeMap::new();
    for record in &trace.records {
        sources.entry(record.source).or_insert_with(|| SourceState {
            next_seq: record.seq,
            ring_shed: record.seq > 0,
            ..SourceState::default()
        });
    }
    let late = sources
        .values()
        .fold(0u64, |late, state| late.saturating_add(state.next_seq));
    let declared = trace.header.map_or(0, |header| header.shed);
    if late != declared {
        violations.push(Violation {
            line: 1,
            rule: "seq-continuity",
            detail: format!(
                "sources start {late} record(s) late, but the capture declares {declared} shed"
            ),
        });
    }
    // Reservoir streams keyed by (source, interval), each the last
    // offer counter `k` of one session stream (see `audit_record`).
    let mut reservoirs: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
    for (idx, record) in trace.records.iter().enumerate() {
        let line = idx + 1 + offset;
        let state = sources.entry(record.source).or_default();
        audit_record(
            record,
            line,
            state,
            &mut reservoirs,
            pinned,
            &mut violations,
        );
    }
    violations.sort_by_key(|v| v.line);
    violations
}

fn audit_record(
    record: &TraceRecord,
    line: usize,
    state: &mut SourceState,
    reservoirs: &mut BTreeMap<(u32, u64), Vec<u64>>,
    pinned: &BTreeSet<u64>,
    violations: &mut Vec<Violation>,
) {
    // Seq continuity: every source numbers its records 0, 1, 2, … in
    // emission order, so a deleted, duplicated or reordered record
    // breaks the run at the next record the source emitted. A cut at a
    // source's start shows in the late-start sum `audit` checks; only a
    // cut at a source's very end goes unnoticed.
    let expected = state.next_seq;
    if record.seq != expected {
        let why = if record.seq > expected {
            format!("{} record(s) missing", record.seq - expected)
        } else {
            "a duplicated or reordered record".to_string()
        };
        let detail = format!(
            "source {} expects seq {expected} but reads {}: {why}",
            record.source, record.seq
        );
        violations.push(Violation {
            line,
            rule: "seq-continuity",
            detail,
        });
    }
    state.next_seq = expected.max(record.seq.saturating_add(1));
    // Shed quiescence: a shed frame was never decoded, so between its
    // ShedDecision and the next FrameRx on the same source nothing
    // frame-scoped (verify, buffer, reveal, eviction, span) may appear.
    let frame_scoped = matches!(
        record.event,
        TraceEvent::VerifyEnd { .. }
            | TraceEvent::BufferDecision { .. }
            | TraceEvent::KeyReveal { .. }
            | TraceEvent::SessionEvicted { .. }
            | TraceEvent::FrameSpan { .. }
    );
    if state.in_shed_tail && frame_scoped {
        violations.push(Violation {
            line,
            rule: "shed-quiescence",
            detail: format!(
                "{} after the shed at line {} with no new frame_rx — a shed frame must never \
                 reach the verifier",
                record.event.name(),
                state.shed_line
            ),
        });
    }
    match &record.event {
        TraceEvent::FrameRx { .. } => state.in_shed_tail = false,
        TraceEvent::ShedDecision { .. } => {
            state.in_shed_tail = true;
            state.shed_line = line;
        }
        TraceEvent::VerifyEnd {
            interval, outcome, ..
        } => state.last_verdict = Some((outcome, *interval)),
        TraceEvent::FrameSpan {
            interval, outcome, ..
        } => match state.last_verdict {
            Some((verdict, verdict_interval))
                if verdict == *outcome && verdict_interval == *interval => {}
            Some((verdict, verdict_interval)) => violations.push(Violation {
                line,
                rule: "span-agreement",
                detail: format!(
                    "frame_span says ({outcome}, interval {interval}) but the frame's verify_end \
                     said ({verdict}, interval {verdict_interval})"
                ),
            }),
            // A shed ring's first span may close a frame whose verdict
            // was shed.
            None if state.ring_shed => {}
            None => violations.push(Violation {
                line,
                rule: "span-agreement",
                detail: "frame_span with no preceding verify_end on this source".to_string(),
            }),
        },
        TraceEvent::BufferDecision {
            interval,
            kept,
            k,
            m,
        } => {
            let mut broken = |detail| {
                violations.push(Violation {
                    line,
                    rule: "reservoir-bound",
                    detail,
                });
            };
            // Algorithm 1: the first m offers are always stored; later
            // offers replace uniformly.
            if k <= m && !kept {
                broken(format!(
                    "offer k={k} <= m={m} was rejected — the first m offers always keep"
                ));
            }
            if *k == 0 {
                broken("offer counter k=0 — k is 1-indexed".to_string());
                return;
            }
            // The paper's offer counter runs 1, 2, 3, … per session, so
            // per (source, interval) the offers decompose into streams:
            // k = 1 opens one, k > 1 extends the stream last at k − 1.
            // Fleet shards interleave several senders' sessions on one
            // source, so this is a multiset, not a scalar. On a shed
            // ring a stream's first offers may be gone, so there an
            // offer that extends nothing opens a stream.
            let streams = reservoirs.entry((record.source, *interval)).or_default();
            match streams.iter_mut().find(|last| **last == k - 1) {
                Some(last) => *last = *k,
                None if *k == 1 || state.ring_shed => streams.push(*k),
                None => broken(format!(
                    "offer k={k} (interval {interval}) extends no session stream at k={}",
                    k - 1
                )),
            }
        }
        TraceEvent::PostureChange { epoch, .. } => {
            if state.last_posture_epoch.is_some_and(|last| *epoch <= last) {
                violations.push(Violation {
                    line,
                    rule: "epoch-monotone",
                    detail: format!(
                        "posture_change epoch {epoch} does not advance past {}",
                        state.last_posture_epoch.unwrap_or(0)
                    ),
                });
            }
            state.last_posture_epoch = Some(*epoch);
        }
        TraceEvent::ControlEstimate { epoch, .. } => {
            if state.last_estimate_epoch.is_some_and(|last| *epoch < last) {
                violations.push(Violation {
                    line,
                    rule: "epoch-monotone",
                    detail: format!(
                        "control_estimate epoch {epoch} went backwards from {}",
                        state.last_estimate_epoch.unwrap_or(0)
                    ),
                });
            }
            state.last_estimate_epoch = Some(*epoch);
        }
        TraceEvent::SessionEvicted { sender, .. } => {
            if pinned.contains(sender) {
                violations.push(Violation {
                    line,
                    rule: "pin-respected",
                    detail: format!("pinned sender {sender} was evicted"),
                });
            }
        }
        TraceEvent::KeyReveal { .. }
        | TraceEvent::ShardStall { .. }
        | TraceEvent::FaultInjected { .. } => {}
    }
}

/// The per-stage sample pools a report aggregates, in
/// [`SpanStage::ALL`] order.
fn stage_samples(trace: &ParsedTrace) -> [Samples; SpanStage::COUNT] {
    let mut stages = SpanStage::ALL.map(|_| Samples::new());
    for record in &trace.records {
        if let TraceEvent::FrameSpan { stages: spans, .. } = &record.event {
            for (samples, ns) in stages.iter_mut().zip(spans) {
                samples.record(u64::from(*ns));
            }
        }
    }
    stages
}

/// Per-interval forged-share trajectory: rejected reservoir offers per
/// thousand decisions. A rejected offer (`kept == false`) means the
/// interval's pool was already past `m` offers — under flood, forged
/// announces drive `k` far beyond `m`, so the rejection rate tracks the
/// attacker's bandwidth share.
#[must_use]
pub fn forged_share_trajectory(trace: &ParsedTrace) -> Vec<(u64, u64)> {
    let mut per_interval: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for record in &trace.records {
        if let TraceEvent::BufferDecision { interval, kept, .. } = &record.event {
            let (total, rejected) = per_interval.entry(*interval).or_insert((0, 0));
            *total += 1;
            *rejected += u64::from(!kept);
        }
    }
    per_interval
        .into_iter()
        .map(|(interval, (total, rejected))| (interval, rejected * 1000 / total.max(1)))
        .collect()
}

/// Flood-onset estimate: the first interval opening a run of at least
/// three consecutive trajectory points with a rejection rate of 250
/// permille or more. `None` when the trace never sustains that.
#[must_use]
pub fn attack_onset(trajectory: &[(u64, u64)]) -> Option<u64> {
    let mut run_start = None;
    let mut run_len = 0usize;
    for &(interval, permille) in trajectory {
        if permille >= 250 {
            if run_len == 0 {
                run_start = Some(interval);
            }
            run_len += 1;
            if run_len >= 3 {
                return run_start;
            }
        } else {
            run_len = 0;
            run_start = None;
        }
    }
    None
}

/// Renders the forensic report: stage-latency breakdown, event census,
/// forged-share trajectory and the attack-onset estimate. Byte-stable —
/// a pure function of the records, with no wall-clock or path content.
#[must_use]
pub fn render_report(trace: &ParsedTrace) -> String {
    let mut out = String::new();
    out.push_str("daptrace report\n===============\n");
    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    for record in &trace.records {
        *census.entry(record.event.name()).or_insert(0) += 1;
    }
    let _ = writeln!(out, "records: {}", trace.records.len());
    for (name, count) in &census {
        let _ = writeln!(out, "  {name}: {count}");
    }
    out.push_str("\nstage latency (ns)\n");
    out.push_str("stage        count        p50        p95        p99        max\n");
    for (stage, mut samples) in SpanStage::ALL.into_iter().zip(stage_samples(trace)) {
        let label = stage.label();
        let q = |samples: &mut Samples, q: f64| samples.quantile(q).unwrap_or(0);
        let count = samples.len();
        let (p50, p95, p99, max) = (
            q(&mut samples, 0.50),
            q(&mut samples, 0.95),
            q(&mut samples, 0.99),
            samples.max().unwrap_or(0),
        );
        let _ = writeln!(
            out,
            "{label:<12} {count:>5} {p50:>10} {p95:>10} {p99:>10} {max:>10}"
        );
    }
    out.push_str("\nforged-share trajectory (rejected offers, permille per interval)\n");
    let trajectory = forged_share_trajectory(trace);
    if trajectory.is_empty() {
        out.push_str("  (no buffer decisions in trace)\n");
    }
    for (interval, permille) in &trajectory {
        let _ = writeln!(out, "  interval {interval:>6}: {permille:>4}");
    }
    match attack_onset(&trajectory) {
        Some(interval) => {
            let _ = writeln!(
                out,
                "\nattack onset: interval {interval} (first of >=3 consecutive intervals at \
                 >=250 permille rejected)"
            );
        }
        None => out.push_str("\nattack onset: none detected\n"),
    }
    out
}

/// Renders one record as a timeline line: `source seq at event`, then
/// the event's fields as `name=value`, in record order.
#[must_use]
pub fn timeline_line(record: &TraceRecord) -> String {
    let mut line = format!(
        "src={:<3} seq={:<6} at={:<8} {:<16}",
        record.source,
        record.seq,
        record.at,
        record.event.name()
    );
    for (name, value) in record.event.fields() {
        let _ = write!(line, " {name}={value}");
    }
    line
}

/// The sender id a record names, when it names one (shed attribution
/// and evictions carry claimed / resident sender ids).
#[must_use]
pub fn record_sender(record: &TraceRecord) -> Option<u64> {
    match &record.event {
        TraceEvent::ShedDecision { sender, .. } | TraceEvent::SessionEvicted { sender, .. } => {
            Some(*sender)
        }
        _ => None,
    }
}

/// Renders the timeline: records in file order, optionally filtered to
/// the records naming `sender`, capped at `limit` lines (0 = no cap).
#[must_use]
pub fn render_timeline(trace: &ParsedTrace, sender: Option<u64>, limit: usize) -> String {
    let mut out = String::new();
    let mut lines = 0usize;
    for record in &trace.records {
        if sender.is_some() && record_sender(record) != sender {
            continue;
        }
        out.push_str(&timeline_line(record));
        out.push('\n');
        lines += 1;
        if limit > 0 && lines >= limit {
            let _ = writeln!(out, "... (truncated at {limit} lines)");
            break;
        }
    }
    if lines == 0 {
        out.push_str("(no matching records)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_obs::{parse_trace, TraceHeader};

    fn rec(source: u32, seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            source,
            seq,
            at: seq,
            event,
        }
    }

    fn parsed(records: Vec<TraceRecord>) -> ParsedTrace {
        ParsedTrace {
            header: None,
            records,
        }
    }

    fn clean_frame(source: u32, seq0: u64, interval: u64, k: u64) -> Vec<TraceRecord> {
        vec![
            rec(source, seq0, TraceEvent::FrameRx { bytes: 32 }),
            rec(
                source,
                seq0 + 1,
                TraceEvent::VerifyEnd {
                    interval,
                    outcome: "stored",
                    elapsed_ns: 0,
                },
            ),
            rec(
                source,
                seq0 + 2,
                TraceEvent::BufferDecision {
                    interval,
                    kept: true,
                    k,
                    m: 4,
                },
            ),
        ]
    }

    #[test]
    fn clean_stream_audits_clean() {
        let mut records = clean_frame(0, 0, 7, 1);
        records.extend(clean_frame(0, 3, 7, 2));
        records.push(rec(
            0,
            6,
            TraceEvent::ShedDecision {
                sender: 9,
                class: "low",
                interval: 7,
            },
        ));
        records.extend(clean_frame(0, 7, 8, 1));
        // A second source numbers its own records from 0.
        records.extend(clean_frame(1, 0, 9, 1));
        let violations = audit(&parsed(records), &BTreeSet::new());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn deleted_duplicated_and_reordered_records_are_flagged() {
        // An announce then a reveal, then one single-record edit each.
        let mut clean = clean_frame(0, 0, 7, 1);
        clean.extend([
            rec(0, 3, TraceEvent::FrameRx { bytes: 32 }),
            rec(
                0,
                4,
                TraceEvent::VerifyEnd {
                    interval: 7,
                    outcome: "auth",
                    elapsed_ns: 0,
                },
            ),
            rec(0, 5, TraceEvent::KeyReveal { interval: 7 }),
            rec(0, 6, TraceEvent::FrameRx { bytes: 32 }),
        ]);
        let flagged = |records: Vec<TraceRecord>| -> Vec<(usize, &'static str)> {
            audit(&parsed(records), &BTreeSet::new())
                .iter()
                .map(|v| (v.line, v.rule))
                .collect()
        };
        assert_eq!(flagged(clean.clone()), vec![]);
        // Deleted: the reveal's key_reveal; the gap shows at the next
        // record, line 6.
        let mut deleted = clean.clone();
        deleted.remove(5);
        assert_eq!(flagged(deleted), vec![(6, "seq-continuity")]);
        // Deleted at the front: the source must start at seq 0.
        assert_eq!(flagged(clean[1..].to_vec()), vec![(1, "seq-continuity")]);
        // Duplicated: the announce's verify_end appears twice.
        let mut duplicated = clean.clone();
        duplicated.insert(2, clean[1].clone());
        assert_eq!(flagged(duplicated), vec![(3, "seq-continuity")]);
        // Reordered: the reveal's verify_end and key_reveal swap.
        let mut reordered = clean.clone();
        reordered.swap(4, 5);
        assert_eq!(
            flagged(reordered),
            vec![(5, "seq-continuity"), (6, "seq-continuity")]
        );
    }

    #[test]
    fn authentication_after_a_shed_is_flagged() {
        let mut records = clean_frame(0, 0, 7, 1);
        records.push(rec(
            0,
            3,
            TraceEvent::ShedDecision {
                sender: 9,
                class: "low",
                interval: 7,
            },
        ));
        // No FrameRx in between: this KeyReveal claims a shed frame
        // reached the verifier.
        records.push(rec(0, 4, TraceEvent::KeyReveal { interval: 7 }));
        let violations = audit(&parsed(records), &BTreeSet::new());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "shed-quiescence");
    }

    #[test]
    fn reservoir_rejecting_an_early_offer_is_flagged() {
        let records = vec![rec(
            0,
            0,
            TraceEvent::BufferDecision {
                interval: 2,
                kept: false,
                k: 3,
                m: 4,
            },
        )];
        let violations = audit(&parsed(records), &BTreeSet::new());
        assert!(violations.iter().any(|v| v.rule == "reservoir-bound"));
    }

    #[test]
    fn interleaved_session_streams_reconstruct() {
        // Two senders' sessions on one shard, same interval: ks
        // interleave 1,1,2,2 and the greedy reconstruction must accept.
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::BufferDecision {
                    interval: 2,
                    kept: true,
                    k: 1,
                    m: 4,
                },
            ),
            rec(
                0,
                1,
                TraceEvent::BufferDecision {
                    interval: 2,
                    kept: true,
                    k: 1,
                    m: 4,
                },
            ),
            rec(
                0,
                2,
                TraceEvent::BufferDecision {
                    interval: 2,
                    kept: true,
                    k: 2,
                    m: 4,
                },
            ),
            rec(
                0,
                3,
                TraceEvent::BufferDecision {
                    interval: 2,
                    kept: true,
                    k: 2,
                    m: 4,
                },
            ),
        ];
        assert!(audit(&parsed(records), &BTreeSet::new()).is_empty());
        // A k that extends nothing is a gap.
        let gap = vec![rec(
            0,
            0,
            TraceEvent::BufferDecision {
                interval: 2,
                kept: true,
                k: 5,
                m: 4,
            },
        )];
        assert_eq!(
            audit(&parsed(gap), &BTreeSet::new())[0].rule,
            "reservoir-bound"
        );
    }

    #[test]
    fn epoch_regressions_and_pin_evictions_are_flagged() {
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::PostureChange {
                    epoch: 2,
                    from_m: 4,
                    to_m: 8,
                    p_permille: 500,
                    give_up: false,
                },
            ),
            rec(
                0,
                1,
                TraceEvent::PostureChange {
                    epoch: 2,
                    from_m: 8,
                    to_m: 9,
                    p_permille: 600,
                    give_up: false,
                },
            ),
            rec(
                0,
                2,
                TraceEvent::SessionEvicted {
                    sender: 1,
                    shard: 0,
                    occupancy: 3,
                },
            ),
        ];
        let pins: BTreeSet<u64> = [1].into_iter().collect();
        let violations = audit(&parsed(records), &pins);
        let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["epoch-monotone", "pin-respected"]);
    }

    #[test]
    fn onset_needs_three_consecutive_hot_intervals() {
        assert_eq!(attack_onset(&[(1, 900), (2, 100), (3, 900)]), None);
        assert_eq!(
            attack_onset(&[(1, 100), (2, 300), (3, 400), (4, 900)]),
            Some(2)
        );
        assert_eq!(attack_onset(&[]), None);
    }

    #[test]
    fn report_and_timeline_are_byte_stable() {
        let mut records = clean_frame(0, 0, 7, 1);
        records.push(rec(
            0,
            3,
            TraceEvent::FrameSpan {
                span: 256,
                interval: 7,
                outcome: "stored",
                stages: [10, 20, 5, 0, 40, 3, 0],
            },
        ));
        let trace = parsed(records);
        assert_eq!(render_report(&trace), render_report(&trace.clone()));
        assert!(render_report(&trace).contains("verify"));
        assert_eq!(
            render_timeline(&trace, None, 0),
            render_timeline(&trace, None, 0)
        );
        assert!(render_timeline(&trace, Some(42), 0).contains("no matching records"));
    }

    #[test]
    fn a_shed_ring_may_open_mid_frame_and_mid_stream() {
        // Source 0's ring shed its first 10 records: it opens with the
        // span of a frame whose verdict was shed, then an offer at k = 5
        // whose stream began before the cut.
        let records = vec![
            rec(
                0,
                10,
                TraceEvent::FrameSpan {
                    span: 256,
                    interval: 7,
                    outcome: "stored",
                    stages: [0; SpanStage::COUNT],
                },
            ),
            rec(0, 11, TraceEvent::FrameRx { bytes: 32 }),
            rec(
                0,
                12,
                TraceEvent::VerifyEnd {
                    interval: 7,
                    outcome: "stored",
                    elapsed_ns: 0,
                },
            ),
            rec(
                0,
                13,
                TraceEvent::BufferDecision {
                    interval: 7,
                    kept: false,
                    k: 5,
                    m: 4,
                },
            ),
        ];
        let declaring = |shed| ParsedTrace {
            header: Some(TraceHeader { clock_ns: 0, shed }),
            records: records.clone(),
        };
        let flagged = |trace: &ParsedTrace| -> Vec<(usize, &'static str)> {
            audit(trace, &BTreeSet::new())
                .iter()
                .map(|v| (v.line, v.rule))
                .collect()
        };
        assert_eq!(flagged(&declaring(10)), vec![]);
        // An undeclared or misdeclared cut is one finding, at line 1.
        assert_eq!(flagged(&declaring(9)), vec![(1, "seq-continuity")]);
        assert_eq!(
            flagged(&parsed(records.clone())),
            vec![(1, "seq-continuity")]
        );
        // A ring that shed nothing opens no stream mid-way.
        let mut unshed = records;
        for (seq, record) in unshed.iter_mut().enumerate() {
            record.seq = seq as u64;
        }
        assert_eq!(
            flagged(&parsed(unshed)),
            vec![(1, "span-agreement"), (4, "reservoir-bound")]
        );
    }

    #[test]
    fn timeline_prints_each_event_under_its_jsonl_names() {
        // One record of each kind: its JSONL fields after `ev`, and the
        // timeline detail that must print them.
        let kinds = [
            ("frame_rx", "\"bytes\":9", "bytes=9"),
            (
                "verify_end",
                "\"interval\":2,\"outcome\":\"auth\",\"elapsed_ns\":5",
                "interval=2 outcome=auth elapsed_ns=5",
            ),
            (
                "buffer_decision",
                "\"interval\":2,\"kept\":true,\"k\":7,\"m\":4",
                "interval=2 kept=true k=7 m=4",
            ),
            ("key_reveal", "\"interval\":2", "interval=2"),
            ("shard_stall", "\"shard\":1,\"depth\":64", "shard=1 depth=64"),
            ("fault_injected", "\"kind\":\"wire.loss\"", "kind=wire.loss"),
            (
                "session_evicted",
                "\"sender\":17,\"shard\":1,\"occupancy\":63",
                "sender=17 shard=1 occupancy=63",
            ),
            (
                "shed_decision",
                "\"sender\":17,\"class\":\"low\",\"interval\":2",
                "sender=17 class=low interval=2",
            ),
            (
                "posture_change",
                "\"epoch\":1,\"from_m\":4,\"to_m\":13,\"p_permille\":800,\"give_up\":false",
                "epoch=1 from_m=4 to_m=13 p_permille=800 give_up=false",
            ),
            (
                "frame_span",
                "\"span\":3073,\"interval\":2,\"outcome\":\"auth\",\"ingress_ns\":1,\"queue_ns\":2,\
                 \"decode_ns\":3,\"prefetch_ns\":4,\"verify_ns\":0,\"buffer_ns\":5,\"reveal_ns\":6",
                "span=3073 interval=2 outcome=auth ingress_ns=1 queue_ns=2 decode_ns=3 \
                 prefetch_ns=4 verify_ns=0 buffer_ns=5 reveal_ns=6",
            ),
            (
                "control_estimate",
                "\"epoch\":1,\"sample_ppm\":900000,\"p_hat_ppm\":512345",
                "epoch=1 sample_ppm=900000 p_hat_ppm=512345",
            ),
        ];
        for (name, fields, detail) in kinds {
            let line = format!("{{\"src\":2,\"seq\":5,\"at\":5,\"ev\":\"{name}\",{fields}}}");
            let trace = parse_trace(&line).expect("a canonical line");
            assert_eq!(
                timeline_line(&trace.records[0]),
                format!("src=2   seq=5      at=5        {name:<16} {detail}")
            );
        }
    }

    #[test]
    fn line_numbers_offset_past_the_header() {
        let text = format!(
            "{}\n{}\n{}\n",
            dap_obs::header_line(0, 0),
            rec(0, 0, TraceEvent::KeyReveal { interval: 1 }).to_json(),
            rec(
                0,
                2,
                TraceEvent::VerifyEnd {
                    interval: 1,
                    outcome: "auth",
                    elapsed_ns: 0
                }
            )
            .to_json(),
        );
        let trace = parse_trace(&text).expect("parses");
        let violations = audit(&trace, &BTreeSet::new());
        // The header is line 1, so the record after the gap is line 3.
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].line, 3);
        assert_eq!(violations[0].rule, "seq-continuity");
    }
}
