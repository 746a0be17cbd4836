//! Named event counters shared by the simulator and protocol nodes,
//! and the [`Registry`] that aggregates them with distributions.
//!
//! Protocols increment counters like `"auth.strong.ok"` or
//! `"buffer.evicted"`; experiments read them back after a run. Keys are
//! `&'static str` so counting is allocation-free on the hot path — and
//! the well-known ones live as constants in [`keys`], so a typo'd
//! counter name is a compile error instead of a silently empty metric.
//!
//! [`Metrics`] stays the plain counter bag the sim protocols use;
//! [`Registry`] extends it with [`Histogram`]s and [`Gauge`]s (from
//! `dap-obs`) behind one sorted, byte-stable snapshot — the shape the
//! sharded pool merges per shard and `dapd` exposes over
//! `--telemetry`.

use std::collections::BTreeMap;

use dap_obs::{Gauge, Histogram};

/// A set of monotonically increasing named counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
}

impl Metrics {
    /// An empty metric set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1 to `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of `name` (0 if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Ratio `get(num) / get(den)`, or `None` when the denominator is 0.
    #[must_use]
    pub fn ratio(&self, num: &str, den: &str) -> Option<f64> {
        let d = self.get(den);
        if d == 0 {
            None
        } else {
            Some(self.get(num) as f64 / d as f64)
        }
    }

    /// Iterates counters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another metric set into this one (summing counters).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// A deterministic text snapshot: one `name value` line per counter
    /// in key order (`"(no metrics)"` when empty). Two metric sets are
    /// equal iff their snapshots are byte-identical, so dumping this is
    /// both the human-readable report (`dapd`) and the determinism
    /// fingerprint the chaos tests and the ci.sh soak gate diff.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.counters.is_empty() {
            return f.write_str("(no metrics)");
        }
        // Pad to the longest key actually present (a hardcoded width
        // used to let >40-char keys run into their values). Keys are
        // ASCII, so byte length is display width.
        let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
        for (k, v) in &self.counters {
            writeln!(f, "{k:<width$} {v}")?;
        }
        Ok(())
    }
}

/// Counters plus distributions behind one snapshot: the observability
/// plane's aggregation unit. Each pool shard owns one; shutdown merges
/// them (summing counters, folding histogram buckets, combining
/// gauges), and [`Registry::render`] produces the sorted byte-stable
/// text the ci.sh telemetry gate diffs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: Metrics,
    histograms: BTreeMap<&'static str, Histogram>,
    gauges: BTreeMap<&'static str, Gauge>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter bag.
    #[must_use]
    pub fn counters(&self) -> &Metrics {
        &self.counters
    }

    /// Consumes the registry, keeping only the counters (the legacy
    /// [`Metrics`]-shaped reports use this).
    #[must_use]
    pub fn into_counters(self) -> Metrics {
        self.counters
    }

    /// Adds 1 to counter `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.counters.incr(name);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.counters.add(name, n);
    }

    /// The histogram `name`, created empty on first touch.
    pub fn histogram(&mut self, name: &'static str) -> &mut Histogram {
        self.histograms.entry(name).or_default()
    }

    /// Records one sample into histogram `name`.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.histogram(name).record(v);
    }

    /// The histogram `name`, if anything was ever recorded under it.
    #[must_use]
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The gauge `name`, created unset on first touch.
    pub fn gauge(&mut self, name: &'static str) -> &mut Gauge {
        self.gauges.entry(name).or_default()
    }

    /// The gauge `name`, if it was ever touched.
    #[must_use]
    pub fn get_gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Whether nothing has been recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().next().is_none()
            && self.histograms.is_empty()
            && self.gauges.is_empty()
    }

    /// Merges another registry into this one: counters sum, histogram
    /// buckets fold, gauges combine ([`Gauge::merge`]). Merging is
    /// order-independent, so a shard merge fingerprints identically no
    /// matter which worker finished first.
    pub fn merge(&mut self, other: &Registry) {
        self.counters.merge(&other.counters);
        for (name, hist) in &other.histograms {
            self.histograms.entry(name).or_default().merge(hist);
        }
        for (name, gauge) in &other.gauges {
            self.gauges.entry(name).or_default().merge(gauge);
        }
    }

    /// Merges a plain counter bag into the registry's counters.
    pub fn merge_metrics(&mut self, metrics: &Metrics) {
        self.counters.merge(metrics);
    }

    /// One sorted snapshot of everything: counters as `name value`,
    /// histograms and gauges as `name` plus their own byte-stable
    /// one-line renders, padded to the longest name, every line ending
    /// in a newline (`"(no metrics)\n"` when empty). Two registries are
    /// equal iff their snapshots are byte-identical.
    #[must_use]
    pub fn render(&self) -> String {
        let mut lines: BTreeMap<&'static str, String> = BTreeMap::new();
        for (name, value) in self.counters.iter() {
            lines.insert(name, value.to_string());
        }
        for (name, hist) in &self.histograms {
            lines.insert(name, hist.render());
        }
        for (name, gauge) in &self.gauges {
            lines.insert(name, gauge.render());
        }
        if lines.is_empty() {
            return "(no metrics)\n".to_string();
        }
        let width = lines.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, text) in &lines {
            out.push_str(&format!("{name:<width$} {text}\n"));
        }
        out
    }

    /// The snapshot in Prometheus text exposition format (0.0.4):
    /// counters and gauges as their own metric families, histograms as
    /// summaries with `quantile` labels plus `_sum`/`_count`. Dots in
    /// key names become underscores.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        fn prom(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, value) in self.counters.iter() {
            let n = prom(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, gauge) in &self.gauges {
            let n = prom(name);
            out.push_str(&format!("# TYPE {n} gauge\n"));
            out.push_str(&format!("{n} {}\n", gauge.last().unwrap_or(0)));
        }
        for (name, hist) in &self.histograms {
            let n = prom(name);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (label, p) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                if let Some(q) = hist.quantile(p) {
                    out.push_str(&format!("{n}{{quantile=\"{label}\"}} {q}\n"));
                }
            }
            out.push_str(&format!("{n}_sum {}\n", hist.sum()));
            out.push_str(&format!("{n}_count {}\n", hist.count()));
        }
        out
    }
}

impl<'a> IntoIterator for &'a Metrics {
    type Item = (&'static str, u64);
    type IntoIter = std::iter::Map<
        std::collections::btree_map::Iter<'a, &'static str, u64>,
        fn((&'a &'static str, &'a u64)) -> (&'static str, u64),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }
}

pub mod keys {
    //! The workspace's well-known metric keys as constants.
    //!
    //! Counting against a `&'static str` is allocation-free but invites
    //! typos that produce silently empty metrics; these constants make
    //! the key set a reviewed, deduplicated surface (see the
    //! `all_keys_are_unique` test) shared by `simnet`, `tesla` and
    //! `net`. Protocol-sim keys (`dap.*`, the `dap-core` adapter) stay
    //! literal where their crate cannot see this module without a
    //! cycle, but every key listed here is the canonical spelling.

    /// Frames broadcast into the simulated channel.
    pub const NET_FRAMES_BROADCAST: &str = "net.frames_broadcast";
    /// Frames unicast in the simulated channel.
    pub const NET_FRAMES_UNICAST: &str = "net.frames_unicast";
    /// Bits offered to the simulated channel.
    pub const NET_BITS_SENT: &str = "net.bits_sent";
    /// Frames the channel model dropped.
    pub const NET_FRAMES_LOST: &str = "net.frames_lost";
    /// Frames delivered to receivers.
    pub const NET_FRAMES_DELIVERED: &str = "net.frames_delivered";
    /// Bits delivered to receivers.
    pub const NET_BITS_DELIVERED: &str = "net.bits_delivered";

    /// Deliveries suppressed by a blackout window.
    pub const FAULT_BLACKOUT_DROPPED: &str = "fault.blackout_dropped";
    /// Frames corrupted by fault injection.
    pub const FAULT_CORRUPTED: &str = "fault.corrupted";
    /// Corrupted frames the corruptor chose to drop.
    pub const FAULT_CORRUPT_DROPPED: &str = "fault.corrupt_dropped";
    /// Frames duplicated by fault injection.
    pub const FAULT_DUPLICATED: &str = "fault.duplicated";
    /// Frames delayed by a reorder spike.
    pub const FAULT_REORDERED: &str = "fault.reordered";
    /// Sends silenced because the source node was crashed.
    pub const FAULT_CRASH_SILENCED: &str = "fault.crash_silenced";
    /// Deliveries dropped because the destination node was crashed.
    pub const FAULT_CRASH_DROPPED: &str = "fault.crash_dropped";
    /// Clock-drift shifts applied.
    pub const FAULT_DRIFT_SHIFTS: &str = "fault.drift_shifts";

    /// TESLA sender: data packets emitted.
    pub const TESLA_SENDER_PACKETS: &str = "tesla.sender.packets";
    /// TESLA sender: intervals skipped on an exhausted chain.
    pub const TESLA_SENDER_EXHAUSTED: &str = "tesla.sender.exhausted";
    /// TESLA receiver: packets authenticated.
    pub const TESLA_RX_AUTHENTICATED: &str = "tesla.rx.authenticated";
    /// TESLA receiver: packets whose MAC failed.
    pub const TESLA_RX_REJECTED_MAC: &str = "tesla.rx.rejected_mac";
    /// TESLA receiver: packets failing the safe-packet test.
    pub const TESLA_RX_UNSAFE: &str = "tesla.rx.unsafe";
    /// TESLA receiver: disclosed keys accepted.
    pub const TESLA_RX_KEY_ACCEPTED: &str = "tesla.rx.key_accepted";
    /// TESLA receiver: disclosed keys rejected.
    pub const TESLA_RX_KEY_REJECTED: &str = "tesla.rx.key_rejected";
    /// TESLA attacker: forged packets emitted.
    pub const TESLA_ATTACKER_FORGED: &str = "tesla.attacker.forged";

    /// μTESLA sender: data packets emitted.
    pub const MUTESLA_SENDER_DATA: &str = "mutesla.sender.data";
    /// μTESLA sender: key disclosures emitted.
    pub const MUTESLA_SENDER_DISCLOSURES: &str = "mutesla.sender.disclosures";
    /// μTESLA sender: intervals skipped on an exhausted chain.
    pub const MUTESLA_SENDER_EXHAUSTED: &str = "mutesla.sender.exhausted";
    /// μTESLA receiver: packets authenticated.
    pub const MUTESLA_RX_AUTHENTICATED: &str = "mutesla.rx.authenticated";
    /// μTESLA receiver: packets whose MAC failed.
    pub const MUTESLA_RX_REJECTED_MAC: &str = "mutesla.rx.rejected_mac";
    /// μTESLA receiver: packets failing the safe-packet test.
    pub const MUTESLA_RX_UNSAFE: &str = "mutesla.rx.unsafe";
    /// μTESLA receiver: disclosed keys accepted.
    pub const MUTESLA_RX_KEY_ACCEPTED: &str = "mutesla.rx.key_accepted";
    /// μTESLA receiver: disclosed keys rejected.
    pub const MUTESLA_RX_KEY_REJECTED: &str = "mutesla.rx.key_rejected";

    /// TESLA++ sender: MAC announcements emitted.
    pub const TESLAPP_SENDER_ANNOUNCES: &str = "teslapp.sender.announces";
    /// TESLA++ sender: reveals emitted.
    pub const TESLAPP_SENDER_REVEALS: &str = "teslapp.sender.reveals";
    /// TESLA++ sender: intervals skipped on an exhausted chain.
    pub const TESLAPP_SENDER_EXHAUSTED: &str = "teslapp.sender.exhausted";
    /// TESLA++ attacker: forged announcements emitted.
    pub const TESLAPP_ATTACKER_FORGED: &str = "teslapp.attacker.forged";
    /// TESLA++ receiver: reveals authenticated.
    pub const TESLAPP_RX_AUTHENTICATED: &str = "teslapp.rx.authenticated";
    /// TESLA++ receiver: disclosed keys rejected.
    pub const TESLAPP_RX_KEY_REJECTED: &str = "teslapp.rx.key_rejected";
    /// TESLA++ receiver: reveals with no matching announcement.
    pub const TESLAPP_RX_NO_MATCH: &str = "teslapp.rx.no_match";
    /// TESLA++ receiver: announcements failing the safe-packet test.
    pub const TESLAPP_RX_UNSAFE: &str = "teslapp.rx.unsafe";
    /// TESLA++ receiver: announcements buffered awaiting a key.
    pub const TESLAPP_RX_STORED: &str = "teslapp.rx.stored";

    /// Multi-level μTESLA sender: CDM packets emitted.
    pub const ML_SENDER_CDM: &str = "ml.sender.cdm";
    /// Multi-level μTESLA sender: data packets emitted.
    pub const ML_SENDER_DATA: &str = "ml.sender.data";
    /// Multi-level μTESLA sender: low-level disclosures emitted.
    pub const ML_SENDER_DISCLOSURE: &str = "ml.sender.disclosure";
    /// Multi-level μTESLA sender: intervals skipped on exhaustion.
    pub const ML_SENDER_EXHAUSTED: &str = "ml.sender.exhausted";
    /// Multi-level μTESLA attacker: forged CDMs emitted.
    pub const ML_ATTACKER_FORGED_CDM: &str = "ml.attacker.forged_cdm";
    /// Multi-level μTESLA receiver: CDMs failing the safe-packet test.
    pub const ML_RX_CDM_UNSAFE: &str = "ml.rx.cdm_unsafe";
    /// Multi-level μTESLA receiver: high-level keys accepted.
    pub const ML_RX_HIGH_KEY_ACCEPTED: &str = "ml.rx.high_key_accepted";
    /// Multi-level μTESLA receiver: high-level keys rejected.
    pub const ML_RX_HIGH_KEY_REJECTED: &str = "ml.rx.high_key_rejected";
    /// Multi-level μTESLA receiver: CDMs authenticated.
    pub const ML_RX_CDM_AUTHENTICATED: &str = "ml.rx.cdm_authenticated";
    /// Multi-level μTESLA receiver: low-level commitments installed.
    pub const ML_RX_COMMITMENT_INSTALLED: &str = "ml.rx.commitment_installed";
    /// Multi-level μTESLA receiver: low-level packets authenticated.
    pub const ML_RX_LOW_AUTHENTICATED: &str = "ml.rx.low_authenticated";
    /// Multi-level μTESLA receiver: low-level packets rejected.
    pub const ML_RX_LOW_REJECTED: &str = "ml.rx.low_rejected";
    /// Multi-level μTESLA receiver: low-level packets failing the
    /// safe-packet test.
    pub const ML_RX_LOW_UNSAFE: &str = "ml.rx.low_unsafe";

    /// Wire pool: announces stored into a reservoir.
    pub const NET_ANNOUNCE_STORED: &str = "net.announce.stored";
    /// Wire pool: announces sampled out by the reservoir.
    pub const NET_ANNOUNCE_SAMPLED_OUT: &str = "net.announce.sampled_out";
    /// Wire pool: announces failing the safe-packet test.
    pub const NET_ANNOUNCE_UNSAFE: &str = "net.announce.unsafe";
    /// Wire pool: reveals received.
    pub const NET_REVEAL_TOTAL: &str = "net.reveal.total";
    /// Wire pool: reveals fully authenticated.
    pub const NET_REVEAL_AUTH: &str = "net.reveal.auth";
    /// Wire pool: reveals whose key failed weak authentication.
    pub const NET_REVEAL_WEAK_REJECTED: &str = "net.reveal.weak_rejected";
    /// Wire pool: reveals whose μMAC check failed (evicted evidence).
    pub const NET_REVEAL_STRONG_REJECTED: &str = "net.reveal.strong_rejected";
    /// Wire pool: reveals with no surviving candidate μMAC.
    pub const NET_REVEAL_NO_CANDIDATE: &str = "net.reveal.no_candidate";
    /// Wire pool: datagrams accepted into shard queues.
    pub const NET_INGRESS_FRAMES: &str = "net.ingress.frames";
    /// Wire pool: bytes accepted into shard queues.
    pub const NET_INGRESS_BYTES: &str = "net.ingress.bytes";
    /// Wire pool: datagrams shed before a shard queue (all reasons).
    pub const NET_INGRESS_DROPPED: &str = "net.ingress.dropped";
    /// Wire pool drop reason: shard queue full (DropCount posture).
    pub const NET_DROP_QUEUE_FULL: &str = "net.drop.queue_full";
    /// Wire pool drop reason: pool already shutting down.
    pub const NET_DROP_CLOSED: &str = "net.drop.closed";
    /// Priority drain: frames shed at a window flush (all classes).
    pub const NET_SHED_TOTAL: &str = "net.shed.total";
    /// Priority drain: shed frames claiming a pinned sender.
    pub const NET_SHED_PINNED: &str = "net.shed.pinned";
    /// Priority drain: shed frames claiming a high-priority sender.
    pub const NET_SHED_HIGH: &str = "net.shed.high";
    /// Priority drain: shed frames claiming a low-priority sender.
    pub const NET_SHED_LOW: &str = "net.shed.low";
    /// Wire pool: datagrams with undecodable bytes.
    pub const NET_DECODE_ERRORS: &str = "net.decode.errors";
    /// Wire pool: bytes skipped while resynchronising.
    pub const NET_DECODE_RESYNC_BYTES: &str = "net.decode.resync_bytes";
    /// Wire pool: items a shard found queued, one sample per take
    /// (histogram, items; recorded only under wall-clock time — see
    /// DESIGN §9).
    pub const NET_QUEUE_OCCUPANCY: &str = "net.queue.occupancy";
    /// Session table: senders admitted (first frame seen).
    pub const NET_SESSION_ADMITTED: &str = "net.session.admitted";
    /// Session table: sessions evicted by the LRU/budget policy.
    pub const NET_SESSION_EVICTED: &str = "net.session.evicted";
    /// Session table: previously evicted senders re-admitted.
    pub const NET_SESSION_READMITTED: &str = "net.session.readmitted";
    /// Session table: frames from senders absent from the directory.
    pub const NET_SESSION_UNKNOWN: &str = "net.session.unknown";
    /// Session table: resident-session occupancy gauge (per shard,
    /// merged to a cross-shard min/max envelope).
    pub const NET_SESSION_OCCUPANCY: &str = "net.session.occupancy";
    /// Session table: resident-session memory gauge (bits).
    pub const NET_SESSION_MEMORY_BITS: &str = "net.session.memory_bits";
    /// Fleet: per-sender authenticated-reveal rate envelope (permille).
    pub const NET_FLEET_AUTH_RATE_PERMILLE: &str = "net.fleet.auth_rate_permille";
    /// Fleet: auth-rate envelope restricted to pinned senders.
    pub const NET_FLEET_PINNED_AUTH_PERMILLE: &str = "net.fleet.pinned_auth_permille";
    /// Fleet: auth-rate envelope restricted to unpinned senders.
    pub const NET_FLEET_UNPINNED_AUTH_PERMILLE: &str = "net.fleet.unpinned_auth_permille";
    /// Control plane: forged-fraction estimate samples folded into p̂.
    pub const CONTROL_SAMPLES: &str = "control.samples";
    /// Control plane: final smoothed forged-fraction estimate (permille).
    pub const CONTROL_P_PERMILLE: &str = "control.p_permille";
    /// Control plane: online game solves run (hysteresis-gated).
    pub const CONTROL_SOLVES: &str = "control.solves";
    /// Control plane: posture directives issued (m or give-up changed).
    pub const CONTROL_DIRECTIVES: &str = "control.directives";
    /// Control plane: final reservoir count the directives converged on.
    pub const CONTROL_M: &str = "control.m";
    /// Control plane: 1 when the §V give-up switch ended the run on.
    pub const CONTROL_GIVE_UP: &str = "control.give_up";
    /// Control plane: live smoothed forged-fraction estimate gauge (ppm).
    pub const CONTROL_GAUGE_P_HAT_PPM: &str = "control.gauge.p_hat_ppm";
    /// Control plane: live posture-epoch gauge.
    pub const CONTROL_GAUGE_EPOCH: &str = "control.gauge.epoch";
    /// Control plane: live reservoir-count gauge (buffers per interval).
    pub const CONTROL_GAUGE_M: &str = "control.gauge.m";
    /// Flight recorder: reader-side ingress routing+copy (histogram,
    /// ns; sampled datagrams).
    pub const NET_STAGE_INGRESS_NS: &str = "net.stage.ingress_ns";
    /// Flight recorder: enqueue → worker-pop wait (histogram, ns;
    /// sampled datagrams).
    pub const NET_STAGE_QUEUE_WAIT_NS: &str = "net.stage.queue_wait_ns";
    /// Wire pool: datagram decode (histogram, ns; every datagram).
    pub const NET_STAGE_DECODE_NS: &str = "net.stage.decode_ns";
    /// Flight recorder: the prefetch stage (histogram, ns; sampled
    /// datagrams, every sample 0: no step runs there).
    pub const NET_STAGE_PREFETCH_NS: &str = "net.stage.prefetch_ns";
    /// Wire pool: announce-path verify, reservoir decision included
    /// (histogram, ns; every frame, 0 for a reveal).
    pub const NET_STAGE_VERIFY_NS: &str = "net.stage.verify_ns";
    /// Flight recorder: emitting the verdict's trace records, on frames
    /// that reached a reservoir (histogram, ns; sampled frames, 0 for
    /// the rest).
    pub const NET_STAGE_BUFFER_NS: &str = "net.stage.buffer_ns";
    /// Wire pool: reveal-authenticate path (histogram, ns; every frame,
    /// 0 for an announce).
    pub const NET_STAGE_REVEAL_AUTH_NS: &str = "net.stage.reveal_auth_ns";
    /// Wire medium: frames sent.
    pub const NET_WIRE_SENT: &str = "net.wire.sent";
    /// Wire medium: frames lost.
    pub const NET_WIRE_LOST: &str = "net.wire.lost";
    /// Wire medium: frames corrupted.
    pub const NET_WIRE_CORRUPTED: &str = "net.wire.corrupted";

    /// Every key above, for registry checks (`all_keys_are_unique`).
    pub const ALL: &[&str] = &[
        NET_FRAMES_BROADCAST,
        NET_FRAMES_UNICAST,
        NET_BITS_SENT,
        NET_FRAMES_LOST,
        NET_FRAMES_DELIVERED,
        NET_BITS_DELIVERED,
        FAULT_BLACKOUT_DROPPED,
        FAULT_CORRUPTED,
        FAULT_CORRUPT_DROPPED,
        FAULT_DUPLICATED,
        FAULT_REORDERED,
        FAULT_CRASH_SILENCED,
        FAULT_CRASH_DROPPED,
        FAULT_DRIFT_SHIFTS,
        TESLA_SENDER_PACKETS,
        TESLA_SENDER_EXHAUSTED,
        TESLA_RX_AUTHENTICATED,
        TESLA_RX_REJECTED_MAC,
        TESLA_RX_UNSAFE,
        TESLA_RX_KEY_ACCEPTED,
        TESLA_RX_KEY_REJECTED,
        TESLA_ATTACKER_FORGED,
        MUTESLA_SENDER_DATA,
        MUTESLA_SENDER_DISCLOSURES,
        MUTESLA_SENDER_EXHAUSTED,
        MUTESLA_RX_AUTHENTICATED,
        MUTESLA_RX_REJECTED_MAC,
        MUTESLA_RX_UNSAFE,
        MUTESLA_RX_KEY_ACCEPTED,
        MUTESLA_RX_KEY_REJECTED,
        TESLAPP_SENDER_ANNOUNCES,
        TESLAPP_SENDER_REVEALS,
        TESLAPP_SENDER_EXHAUSTED,
        TESLAPP_ATTACKER_FORGED,
        TESLAPP_RX_AUTHENTICATED,
        TESLAPP_RX_KEY_REJECTED,
        TESLAPP_RX_NO_MATCH,
        TESLAPP_RX_UNSAFE,
        TESLAPP_RX_STORED,
        ML_SENDER_CDM,
        ML_SENDER_DATA,
        ML_SENDER_DISCLOSURE,
        ML_SENDER_EXHAUSTED,
        ML_ATTACKER_FORGED_CDM,
        ML_RX_CDM_UNSAFE,
        ML_RX_HIGH_KEY_ACCEPTED,
        ML_RX_HIGH_KEY_REJECTED,
        ML_RX_CDM_AUTHENTICATED,
        ML_RX_COMMITMENT_INSTALLED,
        ML_RX_LOW_AUTHENTICATED,
        ML_RX_LOW_REJECTED,
        ML_RX_LOW_UNSAFE,
        NET_ANNOUNCE_STORED,
        NET_ANNOUNCE_SAMPLED_OUT,
        NET_ANNOUNCE_UNSAFE,
        NET_REVEAL_TOTAL,
        NET_REVEAL_AUTH,
        NET_REVEAL_WEAK_REJECTED,
        NET_REVEAL_STRONG_REJECTED,
        NET_REVEAL_NO_CANDIDATE,
        NET_INGRESS_FRAMES,
        NET_INGRESS_BYTES,
        NET_INGRESS_DROPPED,
        NET_DROP_QUEUE_FULL,
        NET_DROP_CLOSED,
        NET_SHED_TOTAL,
        NET_SHED_PINNED,
        NET_SHED_HIGH,
        NET_SHED_LOW,
        NET_DECODE_ERRORS,
        NET_DECODE_RESYNC_BYTES,
        NET_QUEUE_OCCUPANCY,
        NET_SESSION_ADMITTED,
        NET_SESSION_EVICTED,
        NET_SESSION_READMITTED,
        NET_SESSION_UNKNOWN,
        NET_SESSION_OCCUPANCY,
        NET_SESSION_MEMORY_BITS,
        NET_FLEET_AUTH_RATE_PERMILLE,
        NET_FLEET_PINNED_AUTH_PERMILLE,
        NET_FLEET_UNPINNED_AUTH_PERMILLE,
        CONTROL_SAMPLES,
        CONTROL_P_PERMILLE,
        CONTROL_SOLVES,
        CONTROL_DIRECTIVES,
        CONTROL_M,
        CONTROL_GIVE_UP,
        CONTROL_GAUGE_P_HAT_PPM,
        CONTROL_GAUGE_EPOCH,
        CONTROL_GAUGE_M,
        NET_STAGE_INGRESS_NS,
        NET_STAGE_QUEUE_WAIT_NS,
        NET_STAGE_DECODE_NS,
        NET_STAGE_PREFETCH_NS,
        NET_STAGE_VERIFY_NS,
        NET_STAGE_BUFFER_NS,
        NET_STAGE_REVEAL_AUTH_NS,
        NET_WIRE_SENT,
        NET_WIRE_LOST,
        NET_WIRE_CORRUPTED,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_add_get() {
        let mut m = Metrics::new();
        m.incr("a");
        m.add("a", 4);
        assert_eq!(m.get("a"), 5);
        assert_eq!(m.get("missing"), 0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut m = Metrics::new();
        m.add("ok", 3);
        assert_eq!(m.ratio("ok", "total"), None);
        m.add("total", 6);
        assert_eq!(m.ratio("ok", "total"), Some(0.5));
    }

    #[test]
    fn merge_sums() {
        let mut a = Metrics::new();
        a.add("x", 1);
        let mut b = Metrics::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn iteration_is_ordered() {
        let mut m = Metrics::new();
        m.incr("b");
        m.incr("a");
        let keys: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
        let keys2: Vec<_> = (&m).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, keys2);
    }

    #[test]
    fn display_nonempty() {
        let mut m = Metrics::new();
        assert_eq!(m.to_string(), "(no metrics)");
        m.incr("hello");
        assert!(m.to_string().contains("hello"));
    }

    #[test]
    fn render_is_sorted_and_fingerprints_equality() {
        let mut a = Metrics::new();
        a.incr("z.last");
        a.add("a.first", 3);
        let rendered = a.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("a.first"));
        assert!(lines[1].starts_with("z.last"));

        let mut b = Metrics::new();
        b.add("a.first", 3);
        b.incr("z.last");
        assert_eq!(a.render(), b.render());
        b.incr("z.last");
        assert_ne!(a.render(), b.render());
        assert_eq!(Metrics::new().render(), "(no metrics)");
    }

    #[test]
    fn render_pads_to_the_longest_key() {
        let mut m = Metrics::new();
        m.incr("short");
        m.incr("a.key.much.longer.than.forty.characters.used.to.collide");
        let rendered = m.render();
        let lines: Vec<&str> = rendered.lines().collect();
        // Both values start in the same column: one space after the
        // longest key.
        let long = "a.key.much.longer.than.forty.characters.used.to.collide";
        assert_eq!(lines[0], format!("{long} 1"));
        assert_eq!(
            lines[1],
            format!("{:<width$} 1", "short", width = long.len())
        );
    }

    #[test]
    fn registry_aggregates_all_three_kinds() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.render(), "(no metrics)\n");
        r.incr(keys::NET_INGRESS_FRAMES);
        r.add(keys::NET_INGRESS_BYTES, 128);
        r.record(keys::NET_STAGE_VERIFY_NS, 500);
        r.record(keys::NET_STAGE_VERIFY_NS, 700);
        r.gauge(keys::NET_SESSION_OCCUPANCY).set(3);
        assert!(!r.is_empty());
        assert_eq!(r.counters().get(keys::NET_INGRESS_BYTES), 128);
        assert_eq!(
            r.get_histogram(keys::NET_STAGE_VERIFY_NS).unwrap().count(),
            2
        );
        assert_eq!(
            r.get_gauge(keys::NET_SESSION_OCCUPANCY).unwrap().last(),
            Some(3)
        );
        let rendered = r.render();
        assert!(rendered.contains("net.ingress.frames"));
        assert!(rendered.contains("count=2"));
        assert!(rendered.contains("last=3"));
        // Sorted by name.
        let names: Vec<&str> = rendered
            .lines()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let build = |shards: &[u64]| {
            let mut r = Registry::new();
            for &s in shards {
                let mut shard = Registry::new();
                shard.add(keys::NET_INGRESS_FRAMES, s);
                shard.record(keys::NET_STAGE_VERIFY_NS, s * 100);
                shard.gauge(keys::NET_SESSION_OCCUPANCY).set(s);
                r.merge(&shard);
            }
            r
        };
        let forward = build(&[1, 2, 3]);
        let backward = build(&[3, 2, 1]);
        assert_eq!(forward.render(), backward.render());
        assert_eq!(forward.counters().get(keys::NET_INGRESS_FRAMES), 6);
    }

    #[test]
    fn registry_prometheus_exposition_covers_every_kind() {
        let mut r = Registry::new();
        r.incr(keys::NET_REVEAL_AUTH);
        r.record(keys::NET_STAGE_VERIFY_NS, 1000);
        r.gauge(keys::NET_SESSION_OCCUPANCY).set(5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE net_reveal_auth counter"));
        assert!(text.contains("net_reveal_auth 1"));
        assert!(text.contains("# TYPE net_session_occupancy gauge"));
        assert!(text.contains("net_session_occupancy 5"));
        assert!(text.contains("# TYPE net_stage_verify_ns summary"));
        assert!(text.contains("net_stage_verify_ns{quantile=\"0.99\"}"));
        assert!(text.contains("net_stage_verify_ns_count 1"));
    }

    #[test]
    fn all_keys_are_unique() {
        // The registry check the keys module promises: no duplicate or
        // conflicting spellings across the workspace's key constants.
        let mut seen = std::collections::BTreeSet::new();
        for key in keys::ALL {
            assert!(seen.insert(*key), "duplicate metric key {key}");
            assert!(
                key.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "non-canonical key spelling {key}"
            );
        }
        assert_eq!(seen.len(), keys::ALL.len());
    }
}
