//! The deterministic campaign driver: a roster of senders, a flooder
//! and a sharded receiver pool on one seeded loopback wire.
//!
//! The run reproduces the paper's §V flood experiment on the wire: in
//! every interval each sender emits `g` genuine announce copies, the
//! flooder interleaves `f = round(g·p/(1−p))` forged copies among them
//! (a seeded shuffle — the attacker does not get to always pre-empt the
//! genuine copies), and the sender's reveal follows one interval later.
//! With `m` buffers a genuine reveal authenticates iff a genuine copy
//! survived reservoir sampling: probability `≈ 1 − p^m` (exactly
//! hypergeometric at finite `n`).
//!
//! The roster decides everything else ([`FleetSpec::untagged`]):
//!
//! - **one untagged sender** — the paper's single-chain experiment:
//!   the chain derives from the bare seed, frames use the legacy
//!   untagged wire shapes, and frames route by interval
//!   ([`RoutePolicy::ByInterval`]) to [`DapShard`]s;
//! - **`N` tagged senders** — the crowdsensing setting: every sender
//!   walks its own chain ([`fleet_chain_seed`]) and emits
//!   [`SenderId`]-tagged frames while the flooder spoofs each sender's
//!   tag; frames route by sender ([`RoutePolicy::BySender`]) to
//!   [`FleetShard`]s, each owning a [`SessionTable`] slice of the fleet,
//!   and the per-sender `1 − p^m` arithmetic holds independently for
//!   every resident session.
//!
//! Determinism: one driver thread plays all traffic in virtual time and
//! drains the wire into the pool after every interval,
//! [`OverflowPolicy::Block`] forbids timing-dependent shedding, frozen
//! clocks zero the stopwatches, and every shard RNG forks from the pool
//! seed — so two same-seed runs render byte-identical registries and
//! traces (the ci.sh soak gates `cmp` exactly this).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use dap_core::{
    codec, DapBootstrap, DapMessage, DapParams, DapReceiver, DapSender, PostureDirective, Reveal,
    RevealPrecompute, SenderId,
};
use dap_crypto::oneway::Domain;
use dap_crypto::KeyChain;
use dap_obs::{TimeSource, TraceRecord};
use dap_simnet::{keys, ChannelModel, Metrics, Registry, SimDuration, SimRng, SimTime};

use crate::adversary::{AdversaryClass, AdversaryEmit, AdversaryPlan, PostureView};
use crate::control::{ControlConfig, ControlPlane};
use crate::pool::{
    dap_verdict, DapShard, FrameVerdict, FrameVerifier, LiveCounters, OverflowPolicy, PoolConfig,
    PoolObs, PostureUpdate, ReceiverPool, RoutePolicy,
};
use crate::pump::Flooder;
use crate::session::{Admission, PriorityClass, SessionConfig, SessionTable};
use crate::telemetry::SharedRegistry;
use crate::transport::{LoopbackTransport, Transport};

/// Everything a campaign needs; all fields seeded/explicit so a spec
/// fully determines the run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Master seed (per-sender chains, wire faults, flooder MACs, shard
    /// sampling).
    pub seed: u64,
    /// Fleet size — sender ids run `1..=senders`.
    pub senders: u64,
    /// Plays the roster as one untagged sender: the paper's
    /// single-chain experiment on the legacy wire shapes (see
    /// [`FleetSpec::untagged`]). Needs `senders == 1`.
    pub untagged: bool,
    /// Intervals of traffic per sender.
    pub intervals: u64,
    /// Receiver buffers `m` per pending interval per session.
    pub buffers: usize,
    /// Receiver pool shards.
    pub shards: usize,
    /// Per-shard ingress queue depth.
    pub queue_depth: usize,
    /// Flooder bandwidth share `p ∈ [0, 1)` at campaign start, spoofed
    /// per sender.
    pub flood: f64,
    /// Flooder bandwidth share at the end of the ramp: the wire's `p`
    /// ramps linearly `flood → flood_end` over the first half of the
    /// campaign, then holds at `flood_end`. `None` (the default) keeps
    /// the wire stationary at [`flood`]. Ramps the Bernoulli flooder
    /// only ([`AdversaryPlan::ramped`]).
    ///
    /// [`flood`]: FleetSpec::flood
    pub flood_end: Option<f64>,
    /// Genuine announce copies per sender per interval.
    pub copies: u32,
    /// Wire loss probability.
    pub loss: f64,
    /// Wire corruption probability (one flipped bit per hit).
    pub corrupt: f64,
    /// Per-shard session-count cap.
    pub max_sessions: usize,
    /// Per-shard session memory budget in bits.
    pub memory_budget_bits: u64,
    /// Per-source trace ring capacity; 0 disables tracing. Traced runs
    /// stay bit-reproducible: the pool runs on frozen clocks and every
    /// record is stamped with protocol time.
    pub trace_depth: usize,
    /// Flight-recorder sampling cadence ([`PoolObs::span_every`]):
    /// every `span_every`-th verified datagram per shard emits a
    /// [`dap_obs::TraceEvent::FrameSpan`] and feeds the `net.stage.*`
    /// histograms. 0 (the default) disables the recorder.
    pub span_every: u64,
    /// Operator-pinned sender ids: never evicted while an unpinned
    /// session exists, drained first under queue pressure, and off
    /// limits to the targeted adversary classes (a pin is an id the
    /// operator vouches for out of band — attacking it buys the
    /// adversary nothing it can observe).
    pub pins: Vec<u64>,
    /// Which adversary strategy floods the wire (DESIGN §11).
    pub adversary: AdversaryClass,
    /// Per-shard, per-interval verify budget for the priority drain;
    /// `usize::MAX` verifies everything (the PR 4–6 FIFO posture).
    pub drain_budget: usize,
    /// Runs the live control plane: the driver feeds reveal-time buffer
    /// evidence to a [`ControlPlane`] at every quiesced interval
    /// boundary and broadcasts the resulting directives, so every shard
    /// re-sizes `m` toward the game's optimum as the measured flood
    /// changes. Determinism survives the feedback edge: evidence is
    /// read only at quiesced boundaries.
    pub adaptive: bool,
}

impl FleetSpec {
    /// The paper's single-sender campaign: one untagged sender,
    /// 400 intervals, `m = 4`, `p = 0.9`, 4 genuine copies, clean wire
    /// — the ci.sh soak-gate shape.
    #[must_use]
    pub fn untagged() -> Self {
        Self {
            senders: 1,
            untagged: true,
            intervals: 400,
            queue_depth: 256,
            flood: 0.9,
            ..Self::default()
        }
    }

    /// The pin set in the shared form the pool, session tables and
    /// adversary plan consume.
    #[must_use]
    pub fn pin_set(&self) -> Arc<BTreeSet<u64>> {
        Arc::new(self.pins.iter().copied().collect())
    }
}

impl Default for FleetSpec {
    /// A small smoke-scale fleet: 64 senders × 8 intervals, `m = 4`,
    /// `p = 0.8`, sessions unconstrained in count but budgeted at
    /// 16 Mbit per shard. Four genuine copies per interval keep the
    /// per-interval stream long relative to `m`, where the paper's
    /// `1 − p^m` limit holds (a 5-frame stream against a 4-slot
    /// reservoir barely evicts anything).
    fn default() -> Self {
        Self {
            seed: 2016,
            senders: 64,
            untagged: false,
            intervals: 8,
            buffers: 4,
            shards: 4,
            queue_depth: 4096,
            flood: 0.8,
            flood_end: None,
            copies: 4,
            loss: 0.0,
            corrupt: 0.0,
            max_sessions: usize::MAX,
            memory_budget_bits: 16 * 1024 * 1024,
            trace_depth: 0,
            span_every: 0,
            pins: Vec::new(),
            adversary: AdversaryClass::Bernoulli,
            drain_budget: usize::MAX,
            adaptive: false,
        }
    }
}

/// What a campaign produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Merged pool + wire + session counters.
    pub metrics: Metrics,
    /// The full observability picture, including the per-shard session
    /// occupancy/memory gauges and the per-sender auth-rate envelope.
    pub registry: Registry,
    /// `(source, seq)`-sorted trace records.
    pub trace: Vec<TraceRecord>,
    /// Records the run's trace rings — shards, reader, wire and control
    /// plane — overwrote because they were full.
    pub trace_shed: u64,
    /// Aggregate `authenticated / reveals` across the fleet.
    pub auth_rate: f64,
    /// The paper's per-sender prediction `1 − p^m` at the starting
    /// share [`FleetSpec::flood`] — a ramped wire's rate does not track
    /// it.
    pub expected_rate: f64,
    /// Frames the driver pushed into the pool.
    pub frames: u64,
    /// Smallest per-sender auth rate observed (permille), across
    /// senders with at least one reveal. Exact (the histogram keeps
    /// true min/max alongside its buckets).
    pub min_sender_auth_permille: Option<u64>,
    /// Largest per-sender auth rate observed (permille).
    pub max_sender_auth_permille: Option<u64>,
    /// Median per-sender auth rate (permille), from the streamed
    /// per-sender histogram (bucketed: ≤ 1/16 relative error).
    pub median_sender_auth_permille: Option<u64>,
    /// Smallest per-sender auth rate among operator-pinned senders.
    pub min_pinned_auth_permille: Option<u64>,
    /// Largest per-sender auth rate among operator-pinned senders.
    pub max_pinned_auth_permille: Option<u64>,
    /// Smallest per-sender auth rate among unpinned senders.
    pub min_unpinned_auth_permille: Option<u64>,
    /// Largest per-sender auth rate among unpinned senders.
    pub max_unpinned_auth_permille: Option<u64>,
    /// Frames the priority drain shed past the budget (`net.shed.total`).
    pub shed_frames: u64,
    /// Shed frames over pushed frames — the overload pressure the drain
    /// actually relieved.
    pub shed_fraction: f64,
    /// Session evictions across the run (`net.session.evicted`).
    pub evictions: u64,
}

/// The protocol parameters every fleet sender runs (100-tick intervals,
/// `d = 1`, Δ = 0 — the loopback wire has no skew).
#[must_use]
pub fn fleet_params(buffers: usize) -> DapParams {
    DapParams::new(SimDuration(100), 1, 0, buffers)
}

/// The chain seed sender `id` derives its key chain from — shared by
/// the driver (which plays the sender) and the receiver-side directory
/// (which re-derives the commitment), standing in for out-of-band
/// bootstrap exactly like `dapd --role receiver`'s `--seed`.
#[must_use]
pub fn fleet_chain_seed(fleet_seed: u64, sender: SenderId) -> [u8; 16] {
    let mut seed = [0u8; 16];
    seed[..8].copy_from_slice(&fleet_seed.to_be_bytes());
    seed[8..].copy_from_slice(&sender.0.to_be_bytes());
    seed
}

/// The fleet directory: bootstraps for sender ids `1..=senders`, all
/// chains re-derived from the fleet seed. Ids outside the range are
/// unknown (a spoofed id the roster never provisioned).
#[must_use]
pub fn fleet_bootstrap(
    fleet_seed: u64,
    senders: u64,
    chain_len: usize,
    params: DapParams,
    sender: SenderId,
) -> Option<DapBootstrap> {
    (1..=senders).contains(&sender.0).then(|| {
        DapSender::new(&fleet_chain_seed(fleet_seed, sender), chain_len, params).bootstrap()
    })
}

/// All fleet chains in one batched walk: the per-sender seeds run
/// through [`KeyChain::generate_many`], which levels every `F`
/// application across the fleet into lane-parallel SHA-256 — the
/// 4096-sender soak setup cost, paid once instead of per admission.
/// Chain `k` (0-based) belongs to sender id `k + 1` and is key-for-key
/// equal to the scalar [`fleet_bootstrap`] derivation.
#[must_use]
pub fn fleet_chains(fleet_seed: u64, senders: u64, chain_len: usize) -> Vec<KeyChain> {
    let seeds: Vec<[u8; 16]> = (1..=senders)
        .map(|id| fleet_chain_seed(fleet_seed, SenderId(id)))
        .collect();
    let refs: Vec<&[u8]> = seeds.iter().map(|s| s.as_slice()).collect();
    KeyChain::generate_many(&refs, chain_len, Domain::F)
}

/// The whole fleet's bootstrap records, batch-derived and shared: one
/// `Arc` serves every shard's admission path, so re-admitting an
/// evicted sender is an index into this table instead of an `O(len)`
/// chain walk.
#[must_use]
pub fn fleet_directory(
    fleet_seed: u64,
    senders: u64,
    chain_len: usize,
    params: DapParams,
) -> Arc<Vec<DapBootstrap>> {
    bootstraps(&fleet_chains(fleet_seed, senders, chain_len), params)
}

/// The bootstrap records (commitment + `params`) of `chains`, shared.
fn bootstraps(chains: &[KeyChain], params: DapParams) -> Arc<Vec<DapBootstrap>> {
    Arc::new(
        chains
            .iter()
            .map(|chain| DapBootstrap {
                commitment: *chain.commitment(),
                params,
            })
            .collect(),
    )
}

/// A shard verifier owning a [`SessionTable`] slice of the fleet:
/// frames verify against their wire-attributed sender's session, and
/// shutdown folds session counters, occupancy gauges and the per-sender
/// auth-rate envelope into the shard registry.
pub struct FleetShard {
    table: SessionTable,
    /// Shared batch-derived bootstraps; slot `k` = sender id `k + 1`.
    directory: Arc<Vec<DapBootstrap>>,
    /// The parameters new admissions provision with — `buffers` tracks
    /// the newest control-plane directive, so a session admitted after
    /// a re-size comes up at the commanded `m`, not the bootstrap one.
    params: DapParams,
    /// Per-sender `(authenticated, attempts)` — kept verifier-side so an
    /// *evicted* sender's history still reaches the report. An attempt
    /// is a reveal that reached a verdict (`Authenticated` or
    /// `StrongRejected`); duplicate replays (`NoCandidate`) burn budget
    /// but are not auth attempts, so a replay adversary cannot dilute a
    /// sender's measured rate with the sender's own traffic.
    reveal_outcomes: BTreeMap<u64, (u64, u64)>,
    /// One entry per reveal of the current drain window, in window
    /// order, tagged with the claimed sender id; `on_frame` pops one
    /// per reveal frame it sees. `None` where the sender had no
    /// *resident* session at prefetch time (admission decisions stay in
    /// `on_frame`, where they are counted and can evict).
    pre: VecDeque<Option<(u64, RevealPrecompute)>>,
}

impl FleetShard {
    /// One shard's slice of the fleet described by `spec`; `shard`
    /// salts the session table's node-local secrets. Derives its own
    /// bootstrap directory — campaigns spawning many shards should
    /// batch once with [`fleet_directory`] and use
    /// [`FleetShard::with_directory`].
    #[must_use]
    pub fn new(spec: &FleetSpec, shard: usize) -> Self {
        let chain_len = usize::try_from(spec.intervals).expect("interval count fits usize") + 2;
        let directory = fleet_directory(
            spec.seed,
            spec.senders,
            chain_len,
            fleet_params(spec.buffers),
        );
        Self::with_directory(spec, shard, directory)
    }

    /// [`FleetShard::new`] over a pre-derived shared directory (one
    /// batched walk serving every shard).
    #[must_use]
    pub fn with_directory(
        spec: &FleetSpec,
        shard: usize,
        directory: Arc<Vec<DapBootstrap>>,
    ) -> Self {
        Self {
            table: SessionTable::with_pins(
                SessionConfig {
                    max_sessions: spec.max_sessions,
                    memory_budget_bits: spec.memory_budget_bits,
                },
                spec.seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                spec.pin_set(),
            ),
            directory,
            params: fleet_params(spec.buffers),
            reveal_outcomes: BTreeMap::new(),
            pre: VecDeque::new(),
        }
    }

    /// The shard's session table (post-run inspection).
    #[must_use]
    pub fn table(&self) -> &SessionTable {
        &self.table
    }
}

impl FrameVerifier for FleetShard {
    fn on_frame(
        &mut self,
        sender: SenderId,
        frame: &DapMessage,
        at: SimTime,
        rng: &mut SimRng,
        registry: &mut Registry,
        live: &LiveCounters,
    ) -> FrameVerdict {
        // Pop unconditionally for every reveal — even one the early
        // return below discards — so the queue stays aligned with the
        // window's reveal sequence; a precompute serves only the sender
        // it was made for.
        let pre = match frame {
            DapMessage::Reveal(_) => self
                .pre
                .pop_front()
                .flatten()
                .and_then(|(claimed, pre)| (claimed == sender.0).then_some(pre)),
            DapMessage::Announce(_) => None,
        };
        let (directory, buffers) = (&self.directory, self.params.buffers);
        let Some(session) = self.table.lookup(sender, |id| {
            // Admissions provision at the *commanded* buffer count:
            // the directory's bootstrap params carry the campaign
            // bootstrap `m`, which a control-plane directive may have
            // since superseded.
            id.0.checked_sub(1)
                .and_then(|slot| directory.get(usize::try_from(slot).ok()?))
                .copied()
                .map(|mut bootstrap| {
                    bootstrap.params.buffers = buffers;
                    bootstrap
                })
        }) else {
            registry.incr(keys::NET_SESSION_UNKNOWN);
            return FrameVerdict {
                outcome: "unknown_sender",
                interval: match frame {
                    DapMessage::Announce(a) => a.index,
                    DapMessage::Reveal(r) => r.index,
                },
                buffer: None,
                key_reveal: false,
                evicted: None,
            };
        };
        match session.admission {
            Admission::Resident => {}
            Admission::Admitted => registry.incr(keys::NET_SESSION_ADMITTED),
            Admission::Readmitted => registry.incr(keys::NET_SESSION_READMITTED),
        }
        registry.add(keys::NET_SESSION_EVICTED, session.evicted.len() as u64);
        let evicted = session.evicted.first().copied();
        let (verdict, attempt) = dap_verdict(
            session.receiver,
            frame,
            pre.as_ref(),
            at,
            rng,
            registry,
            live,
        );
        if let Some(success) = attempt {
            let tally = self.reveal_outcomes.entry(sender.0).or_insert((0, 0));
            tally.0 += u64::from(success);
            tally.1 += 1;
            // The EWMA feeds the drain/eviction priority: every verdict
            // on a genuine reveal nudges the sender's score toward its
            // recent auth rate.
            self.table.record_auth(sender, success);
        }
        FrameVerdict { evicted, ..verdict }
    }

    fn on_shutdown(&mut self, registry: &mut Registry) {
        registry
            .gauge(keys::NET_SESSION_OCCUPANCY)
            .set(self.table.occupancy() as u64);
        registry
            .gauge(keys::NET_SESSION_MEMORY_BITS)
            .set(self.table.memory_bits());
        // One histogram *record* per sender: the shard's per-sender
        // auth-rate spread folds into fixed-size bucket state, so
        // render, cross-shard merge and live publishing cost O(buckets)
        // — not O(senders) — no matter how large the fleet grows
        // (the pre-PR 8 gauge render was one `set` per sender). The
        // histogram keeps *exact* min/max, which is what the survival
        // matrix and the ci pinned-floor gate read, and adds the
        // distribution (quantiles) the gauge envelope never had.
        for (sender, (auth, total)) in &self.reveal_outcomes {
            if *total > 0 {
                let permille = auth * 1000 / total;
                registry.record(keys::NET_FLEET_AUTH_RATE_PERMILLE, permille);
                let split = if self.table.is_pinned(SenderId(*sender)) {
                    keys::NET_FLEET_PINNED_AUTH_PERMILLE
                } else {
                    keys::NET_FLEET_UNPINNED_AUTH_PERMILLE
                };
                registry.record(split, permille);
            }
        }
    }

    fn classify(&self, sender: SenderId) -> PriorityClass {
        self.table.priority_class(sender)
    }

    fn on_posture(&mut self, directive: &PostureDirective) -> Option<PostureUpdate> {
        let from = self.params.buffers;
        let to = directive.effective_buffers();
        // Future admissions provision at the commanded size via the
        // lookup path; resident sessions re-size in place so the
        // directive takes effect without waiting for churn.
        self.params.buffers = to;
        self.table.reprovision(to);
        (from != to).then_some(PostureUpdate {
            from_m: from as u64,
            to_m: to as u64,
        })
    }

    fn prefetch(&mut self, batch: &[(SenderId, DapMessage)]) {
        // Only senders with a *resident* session precompute:
        // `SessionTable::peek` never admits, evicts or touches the
        // eviction clock, so this pass is invisible to session
        // accounting. A session evicted and re-admitted between here
        // and consumption is harmless anyway — every precompute field
        // is a pure function of the reveal bytes and the sender's
        // deterministic per-id local seed, not of receiver state.
        let reveals: Vec<(SenderId, &Reveal)> = batch
            .iter()
            .filter_map(|(sender, frame)| match frame {
                DapMessage::Reveal(r) => Some((*sender, r)),
                DapMessage::Announce(_) => None,
            })
            .collect();
        let mut slots: Vec<Option<u64>> = Vec::with_capacity(reveals.len());
        let mut items: Vec<(&DapReceiver, &Reveal)> = Vec::new();
        for (sender, reveal) in &reveals {
            match self.table.peek(*sender) {
                Some(receiver) => {
                    slots.push(Some(sender.0));
                    items.push((receiver, reveal));
                }
                None => slots.push(None),
            }
        }
        let mut pres = DapReceiver::precompute_reveals(&items).into_iter();
        self.pre = slots
            .into_iter()
            .map(|slot| slot.map(|sender| (sender, pres.next().expect("one precompute per item"))))
            .collect();
    }
}

/// Runs one seeded campaign; see the module docs.
///
/// # Panics
///
/// Panics on invalid spec fields (zero shards/buffers/senders, an
/// untagged roster of more than one sender, `p ∉ [0, 1)`, loss or
/// corruption outside `[0, 1]`, a flood ramp under a non-Bernoulli
/// adversary) and if a pool worker panics.
#[must_use]
pub fn run_fleet(spec: &FleetSpec) -> FleetReport {
    run_fleet_with(spec, None)
}

/// [`run_fleet`] with an optional live telemetry registry (slot `i` =
/// shard `i`; must have at least `spec.shards` slots, and a slot
/// `spec.shards` receives the control plane's posture gauges).
///
/// # Panics
///
/// As [`run_fleet`].
#[must_use]
pub fn run_fleet_with(spec: &FleetSpec, publish: Option<Arc<SharedRegistry>>) -> FleetReport {
    assert!(spec.senders >= 1, "need at least one sender");
    assert!(
        !spec.untagged || spec.senders == 1,
        "an untagged roster is exactly one sender"
    );
    let params = fleet_params(spec.buffers);
    let schedule = params.schedule();
    let d = params.disclosure_delay;
    let chain_len = usize::try_from(spec.intervals).expect("interval count fits usize") + 2;

    let mut rng = SimRng::new(spec.seed);
    let wire_rng_seed = rng.next_u64();
    let pool_seed = rng.next_u64();
    let flooder_seed = rng.next_u64();
    let mut shuffle_rng = rng.fork(4);

    // Every sender its own chain — a tagged roster derives all of them
    // in one lane-parallel batch walk. The same chains seed the shared
    // directory, so the shards never re-walk a chain on admission.
    let chains = if spec.untagged {
        vec![KeyChain::generate(
            &spec.seed.to_be_bytes(),
            chain_len,
            Domain::F,
        )]
    } else {
        fleet_chains(spec.seed, spec.senders, chain_len)
    };
    let directory = bootstraps(&chains, params);
    let mut roster: Vec<DapSender> = chains
        .into_iter()
        .map(|chain| DapSender::with_chain(chain, params))
        .collect();

    let wire = LoopbackTransport::new(wire_rng_seed, ChannelModel::lossy(spec.loss), spec.corrupt);
    // Reserved trace source ids: shards take 0..shards, the pool's
    // socket reader takes `shards`, the wire one past it and the
    // control plane two past.
    let wire_source = u32::try_from(spec.shards).expect("shard count fits u32") + 1;
    if spec.trace_depth > 0 {
        wire.enable_trace(wire_source, spec.trace_depth);
    }
    let pins = spec.pin_set();
    let config = PoolConfig {
        shards: spec.shards,
        queue_depth: spec.queue_depth,
        overflow: OverflowPolicy::Block,
        route: if spec.untagged {
            RoutePolicy::ByInterval
        } else {
            RoutePolicy::BySender
        },
        drain_budget: spec.drain_budget,
        pins: Arc::clone(&pins),
    };
    let obs = PoolObs {
        // Frozen clocks: stopwatch durations collapse to 0, so the
        // latency histograms carry only deterministic sample counts.
        time: TimeSource::frozen(),
        trace_depth: spec.trace_depth,
        publish: publish.clone(),
        publish_every: 64,
        span_every: spec.span_every,
    };
    let pool = if spec.untagged {
        let bootstrap = directory[0];
        ReceiverPool::spawn_with_obs(
            config,
            pool_seed,
            |shard| DapShard::new(bootstrap, &[b'l', b'o', shard as u8]),
            obs,
        )
    } else {
        ReceiverPool::spawn_with_obs(
            config,
            pool_seed,
            |shard| FleetShard::with_directory(spec, shard, Arc::clone(&directory)),
            obs,
        )
    };
    let handle = pool.handle();
    let mut flooder = Flooder::new(wire.clone(), flooder_seed, spec.flood);
    let mut adversary = AdversaryPlan::new(
        spec.adversary,
        spec.flood,
        u64::from(spec.copies),
        spec.senders,
        &pins,
    );
    if let Some(end) = spec.flood_end {
        adversary = adversary.ramped(end, spec.intervals);
    }

    let mut controller = spec.adaptive.then(|| {
        ControlPlane::new(
            u32::try_from(spec.buffers).expect("buffer count fits u32"),
            ControlConfig::default(),
        )
    });
    // Control-plane narration: p̂ estimate samples trace at their own
    // reserved source id, so the forensic audit can line the
    // estimator's view up against the wire's actual behaviour.
    let mut ctrl_trace = (spec.adaptive && spec.trace_depth > 0).then(|| {
        dap_obs::TraceEmitter::new(wire_source + 1, dap_obs::RingSink::new(spec.trace_depth))
    });

    // Settle interval boundaries only where something reads them: a
    // windowed drain closes its window at the tick, and the control
    // plane and a posture-reading adversary read pool state after the
    // quiesce. Elsewhere the tick would flush an empty window and the
    // quiesce would only stall the driver behind the shards.
    let settle = spec.drain_budget != usize::MAX || spec.adaptive || adversary.reads_posture();
    let mut tx = wire.clone();
    let mut rx = wire.clone();
    let mut recv_buf = vec![0u8; codec::MAX_FRAME_LEN];
    let mut drain = |rx: &mut LoopbackTransport, at: SimTime| {
        while let Some(n) = rx.recv(&mut recv_buf).expect("loopback recv") {
            handle.ingest(&recv_buf[..n], at);
        }
    };

    for i in 1..=spec.intervals {
        let at = SimTime(schedule.start_of(i).ticks() + 10);
        // A plan that reads this view had the previous boundary settled
        // (below), so the posture it observes is a deterministic
        // function of the traffic so far — not of worker scheduling.
        adversary.observe(&PostureView {
            buffers: spec.buffers,
            drain_budget: spec.drain_budget,
            shed_frames: handle.live().shed(),
            ingress_frames: handle.live().frames(),
            posture_epoch: handle.live().posture_epoch(),
            live_buffers: handle.live().live_buffers(),
            give_up: handle.live().give_up(),
        });
        for (slot, sender) in roster.iter_mut().enumerate() {
            let id = SenderId(slot as u64 + 1);
            let tag = (!spec.untagged).then_some(id);
            let forged = adversary.spoof_copies(id, i);
            if adversary.suppresses(id, i) {
                // Post-turn, a farmed sender's genuine traffic is
                // withheld: the farmer rides the priority class its
                // honest phase earned with forgeries alone.
                for _ in 0..forged {
                    forge(&mut flooder, tag, i);
                }
                continue;
            }
            // The reveal for i − d leads the interval (Algorithm 1).
            if i > d {
                if let Some(reveal) = sender.reveal(i - d) {
                    let frame = encode_as(tag, &DapMessage::Reveal(reveal));
                    adversary.tap(i, &frame);
                    tx.send(&frame).expect("loopback send");
                }
            }
            // Genuine copies and forgeries, uniformly interleaved per
            // sender by seeded draw.
            let payload = match tag {
                Some(id) => format!("s{} reading {i}", id.0),
                None => format!("reading {i}"),
            };
            let announce = sender
                .announce(i, payload.as_bytes())
                .expect("chain sized for the run");
            let genuine = encode_as(tag, &DapMessage::Announce(announce));
            adversary.tap(i, &genuine);
            let total = u64::from(spec.copies) + forged;
            let mut genuine_left = u64::from(spec.copies);
            let mut slots_left = total;
            for _ in 0..total {
                // P(this slot genuine) = genuine_left / slots_left — a
                // uniform interleave without materialising the
                // permutation.
                if genuine_left > 0 && shuffle_rng.below(slots_left) < genuine_left {
                    tx.send(&genuine).expect("loopback send");
                    genuine_left -= 1;
                } else {
                    forge(&mut flooder, tag, i);
                }
                slots_left -= 1;
            }
        }
        // Standalone emissions land after the interval's genuine
        // traffic: FIFO-within-class means a burst can only fill the
        // shed tail behind frames that already arrived.
        for emit in adversary.standalone(i) {
            match emit {
                AdversaryEmit::Forge { victim, interval } => {
                    flooder
                        .send_forged_as(victim, interval)
                        .expect("loopback send");
                }
                AdversaryEmit::Replay(bytes) => tx.send(&bytes).expect("loopback send"),
            }
        }
        drain(&mut rx, at);
        if settle {
            handle.tick();
            handle.quiesce();
        }
        // The interval boundary is quiesced, so the evidence counters
        // are a deterministic function of the traffic so far; a
        // directive posted here lands before any interval-`i + 1`
        // frame.
        if let Some(ctrl) = controller.as_mut() {
            let samples_before = ctrl.samples();
            let directive = ctrl.step(handle.live());
            if ctrl.samples() > samples_before {
                if let Some(emitter) = ctrl_trace.as_mut() {
                    emitter.emit(
                        at.ticks(),
                        dap_obs::TraceEvent::ControlEstimate {
                            epoch: ctrl.epoch(),
                            sample_ppm: ctrl.last_sample_ppm(),
                            p_hat_ppm: ctrl.estimate_ppm(),
                        },
                    );
                }
                // Live posture gauges land in the telemetry slot one
                // past the shards, when the caller provisioned it.
                if let Some(shared) = &publish {
                    if shared.slots() > spec.shards {
                        let mut gauges = Registry::new();
                        ctrl.publish_gauges(&mut gauges);
                        shared.publish(spec.shards, &gauges);
                    }
                }
            }
            if let Some(directive) = directive {
                handle.post_posture(directive, at);
                handle.quiesce();
            }
        }
    }
    // Tail: flush the last reveals.
    for i in spec.intervals.saturating_sub(d) + 1..=spec.intervals {
        let at = SimTime(schedule.start_of(i + d).ticks() + 10);
        for (slot, sender) in roster.iter_mut().enumerate() {
            let id = SenderId(slot as u64 + 1);
            if adversary.suppresses(id, i + d) {
                continue;
            }
            if let Some(reveal) = sender.reveal(i) {
                let frame = encode_as((!spec.untagged).then_some(id), &DapMessage::Reveal(reveal));
                tx.send(&frame).expect("loopback send");
            }
        }
        drain(&mut rx, at);
        if settle {
            handle.tick();
            handle.quiesce();
        }
    }

    let frames = handle.live().frames();
    let shed_frames = handle.live().shed();
    let report = pool.shutdown_with_report();
    let mut registry = report.registry;
    registry.merge_metrics(&wire.wire_metrics());
    if let Some(ctrl) = &controller {
        ctrl.publish(&mut registry);
    }
    let mut trace = report.trace;
    let mut trace_shed = report.trace_shed;
    let rings =
        std::iter::once(wire.take_trace()).chain(ctrl_trace.map(dap_obs::TraceEmitter::into_sink));
    for ring in rings {
        trace_shed += ring.shed();
        trace.extend(ring.into_records());
    }
    dap_obs::sort_records(&mut trace);
    let metrics = registry.counters().clone();
    let auth_rate = metrics
        .ratio(keys::NET_REVEAL_AUTH, keys::NET_REVEAL_TOTAL)
        .unwrap_or(0.0);
    let envelope = registry.get_histogram(keys::NET_FLEET_AUTH_RATE_PERMILLE);
    let pinned = registry.get_histogram(keys::NET_FLEET_PINNED_AUTH_PERMILLE);
    let unpinned = registry.get_histogram(keys::NET_FLEET_UNPINNED_AUTH_PERMILLE);
    FleetReport {
        auth_rate,
        expected_rate: 1.0
            - spec
                .flood
                .powi(i32::try_from(spec.buffers).unwrap_or(i32::MAX)),
        frames,
        min_sender_auth_permille: envelope.and_then(dap_obs::Histogram::min),
        max_sender_auth_permille: envelope.and_then(dap_obs::Histogram::max),
        median_sender_auth_permille: envelope.and_then(|h| h.quantile(0.5)),
        min_pinned_auth_permille: pinned.and_then(dap_obs::Histogram::min),
        max_pinned_auth_permille: pinned.and_then(dap_obs::Histogram::max),
        min_unpinned_auth_permille: unpinned.and_then(dap_obs::Histogram::min),
        max_unpinned_auth_permille: unpinned.and_then(dap_obs::Histogram::max),
        shed_frames,
        shed_fraction: if frames > 0 {
            shed_frames as f64 / frames as f64
        } else {
            0.0
        },
        evictions: metrics.get(keys::NET_SESSION_EVICTED),
        metrics,
        registry,
        trace,
        trace_shed,
    }
}

/// The wire bytes of `message` from `tag` (untagged when `None`).
fn encode_as(tag: Option<SenderId>, message: &DapMessage) -> Vec<u8> {
    match tag {
        Some(id) => codec::encode_tagged(id, message),
        None => codec::encode(message),
    }
    .expect("encodable frame")
}

/// One forged announce for `interval`, spoofing `tag` (untagged when
/// `None`).
fn forge<T: Transport>(flooder: &mut Flooder<T>, tag: Option<SenderId>, interval: u64) {
    match tag {
        Some(id) => flooder.send_forged_as(id, interval),
        None => flooder.send_forged(interval),
    }
    .expect("loopback send");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_metrics() {
        let spec = FleetSpec {
            intervals: 60,
            ..FleetSpec::untagged()
        };
        let a = run_fleet(&spec);
        let b = run_fleet(&spec);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.frames, b.frames);
        assert!(a.frames > 0);
    }

    #[test]
    fn adaptive_ramp_converges_to_the_ess_and_stays_deterministic() {
        use dap_game::{optimal_buffer_count, DosGameParams};
        let spec = FleetSpec {
            intervals: 300,
            buffers: 2,
            flood: 0.1,
            flood_end: Some(0.9),
            adaptive: true,
            trace_depth: 1 << 16,
            ..FleetSpec::untagged()
        };
        let a = run_fleet(&spec);
        let b = run_fleet(&spec);
        // Determinism survives the feedback edge: metrics *and* the
        // full trace (including every PostureChange) are identical.
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.trace, b.trace);
        // The loop actuated, and narrated every re-size.
        let directives = a.metrics.get(keys::CONTROL_DIRECTIVES);
        assert!(directives >= 1, "ramp must trigger at least one re-size");
        let changes = a
            .trace
            .iter()
            .filter(|r| r.event.name() == "posture_change")
            .count() as u64;
        assert_eq!(
            changes,
            directives * spec.shards as u64,
            "each directive re-sizes every shard exactly once"
        );
        // Converged near the offline Algorithm 3 optimum at the plateau.
        let offline = optimal_buffer_count(DosGameParams::paper_defaults(0.9, 1), 50);
        let live_m = a.metrics.get(keys::CONTROL_M) as u32;
        assert!(
            live_m.abs_diff(offline.m) <= 1,
            "live m {live_m} vs offline m* {}",
            offline.m
        );
    }

    #[test]
    fn heavy_flood_from_the_first_interval_runs_to_completion() {
        // At p = 0.9 an early interval often keeps only forged copies,
        // so the control plane's first estimate can read 1000‰.
        for seed in 2..=5 {
            let spec = FleetSpec {
                adaptive: true,
                intervals: 60,
                seed,
                ..FleetSpec::untagged()
            };
            let report = run_fleet(&spec);
            assert_eq!(
                report.metrics.get(keys::NET_REVEAL_TOTAL),
                60,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn stationary_clean_adaptive_run_never_flips_posture() {
        let spec = FleetSpec {
            intervals: 120,
            buffers: 1,
            flood: 0.0,
            adaptive: true,
            copies: 1,
            ..FleetSpec::untagged()
        };
        let report = run_fleet(&spec);
        assert_eq!(report.metrics.get(keys::CONTROL_DIRECTIVES), 0);
        assert_eq!(report.metrics.get(keys::CONTROL_M), 1);
        assert!(report.metrics.get(keys::CONTROL_SAMPLES) > 0);
        assert!((report.auth_rate - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn ramp_without_adaptive_defense_is_the_static_baseline() {
        let base = FleetSpec {
            intervals: 200,
            buffers: 2,
            flood: 0.1,
            flood_end: Some(0.9),
            adaptive: false,
            ..FleetSpec::untagged()
        };
        let static_run = run_fleet(&base);
        let adaptive_run = run_fleet(&FleetSpec {
            adaptive: true,
            ..base
        });
        assert_eq!(static_run.metrics.get(keys::CONTROL_DIRECTIVES), 0);
        // The adaptive defender grows `m` under the ramp, so it must
        // authenticate at least as much as the frozen m = 2 baseline.
        assert!(
            adaptive_run.metrics.get(keys::NET_REVEAL_AUTH)
                >= static_run.metrics.get(keys::NET_REVEAL_AUTH),
            "adaptive {} < static {}",
            adaptive_run.metrics.get(keys::NET_REVEAL_AUTH),
            static_run.metrics.get(keys::NET_REVEAL_AUTH)
        );
    }

    #[test]
    fn clean_channel_authenticates_everything() {
        let spec = FleetSpec {
            intervals: 50,
            flood: 0.0,
            copies: 1,
            ..FleetSpec::untagged()
        };
        let report = run_fleet(&spec);
        assert_eq!(report.metrics.get(keys::NET_REVEAL_TOTAL), 50);
        assert_eq!(report.metrics.get(keys::NET_REVEAL_AUTH), 50);
        assert!((report.auth_rate - 1.0).abs() < f64::EPSILON);
        assert_eq!(report.metrics.get(keys::NET_DECODE_ERRORS), 0);
        assert_eq!(report.metrics.get(keys::NET_INGRESS_DROPPED), 0);
    }

    #[test]
    fn flooded_run_tracks_one_minus_p_to_m() {
        let spec = FleetSpec {
            intervals: 400,
            buffers: 3,
            flood: 0.8,
            copies: 2,
            ..FleetSpec::untagged()
        };
        let report = run_fleet(&spec);
        // Every reveal still weak-authenticates; only eviction hurts.
        assert_eq!(report.metrics.get(keys::NET_REVEAL_WEAK_REJECTED), 0);
        assert_eq!(
            report.metrics.get(keys::NET_REVEAL_AUTH)
                + report.metrics.get(keys::NET_REVEAL_STRONG_REJECTED)
                + report.metrics.get(keys::NET_REVEAL_NO_CANDIDATE),
            report.metrics.get(keys::NET_REVEAL_TOTAL)
        );
        // 1 − 0.8³ = 0.488; seeded run, wide tolerance for the finite-n
        // hypergeometric correction.
        assert!(
            (report.auth_rate - report.expected_rate).abs() < 0.1,
            "rate {} expected {}",
            report.auth_rate,
            report.expected_rate
        );
    }

    #[test]
    fn lossy_wire_still_balances_counters() {
        let spec = FleetSpec {
            intervals: 120,
            loss: 0.2,
            flood: 0.5,
            copies: 2,
            ..FleetSpec::untagged()
        };
        let report = run_fleet(&spec);
        let m = &report.metrics;
        assert_eq!(
            m.get(keys::NET_WIRE_SENT),
            m.get(keys::NET_WIRE_LOST) + report.frames
        );
        // Reveals can be lost, so fewer than `intervals` arrive — but
        // every one that does is accounted for.
        assert!(m.get(keys::NET_REVEAL_TOTAL) <= 120);
        assert_eq!(
            m.get(keys::NET_REVEAL_AUTH)
                + m.get(keys::NET_REVEAL_STRONG_REJECTED)
                + m.get(keys::NET_REVEAL_NO_CANDIDATE)
                + m.get(keys::NET_REVEAL_WEAK_REJECTED),
            m.get(keys::NET_REVEAL_TOTAL)
        );
    }

    #[test]
    fn corruption_surfaces_as_decode_or_auth_failures() {
        let spec = FleetSpec {
            intervals: 80,
            flood: 0.0,
            copies: 1,
            corrupt: 0.3,
            ..FleetSpec::untagged()
        };
        let report = run_fleet(&spec);
        let corrupted = report.metrics.get(keys::NET_WIRE_CORRUPTED);
        assert!(corrupted > 0, "corruption never sampled");
        // A flipped bit can land anywhere (tag, index, MAC, key,
        // message): decode errors, weak rejects, strong rejects and
        // missing candidates are all legitimate fates — what must hold
        // is that not everything authenticates.
        assert!(report.metrics.get(keys::NET_REVEAL_AUTH) < 80);
    }

    #[test]
    fn dap_and_one_sender_fleet_shards_map_verdicts_identically() {
        use dap_crypto::{Key, Mac80};
        // One seeded stream per (m, forged copies per interval): four
        // genuine copies among the forgeries, plus a wrong-key reveal,
        // a duplicate reveal and a stale announce replay every third
        // interval, so every announce and reveal outcome occurs.
        for (m, forged) in [(1usize, 0u64), (2, 4), (3, 9), (4, 36)] {
            let spec = FleetSpec {
                senders: 1,
                intervals: 30,
                buffers: m,
                ..FleetSpec::default()
            };
            let chain_len = usize::try_from(spec.intervals).unwrap() + 2;
            let params = fleet_params(m);
            let directory = fleet_directory(spec.seed, 1, chain_len, params);
            let mut dap = DapShard::new(directory[0], b"parity");
            let mut fleet = FleetShard::with_directory(&spec, 0, Arc::clone(&directory));
            let chain = fleet_chains(spec.seed, 1, chain_len).remove(0);
            let mut sender = DapSender::with_chain(chain, params);
            let mut stream = SimRng::new(forged);
            let (mut dap_rng, mut fleet_rng) = (SimRng::new(7), SimRng::new(7));
            let (mut dap_registry, mut fleet_registry) = (Registry::new(), Registry::new());
            let (dap_live, fleet_live) = (LiveCounters::default(), LiveCounters::default());
            let mut last_announce = None;
            let mut outcomes = BTreeSet::new();
            for i in 1..=spec.intervals + 1 {
                let mut frames = Vec::new();
                let odd = i % 3 == 0;
                if let Some(reveal) = (i > 1).then(|| sender.reveal(i - 1)).flatten() {
                    if odd {
                        let wrong = Key::from_slice(&[0x5a; Key::LEN]).unwrap();
                        frames.push(DapMessage::Reveal(Reveal {
                            key: wrong,
                            ..reveal.clone()
                        }));
                    }
                    frames.push(DapMessage::Reveal(reveal.clone()));
                    if odd {
                        frames.push(DapMessage::Reveal(reveal));
                    }
                }
                if let Some(stale) = last_announce.take().filter(|_| odd) {
                    frames.push(stale);
                }
                if i <= spec.intervals {
                    let genuine = DapMessage::Announce(sender.announce(i, b"parity").unwrap());
                    let (mut genuine_left, mut slots_left) = (4u64, 4 + forged);
                    while slots_left > 0 {
                        if genuine_left > 0 && stream.below(slots_left) < genuine_left {
                            frames.push(genuine.clone());
                            genuine_left -= 1;
                        } else {
                            let mut mac = [0u8; Mac80::LEN];
                            stream.fill_bytes(&mut mac);
                            frames.push(DapMessage::Announce(dap_core::Announce {
                                index: i,
                                mac: Mac80::from_slice(&mac).unwrap(),
                            }));
                        }
                        slots_left -= 1;
                    }
                    last_announce = Some(genuine);
                }
                let at = SimTime((i - 1) * 100 + 10);
                for frame in &frames {
                    let expected = dap.on_frame(
                        SenderId::UNTAGGED,
                        frame,
                        at,
                        &mut dap_rng,
                        &mut dap_registry,
                        &dap_live,
                    );
                    let verdict = fleet.on_frame(
                        SenderId(1),
                        frame,
                        at,
                        &mut fleet_rng,
                        &mut fleet_registry,
                        &fleet_live,
                    );
                    assert_eq!(
                        verdict, expected,
                        "m = {m}, forged = {forged}, interval {i}"
                    );
                    outcomes.insert(expected.outcome);
                }
            }
            for outcome in &outcomes {
                assert!(
                    dap_obs::OUTCOMES.contains(outcome),
                    "{outcome} is not in the trace parser's vocabulary"
                );
            }
            let protocol_counters = |registry: &Registry| -> Vec<(&'static str, u64)> {
                registry
                    .counters()
                    .iter()
                    .filter(|(key, _)| {
                        key.starts_with("net.announce.") || key.starts_with("net.reveal.")
                    })
                    .collect()
            };
            assert_eq!(
                protocol_counters(&fleet_registry),
                protocol_counters(&dap_registry)
            );
            assert_eq!(fleet_live.authenticated(), dap_live.authenticated());
            assert_eq!(fleet_live.buffered_decided(), dap_live.buffered_decided());
            assert_eq!(fleet_live.buffered_forged(), dap_live.buffered_forged());
            let mut expected_outcomes =
                vec!["auth", "no_candidate", "stored", "unsafe", "weak_rejected"];
            if forged > 0 {
                expected_outcomes.extend(["sampled_out", "strong_rejected"]);
            }
            for outcome in expected_outcomes {
                assert!(
                    outcomes.contains(outcome),
                    "m = {m}, forged = {forged}: no {outcome}"
                );
            }
        }
    }

    #[test]
    fn same_seed_fleets_render_identically() {
        let spec = FleetSpec {
            senders: 24,
            intervals: 6,
            ..FleetSpec::default()
        };
        let a = run_fleet(&spec);
        let b = run_fleet(&spec);
        assert_eq!(a.registry.render(), b.registry.render());
        assert_eq!(a.frames, b.frames);
        assert!(a.frames > 0);
    }

    #[test]
    fn clean_fleet_authenticates_every_sender() {
        let spec = FleetSpec {
            senders: 16,
            intervals: 5,
            flood: 0.0,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        assert_eq!(report.metrics.get(keys::NET_REVEAL_TOTAL), 16 * 5);
        assert_eq!(report.metrics.get(keys::NET_REVEAL_AUTH), 16 * 5);
        assert_eq!(report.metrics.get(keys::NET_SESSION_ADMITTED), 16);
        assert_eq!(report.metrics.get(keys::NET_SESSION_EVICTED), 0);
        assert_eq!(report.min_sender_auth_permille, Some(1000));
    }

    #[test]
    fn flooded_fleet_tracks_one_minus_p_to_m_per_sender() {
        let spec = FleetSpec {
            senders: 48,
            intervals: 8,
            flood: 0.8,
            buffers: 4,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        // 1 − 0.8⁴ ≈ 0.59; aggregate-over-senders tightens the variance
        // versus a single sender's 8 intervals.
        assert!(
            (report.auth_rate - report.expected_rate).abs() < 0.08,
            "rate {} expected {}",
            report.auth_rate,
            report.expected_rate
        );
        // No forged announce may ever authenticate as any sender.
        assert_eq!(report.metrics.get(keys::NET_REVEAL_WEAK_REJECTED), 0);
        assert_eq!(
            report.metrics.get(keys::NET_REVEAL_AUTH)
                + report.metrics.get(keys::NET_REVEAL_STRONG_REJECTED),
            report.metrics.get(keys::NET_REVEAL_TOTAL)
        );
    }

    #[test]
    fn windowed_fleet_prefetch_matches_the_unwindowed_path() {
        // Clean fleet: every sender's outcome history is identical, so
        // every flush sees one priority class and the windowed drain
        // order degenerates to arrival order — the only difference
        // between the two runs is the batch prefetch pipeline, which
        // must therefore be registry-invisible.
        let spec = |drain_budget: usize| FleetSpec {
            senders: 16,
            intervals: 5,
            flood: 0.0,
            drain_budget,
            ..FleetSpec::default()
        };
        let windowed = run_fleet(&spec(1 << 20));
        let scalar = run_fleet(&spec(usize::MAX));
        assert_eq!(windowed.registry.render(), scalar.registry.render());
        assert_eq!(windowed.metrics.get(keys::NET_REVEAL_AUTH), 16 * 5);
        assert_eq!(windowed.shed_frames, 0);
        assert_eq!(windowed.min_sender_auth_permille, Some(1000));
    }

    #[test]
    fn tight_budget_evicts_but_stays_bounded() {
        let probe = dap_core::DapReceiver::new(
            fleet_bootstrap(9, 64, 10, fleet_params(4), SenderId(1)).unwrap(),
            b"probe",
        );
        let per_session = probe.memory_capacity_bits() + crate::session::SESSION_OVERHEAD_BITS;
        let spec = FleetSpec {
            seed: 9,
            senders: 64,
            intervals: 4,
            shards: 2,
            // Room for ~6 of ~32 sessions per shard.
            memory_budget_bits: 6 * per_session,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        assert!(report.metrics.get(keys::NET_SESSION_EVICTED) > 0);
        let occupancy = report
            .registry
            .get_gauge(keys::NET_SESSION_OCCUPANCY)
            .expect("occupancy gauge");
        assert!(occupancy.max().unwrap_or(0) <= 6);
        let memory = report
            .registry
            .get_gauge(keys::NET_SESSION_MEMORY_BITS)
            .expect("memory gauge");
        assert!(memory.max().unwrap_or(0) <= spec.memory_budget_bits);
    }

    #[test]
    fn burst_adversary_sheds_low_priority_but_pinned_floor_holds() {
        let spec = FleetSpec {
            senders: 32,
            intervals: 8,
            flood: 0.9,
            pins: (1..=4).collect(),
            adversary: AdversaryClass::BurstReanchor,
            drain_budget: 96,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        // The burst saturates the re-anchor windows far past the budget…
        assert!(report.shed_frames > 0, "burst must exceed the budget");
        assert!(report.shed_fraction > 0.0);
        // …but pinned senders ride the priority drain untouched: no
        // forged traffic targets them and their frames verify first.
        assert_eq!(report.min_pinned_auth_permille, Some(1000));
        assert_eq!(report.metrics.get(keys::NET_SHED_PINNED), 0);
        // Shed attribution balances exactly.
        assert_eq!(
            report.metrics.get(keys::NET_SHED_TOTAL),
            report.metrics.get(keys::NET_SHED_PINNED)
                + report.metrics.get(keys::NET_SHED_HIGH)
                + report.metrics.get(keys::NET_SHED_LOW)
        );
        // Forged announces still never authenticate as anyone.
        assert_eq!(report.metrics.get(keys::NET_REVEAL_WEAK_REJECTED), 0);
    }

    #[test]
    fn replay_edge_burns_budget_without_diluting_auth_rates() {
        let spec = FleetSpec {
            senders: 16,
            intervals: 6,
            flood: 0.75,
            adversary: AdversaryClass::ReplayEdge,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        // Replays arrived (duplicate reveals and stale announces)…
        assert!(
            report.metrics.get(keys::NET_REVEAL_NO_CANDIDATE)
                + report.metrics.get(keys::NET_ANNOUNCE_UNSAFE)
                > 0,
            "replayed frames must hit the safe-packet/duplicate paths"
        );
        // …but every sender's measured rate counts only genuine
        // attempts, so the fleet still reads fully authenticated.
        assert_eq!(report.min_sender_auth_permille, Some(1000));
        assert_eq!(report.metrics.get(keys::NET_REVEAL_WEAK_REJECTED), 0);
    }

    #[test]
    fn same_seed_campaigns_render_identically_under_every_adversary() {
        for class in AdversaryClass::ALL {
            let spec = FleetSpec {
                senders: 12,
                intervals: 6,
                flood: 0.7,
                pins: vec![1, 2],
                adversary: class,
                drain_budget: 48,
                trace_depth: 4096,
                ..FleetSpec::default()
            };
            let a = run_fleet(&spec);
            let b = run_fleet(&spec);
            assert_eq!(
                a.registry.render(),
                b.registry.render(),
                "{} campaign must be deterministic",
                class.label()
            );
            assert_eq!(a.trace.len(), b.trace.len());
            assert_eq!(a.shed_frames, b.shed_frames);
        }
    }

    #[test]
    fn adaptive_fleet_reprovisions_every_session_toward_the_ess() {
        use dap_game::{optimal_buffer_count, DosGameParams};
        let spec = FleetSpec {
            senders: 16,
            intervals: 12,
            shards: 2,
            flood: 0.9,
            buffers: 2,
            adaptive: true,
            trace_depth: 1 << 14,
            ..FleetSpec::default()
        };
        let a = run_fleet(&spec);
        let b = run_fleet(&spec);
        // The feedback edge stays deterministic: registries and traces
        // (every PostureChange included) are identical across runs.
        assert_eq!(a.registry.render(), b.registry.render());
        assert_eq!(a.trace, b.trace);
        let directives = a.metrics.get(keys::CONTROL_DIRECTIVES);
        assert!(
            directives >= 1,
            "stationary 0.9 flood must trigger a re-size"
        );
        let changes = a
            .trace
            .iter()
            .filter(|r| r.event.name() == "posture_change")
            .count() as u64;
        assert_eq!(
            changes,
            directives * spec.shards as u64,
            "each directive re-provisions every shard exactly once"
        );
        // The live fleet lands at the offline Algorithm 3 optimum…
        let offline = optimal_buffer_count(DosGameParams::paper_defaults(0.9, 1), 50);
        let live_m = u32::try_from(a.metrics.get(keys::CONTROL_M)).unwrap();
        assert!(
            live_m.abs_diff(offline.m) <= 1,
            "live m {live_m} vs offline m* {}",
            offline.m
        );
        // …and beats the frozen bootstrap `1 − 0.9²` it started from.
        assert!(
            a.auth_rate > a.expected_rate,
            "adaptive rate {} must beat the static m = 2 prediction {}",
            a.auth_rate,
            a.expected_rate
        );
    }

    #[test]
    fn reputation_farmer_earns_standing_then_spends_it_without_authenticating() {
        use crate::adversary::FARM_INTERVALS;
        let spec = FleetSpec {
            senders: 8,
            intervals: 10,
            shards: 2,
            pins: vec![1],
            adversary: AdversaryClass::ReputationFarming,
            ..FleetSpec::default()
        };
        let report = run_fleet(&spec);
        // Ids 2..=8 are unpinned; every second one ([2, 4, 6, 8]) is
        // farmed: honest through the farm window, then silent except
        // for spoofed floods. Farmed senders reveal only during the
        // farm (the reveal covering interval j lands at j + 1, so the
        // last one they send covers FARM_INTERVALS − 1).
        let farmed = 4;
        let unfarmed = spec.senders - farmed;
        assert_eq!(
            report.metrics.get(keys::NET_REVEAL_TOTAL),
            unfarmed * spec.intervals + farmed * (FARM_INTERVALS - 1)
        );
        // The farm phase is clean and the turn withholds reveals, so
        // every genuine attempt authenticates — the farmed standing is
        // real, which is exactly what makes the turn dangerous.
        assert_eq!(report.min_sender_auth_permille, Some(1000));
        // The post-turn flood competed for the farmed sessions'
        // buffers…
        assert!(
            report.metrics.get(keys::NET_ANNOUNCE_SAMPLED_OUT) > 0,
            "the turn's spoof flood must pressure the reservoirs"
        );
        // …but TESLA still never authenticates a forgery, whatever
        // priority class the farmer earned.
        assert_eq!(report.metrics.get(keys::NET_REVEAL_WEAK_REJECTED), 0);
    }

    #[test]
    fn per_sender_anchors_advance_independently() {
        // Sender 1 is active in intervals 1..=3; sender 2 first speaks
        // at 3, so its session must recover the 3-step gap on its own
        // chain.
        let spec = FleetSpec {
            senders: 2,
            intervals: 4,
            flood: 0.0,
            ..FleetSpec::default()
        };
        let chain_len = spec.intervals as usize + 2;
        let mut senders: Vec<DapSender> = (1..=2)
            .map(|id| {
                let seed = fleet_chain_seed(spec.seed, SenderId(id));
                DapSender::new(&seed, chain_len, fleet_params(spec.buffers))
            })
            .collect();
        let mut shard = FleetShard::new(&spec, 0);
        let (mut rng, mut registry) = (SimRng::new(3), Registry::new());
        let live = LiveCounters::default();
        let mut deliver = |id: u64, frame: DapMessage, at: u64| {
            shard
                .on_frame(
                    SenderId(id),
                    &frame,
                    SimTime(at),
                    &mut rng,
                    &mut registry,
                    &live,
                )
                .outcome
        };
        for i in 1..=3u64 {
            let announce = senders[0].announce(i, b"a").unwrap();
            deliver(1, DapMessage::Announce(announce), (i - 1) * 100 + 10);
            let reveal = senders[0].reveal(i).unwrap();
            assert_eq!(deliver(1, DapMessage::Reveal(reveal), i * 100 + 10), "auth");
        }
        let announce = senders[1].announce(3, b"b late start").unwrap();
        deliver(2, DapMessage::Announce(announce), 210);
        let reveal = senders[1].reveal(3).unwrap();
        assert_eq!(deliver(2, DapMessage::Reveal(reveal), 310), "auth");
    }

    #[test]
    fn unknown_sender_ids_are_refused_without_budget() {
        let spec = FleetSpec {
            senders: 4,
            intervals: 3,
            flood: 0.0,
            ..FleetSpec::default()
        };
        // A run plus hand-injected frames claiming an unprovisioned id:
        // run the campaign first, then check the counter stayed zero.
        let report = run_fleet(&spec);
        assert_eq!(report.metrics.get(keys::NET_SESSION_UNKNOWN), 0);
        // Direct verifier check for the unknown path.
        let mut shard = FleetShard::new(&spec, 0);
        let mut registry = Registry::new();
        let mut rng = SimRng::new(1);
        let live = LiveCounters::default();
        let verdict = shard.on_frame(
            SenderId(999),
            &DapMessage::Announce(dap_core::Announce {
                index: 1,
                mac: dap_crypto::Mac80::from_slice(&[7; 10]).unwrap(),
            }),
            SimTime(10),
            &mut rng,
            &mut registry,
            &live,
        );
        assert_eq!(verdict.outcome, "unknown_sender");
        assert_eq!(registry.counters().get(keys::NET_SESSION_UNKNOWN), 1);
        assert_eq!(shard.table().occupancy(), 0);
    }
}
