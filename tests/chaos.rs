//! Chaos suite: every protocol in the workspace against 32 seeded fault
//! plans layering blackouts, bit corruption, duplication, reorder
//! spikes, sender crashes and clock drift on the simulated medium.
//!
//! Three invariants hold for every protocol × plan:
//!
//! 1. **Soundness** — nothing forged or corrupted ever authenticates:
//!    every authenticated message is byte-identical to what the genuine
//!    sender constructed for that interval.
//! 2. **Recovery** — all fault windows close by 65 % of the run, and
//!    once they do the receiver re-anchors and authenticates through to
//!    the end of the chain (up to the protocol's structural tail lag).
//! 3. **Determinism** — the same seed replays to a bit-identical
//!    fingerprint (authenticated transcript + every metric counter).
//!
//! Failures print the offending seed; rerun a single case by fixing
//! `SEEDS` to that value.
//!
//! A second section drives the DESIGN §11 adversary suite: every
//! adversary class against the prioritized fleet posture (pins + finite
//! drain budget), asserting soundness, the pinned-sender survival floor,
//! exact shed attribution and same-seed determinism.

use crowdsense_dap::crypto::{Key, Mac80};
use crowdsense_dap::dap::codec::{decode, encode};
use crowdsense_dap::dap::sim::{DapReceiverNode, DapSenderNode};
use crowdsense_dap::dap::{DapMessage, DapParams, DapSender};
use crowdsense_dap::net::adversary::AdversaryClass;
use crowdsense_dap::net::fleet::{run_fleet, FleetReport, FleetSpec};
use crowdsense_dap::simnet::keys;
use crowdsense_dap::simnet::{
    ChannelModel, DriftSchedule, FaultPlan, FaultWindow, Network, NodeId, SimDuration, SimRng,
    SimTime,
};
use crowdsense_dap::tesla::edrp::{EdrpReceiver, EdrpSender};
use crowdsense_dap::tesla::multilevel::{
    Linkage, MultiLevelParams, MultiLevelReceiver, MultiLevelSender,
};
use crowdsense_dap::tesla::mutesla::{MuTeslaMessage, MuTeslaSender};
use crowdsense_dap::tesla::sim::{TeslaNet, TeslaReceiverNode, TeslaSenderNode};
use crowdsense_dap::tesla::sim_ml::{EdrpReceiverNode, MlNet, MlReceiverNode, MlSenderNode};
use crowdsense_dap::tesla::sim_mu::{
    MuTeslaReceiverNode, MuTeslaSenderNode, TeslaPpReceiverNode, TeslaPpSenderNode,
};
use crowdsense_dap::tesla::tesla::TeslaSender;
use crowdsense_dap::tesla::teslapp::{TeslaPpMessage, TeslaPpSender};
use crowdsense_dap::tesla::TeslaParams;

/// Seeded fault plans per protocol.
const SEEDS: u64 = 32;

/// Sender and receiver node ids (every topology below adds the sender
/// first, the receiver second).
const SENDER: NodeId = NodeId(0);
const RECEIVER: NodeId = NodeId(1);

/// Everything observable about one run: the authenticated transcript
/// (primary index, secondary index, message) and every metric counter.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    auth: Vec<(u64, u64, Vec<u8>)>,
    /// [`Metrics::render`] snapshot: sorted, byte-identical iff the
    /// counter sets are equal — the same fingerprint `dapd` prints and
    /// the ci.sh soak gate diffs.
    metrics: String,
}

fn snapshot_metrics<M: Clone + 'static>(net: &Network<M>) -> String {
    net.metrics().render()
}

fn total_fault_events<M: Clone + 'static>(net: &Network<M>) -> u64 {
    net.metrics()
        .iter()
        .filter(|(k, _)| k.starts_with("fault."))
        .map(|(_, v)| v)
        .sum()
}

/// Builds the fault plan for one seed. All windows close by 65 % of
/// `horizon_ticks` so the recovery invariant has a clean tail to land
/// in; which faults are active and how hard they hit varies per seed.
fn chaos_plan(seed: u64, horizon_ticks: u64) -> FaultPlan {
    let at = |pct: u64| SimTime(horizon_ticks * pct / 100);
    let mut r = SimRng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    // A blackout somewhere in [15 %, 45 %), always on.
    let from = 15 + r.below(15);
    let len = 5 + r.below(10);
    let mut plan = FaultPlan::new(seed).blackout(FaultWindow::new(at(from), at(from + len)));
    if r.chance(0.8) {
        plan = plan.corrupt(FaultWindow::new(at(35), at(50)), 0.3 + 0.6 * r.unit());
    }
    if r.chance(0.6) {
        plan = plan.duplicate(FaultWindow::new(at(10), at(60)), 0.2 + 0.5 * r.unit());
    }
    if r.chance(0.6) {
        // Spikes at most half an interval long: late frames, not lost ones.
        plan = plan.reorder(
            FaultWindow::new(at(10), at(60)),
            0.2 + 0.5 * r.unit(),
            SimDuration(1 + r.below(40)),
        );
    }
    if r.chance(0.5) {
        plan = plan.crash(SENDER, FaultWindow::new(at(50), at(50 + 2 + r.below(9))));
    }
    if r.chance(0.5) {
        // Receiver clock wanders mid-run and settles back before the tail.
        let shift = r.below(20) as i64 - 10;
        plan = plan.drift(
            RECEIVER,
            DriftSchedule::new().step(at(40), shift).step(at(60), 0),
        );
    }
    plan
}

fn flip_bit(bytes: &mut [u8], rng: &mut SimRng) {
    let i = rng.below(bytes.len() as u64) as usize;
    bytes[i] ^= 1 << rng.below(8);
}

fn flip_key(key: &Key, rng: &mut SimRng) -> Key {
    let mut b: [u8; Key::LEN] = key.as_bytes().try_into().expect("fixed length");
    flip_bit(&mut b, rng);
    Key::from_slice(&b).expect("fixed length")
}

fn flip_mac(mac: &Mac80, rng: &mut SimRng) -> Mac80 {
    let mut b: [u8; Mac80::LEN] = mac.as_bytes().try_into().expect("fixed length");
    flip_bit(&mut b, rng);
    Mac80::from_slice(&b).expect("fixed length")
}

fn flip_message(message: &mut Vec<u8>, rng: &mut SimRng) {
    if message.is_empty() {
        message.push(0xff);
    } else {
        flip_bit(message, rng);
    }
}

// ----------------------------------------------------------------- DAP --

/// One DAP run under `chaos_plan(seed, ..)`; checks soundness and
/// recovery, returns the fingerprint for the determinism check.
fn run_dap(seed: u64) -> Fingerprint {
    let intervals = 40u64;
    let params = DapParams::default().with_buffers(4);
    let horizon_ticks = intervals * params.interval.ticks();
    let sender = DapSender::new(b"chaos-dap", intervals as usize, params);
    let bootstrap = sender.bootstrap();

    let mut net: Network<DapMessage> = Network::new(seed);
    net.add_node(
        DapSenderNode::new(sender, 1, b"chaos".to_vec()),
        ChannelModel::perfect(),
    );
    let rx = net.add_node(
        DapReceiverNode::new(bootstrap, b"chaos-rx"),
        ChannelModel::perfect().with_delay(SimDuration(1)),
    );
    net.set_fault_plan(chaos_plan(seed, horizon_ticks));
    // Corruption goes through the real wire format: encode, flip one
    // bit, decode. Frames that no longer parse are dropped by the link
    // layer, exactly as a checksumming radio would.
    net.set_corruptor(|m: &DapMessage, rng| {
        let mut bytes = encode(m).ok()?;
        flip_bit(&mut bytes, rng);
        decode(&bytes).ok()
    });
    net.run_until(SimTime(horizon_ticks + 3 * params.interval.ticks()));

    let node = net.node_as::<DapReceiverNode>(rx).expect("receiver node");
    let auth: Vec<(u64, u64, Vec<u8>)> = node
        .authenticated()
        .iter()
        .map(|(i, m)| (*i, 0, m.clone()))
        .collect();
    // Soundness: only the genuine per-interval message authenticates.
    for (i, _, msg) in &auth {
        let mut expected = b"chaos".to_vec();
        expected.extend_from_slice(&i.to_be_bytes());
        assert_eq!(
            msg, &expected,
            "seed {seed}: forged DAP message authenticated"
        );
    }
    // Recovery: the clean tail re-authenticates to the end of the chain.
    let last = auth.iter().map(|(i, _, _)| *i).max().unwrap_or(0);
    assert!(
        last >= intervals - 1,
        "seed {seed}: DAP stuck at interval {last}/{intervals} after faults cleared"
    );
    let metrics = snapshot_metrics(&net);
    assert!(
        total_fault_events(&net) > 0,
        "seed {seed}: plan injected nothing"
    );
    Fingerprint { auth, metrics }
}

// --------------------------------------------------------------- TESLA --

fn run_tesla(seed: u64) -> Fingerprint {
    let horizon = 40u64;
    let params = TeslaParams::new(SimDuration(100), 1, 0);
    let horizon_ticks = horizon * 100;
    let sender = TeslaSender::new(b"chaos-tesla", horizon as usize, params);
    let bootstrap = sender.bootstrap();

    let mut net: Network<TeslaNet> = Network::new(seed);
    net.add_node(
        TeslaSenderNode::new(sender, 1, b"chaos".to_vec()),
        ChannelModel::perfect(),
    );
    let rx = net.add_node(
        TeslaReceiverNode::new(bootstrap),
        ChannelModel::perfect().with_delay(SimDuration(1)),
    );
    net.set_fault_plan(chaos_plan(seed, horizon_ticks));
    net.set_corruptor(|m: &TeslaNet, rng| {
        let TeslaNet::Packet(p) = m;
        let mut p = p.clone();
        match rng.below(3) {
            0 => p.mac = flip_mac(&p.mac, rng),
            1 => flip_message(&mut p.message, rng),
            _ => match &mut p.disclosed {
                Some(d) => d.key = flip_key(&d.key, rng),
                None => p.mac = flip_mac(&p.mac, rng),
            },
        }
        Some(TeslaNet::Packet(p))
    });
    net.run_until(SimTime(horizon_ticks + 300));

    let node = net.node_as::<TeslaReceiverNode>(rx).expect("receiver node");
    let auth: Vec<(u64, u64, Vec<u8>)> = node
        .receiver()
        .authenticated()
        .iter()
        .map(|(i, m)| (*i, 0, m.clone()))
        .collect();
    for (i, _, msg) in &auth {
        let mut expected = b"chaos".to_vec();
        expected.extend_from_slice(&i.to_be_bytes());
        expected.push(0);
        assert_eq!(
            msg, &expected,
            "seed {seed}: forged TESLA message authenticated"
        );
    }
    // The last d intervals' keys ride in packets that are never sent.
    let last = auth.iter().map(|(i, _, _)| *i).max().unwrap_or(0);
    assert!(
        last >= horizon - params.disclosure_delay - 1,
        "seed {seed}: TESLA stuck at interval {last}/{horizon} after faults cleared"
    );
    let metrics = snapshot_metrics(&net);
    assert!(
        total_fault_events(&net) > 0,
        "seed {seed}: plan injected nothing"
    );
    Fingerprint { auth, metrics }
}

// -------------------------------------------------------------- μTESLA --

fn run_mutesla(seed: u64) -> Fingerprint {
    let horizon = 40u64;
    let params = TeslaParams::new(SimDuration(100), 1, 0);
    let horizon_ticks = horizon * 100;
    let sender = MuTeslaSender::new(b"chaos-mu", (horizon + 4) as usize, params);
    let bootstrap = sender.bootstrap();

    let mut net: Network<MuTeslaMessage> = Network::new(seed);
    net.add_node(
        MuTeslaSenderNode::new(sender, horizon, 1, b"chaos".to_vec()),
        ChannelModel::perfect(),
    );
    let rx = net.add_node(
        MuTeslaReceiverNode::new(bootstrap),
        ChannelModel::perfect().with_delay(SimDuration(1)),
    );
    net.set_fault_plan(chaos_plan(seed, horizon_ticks));
    net.set_corruptor(|m: &MuTeslaMessage, rng| {
        Some(match m {
            MuTeslaMessage::Data(p) => {
                let mut p = p.clone();
                if rng.chance(0.5) {
                    p.mac = flip_mac(&p.mac, rng);
                } else {
                    flip_message(&mut p.message, rng);
                }
                MuTeslaMessage::Data(p)
            }
            MuTeslaMessage::KeyDisclosure { index, key } => MuTeslaMessage::KeyDisclosure {
                index: *index,
                key: flip_key(key, rng),
            },
        })
    });
    net.run_until(SimTime(horizon_ticks + 500));

    let node = net
        .node_as::<MuTeslaReceiverNode>(rx)
        .expect("receiver node");
    let auth: Vec<(u64, u64, Vec<u8>)> = node
        .receiver()
        .authenticated()
        .iter()
        .map(|(i, m)| (*i, 0, m.clone()))
        .collect();
    for (i, _, msg) in &auth {
        let mut expected = b"chaos".to_vec();
        expected.extend_from_slice(&i.to_be_bytes());
        expected.push(0);
        assert_eq!(
            msg, &expected,
            "seed {seed}: forged μTESLA message authenticated"
        );
    }
    let last = auth.iter().map(|(i, _, _)| *i).max().unwrap_or(0);
    assert!(
        last >= horizon - 1,
        "seed {seed}: μTESLA stuck at interval {last}/{horizon} after faults cleared"
    );
    let metrics = snapshot_metrics(&net);
    assert!(
        total_fault_events(&net) > 0,
        "seed {seed}: plan injected nothing"
    );
    Fingerprint { auth, metrics }
}

// ------------------------------------------------------------- TESLA++ --

fn run_teslapp(seed: u64) -> Fingerprint {
    let horizon = 40u64;
    let params = TeslaParams::new(SimDuration(100), 1, 0);
    let horizon_ticks = horizon * 100;
    let sender = TeslaPpSender::new(b"chaos-pp", (horizon + 2) as usize, params);
    let bootstrap = sender.bootstrap();

    let mut net: Network<TeslaPpMessage> = Network::new(seed);
    net.add_node(
        TeslaPpSenderNode::new(sender, horizon, b"chaos".to_vec()),
        ChannelModel::perfect(),
    );
    let rx = net.add_node(
        TeslaPpReceiverNode::new(bootstrap, b"chaos-rx"),
        ChannelModel::perfect().with_delay(SimDuration(1)),
    );
    net.set_fault_plan(chaos_plan(seed, horizon_ticks));
    net.set_corruptor(|m: &TeslaPpMessage, rng| {
        Some(match m {
            TeslaPpMessage::MacAnnounce { index, mac } => TeslaPpMessage::MacAnnounce {
                index: *index,
                mac: flip_mac(mac, rng),
            },
            TeslaPpMessage::Reveal {
                index,
                message,
                key,
            } => {
                let mut message = message.clone();
                let mut key = *key;
                if rng.chance(0.5) {
                    key = flip_key(&key, rng);
                } else {
                    flip_message(&mut message, rng);
                }
                TeslaPpMessage::Reveal {
                    index: *index,
                    message,
                    key,
                }
            }
        })
    });
    net.run_until(SimTime(horizon_ticks + 300));

    let node = net
        .node_as::<TeslaPpReceiverNode>(rx)
        .expect("receiver node");
    let auth: Vec<(u64, u64, Vec<u8>)> = node
        .receiver()
        .authenticated()
        .iter()
        .map(|(i, m)| (*i, 0, m.clone()))
        .collect();
    for (i, _, msg) in &auth {
        let mut expected = b"chaos".to_vec();
        expected.extend_from_slice(&i.to_be_bytes());
        assert_eq!(
            msg, &expected,
            "seed {seed}: forged TESLA++ message authenticated"
        );
    }
    let last = auth.iter().map(|(i, _, _)| *i).max().unwrap_or(0);
    assert!(
        last >= horizon - 1,
        "seed {seed}: TESLA++ stuck at interval {last}/{horizon} after faults cleared"
    );
    let metrics = snapshot_metrics(&net);
    assert!(
        total_fault_events(&net) > 0,
        "seed {seed}: plan injected nothing"
    );
    Fingerprint { auth, metrics }
}

// ------------------------------------------- multi-level / EFTP / EDRP --

fn ml_params(linkage: Linkage) -> MultiLevelParams {
    MultiLevelParams::new(SimDuration(25), 4, 16, 3, linkage)
}

fn ml_corruptor(m: &MlNet, rng: &mut SimRng) -> Option<MlNet> {
    Some(match m {
        MlNet::Cdm(c) => {
            let mut c = c.clone();
            match rng.below(3) {
                0 => c.mac = flip_mac(&c.mac, rng),
                1 => c.low_commitment = flip_key(&c.low_commitment, rng),
                _ => match &mut c.disclosed_high {
                    Some((_, key)) => *key = flip_key(key, rng),
                    None => c.mac = flip_mac(&c.mac, rng),
                },
            }
            MlNet::Cdm(c)
        }
        MlNet::EdrpCdm(c) => {
            let mut c = c.clone();
            match rng.below(3) {
                0 => c.mac = flip_mac(&c.mac, rng),
                1 => c.low_commitment = flip_key(&c.low_commitment, rng),
                _ => c.next_hash = flip_key(&c.next_hash, rng),
            }
            MlNet::EdrpCdm(c)
        }
        MlNet::Low(p) => {
            let mut p = p.clone();
            if rng.chance(0.5) {
                p.mac = flip_mac(&p.mac, rng);
            } else {
                flip_message(&mut p.message, rng);
            }
            MlNet::Low(p)
        }
        MlNet::LowKey(d) => {
            let mut d = *d;
            d.key = flip_key(&d.key, rng);
            MlNet::LowKey(d)
        }
    })
}

/// Shared body for multi-level μTESLA (both linkages) and EDRP; the
/// `edrp` flag selects CDM flavour and receiver.
fn run_two_level(seed: u64, linkage: Linkage, edrp: bool, label: &str) -> Fingerprint {
    let params = ml_params(linkage);
    let high_horizon = params.high_chain_len as u64;
    let total_low = high_horizon * u64::from(params.low_per_high);
    let horizon_ticks = total_low * params.low_interval.ticks();

    let mut net: Network<MlNet> = Network::new(seed);
    let rx = if edrp {
        let sender = EdrpSender::new(b"chaos-2l", params);
        let bootstrap = sender.bootstrap();
        net.add_node(
            MlSenderNode::edrp(sender, 2, b"chaos".to_vec()),
            ChannelModel::perfect(),
        );
        net.add_node(
            EdrpReceiverNode::new(EdrpReceiver::new(bootstrap)),
            ChannelModel::perfect().with_delay(SimDuration(1)),
        )
    } else {
        let sender = MultiLevelSender::new(b"chaos-2l", params);
        let bootstrap = sender.bootstrap();
        net.add_node(
            MlSenderNode::multilevel(sender, 2, b"chaos".to_vec()),
            ChannelModel::perfect(),
        );
        net.add_node(
            MlReceiverNode::new(MultiLevelReceiver::new(bootstrap)),
            ChannelModel::perfect().with_delay(SimDuration(1)),
        )
    };
    net.set_fault_plan(chaos_plan(seed, horizon_ticks));
    net.set_corruptor(ml_corruptor);
    net.run_until(SimTime(horizon_ticks + 200));

    let auth: Vec<(u64, u64, Vec<u8>)> = if edrp {
        net.node_as::<EdrpReceiverNode>(rx)
            .expect("receiver node")
            .receiver()
            .inner()
            .authenticated()
            .iter()
            .map(|(h, l, m)| (*h, u64::from(*l), m.clone()))
            .collect()
    } else {
        net.node_as::<MlReceiverNode>(rx)
            .expect("receiver node")
            .receiver()
            .authenticated()
            .iter()
            .map(|(h, l, m)| (*h, u64::from(*l), m.clone()))
            .collect()
    };
    for (high, low, msg) in &auth {
        let mut expected = b"chaos".to_vec();
        expected.extend_from_slice(&high.to_be_bytes());
        expected.push(*low as u8);
        assert_eq!(
            msg, &expected,
            "seed {seed}: forged {label} message authenticated"
        );
    }
    // The very last low interval's key is never disclosed (the sender
    // stops); everything before it must land once the faults clear.
    let last = auth
        .iter()
        .map(|(h, l, _)| params.global_low_index(*h, *l as u32))
        .max()
        .unwrap_or(0);
    assert!(
        last >= total_low - 2,
        "seed {seed}: {label} stuck at low interval {last}/{total_low} after faults cleared"
    );
    let metrics = snapshot_metrics(&net);
    assert!(
        total_fault_events(&net) > 0,
        "seed {seed}: plan injected nothing"
    );
    Fingerprint { auth, metrics }
}

// ----------------------------------------------------- adversary suite --

/// Seeded fleet campaigns against the prioritized defender posture.
const ADVERSARY_SEEDS: u64 = 4;

/// One fleet campaign: `class` at p = 0.9 against 24 senders (ids 1–4
/// operator-pinned) behind a 64-frame per-shard drain budget.
fn run_adversary_campaign(class: AdversaryClass, seed: u64) -> FleetReport {
    run_fleet(&FleetSpec {
        seed: 20_160_000 + seed,
        senders: 24,
        intervals: 8,
        flood: 0.9,
        pins: vec![1, 2, 3, 4],
        adversary: class,
        drain_budget: 64,
        ..FleetSpec::default()
    })
}

/// Every adversary class × seed, twice each. Invariants:
///
/// 1. **Soundness** — no forged, spoofed or replayed frame ever passes
///    the weak (chain-key) check, whatever the attack shape.
/// 2. **Pinned survival** — under every targeted class, pinned senders
///    keep ≥ 99 % of their clean auth rate: they are never spoofed
///    (forging a pin buys nothing observable), never shed (priority
///    drain) and never evicted. Bernoulli is the contrast row — it
///    spoofs pins indiscriminately, so the floor assertion is the
///    survival-matrix row, not this gate.
/// 3. **Attribution** — every shed frame lands in exactly one priority
///    class counter.
/// 4. **Determinism** — same seed, same registry bytes.
#[test]
fn adversary_suite_holds_the_pinned_floor() {
    for class in AdversaryClass::ALL {
        for seed in 0..ADVERSARY_SEEDS {
            let report = run_adversary_campaign(class, seed);
            let replay = run_adversary_campaign(class, seed);
            assert_eq!(
                report.registry.render(),
                replay.registry.render(),
                "{} seed {seed}: same-seed replay diverged",
                class.label()
            );
            let m = &report.metrics;
            assert_eq!(
                m.get(keys::NET_REVEAL_WEAK_REJECTED),
                0,
                "{} seed {seed}: forged key accepted",
                class.label()
            );
            assert_eq!(
                m.get(keys::NET_SHED_TOTAL),
                m.get(keys::NET_SHED_PINNED)
                    + m.get(keys::NET_SHED_HIGH)
                    + m.get(keys::NET_SHED_LOW),
                "{} seed {seed}: shed attribution does not balance",
                class.label()
            );
            if class != AdversaryClass::Bernoulli {
                let floor = report
                    .min_pinned_auth_permille
                    .expect("pinned senders revealed");
                assert!(
                    floor >= 990,
                    "{} seed {seed}: pinned floor {floor} permille below 990",
                    class.label()
                );
                assert_eq!(
                    m.get(keys::NET_SHED_PINNED),
                    0,
                    "{} seed {seed}: a pinned frame was shed",
                    class.label()
                );
            }
        }
    }
}

// --------------------------------------------------------------- tests --

/// Runs `run` across all seeds, twice each, asserting replay equality.
fn chaos_suite(run: fn(u64) -> Fingerprint) {
    for seed in 0..SEEDS {
        let first = run(seed);
        let replay = run(seed);
        assert_eq!(first, replay, "seed {seed}: same-seed replay diverged");
    }
}

#[test]
fn dap_survives_chaos() {
    chaos_suite(run_dap);
}

#[test]
fn tesla_survives_chaos() {
    chaos_suite(run_tesla);
}

#[test]
fn mutesla_survives_chaos() {
    chaos_suite(run_mutesla);
}

#[test]
fn teslapp_survives_chaos() {
    chaos_suite(run_teslapp);
}

#[test]
fn multilevel_survives_chaos() {
    chaos_suite(|seed| run_two_level(seed, Linkage::Original, false, "multi-level"));
}

#[test]
fn eftp_survives_chaos() {
    chaos_suite(|seed| run_two_level(seed, Linkage::Eftp, false, "EFTP"));
}

#[test]
fn edrp_survives_chaos() {
    chaos_suite(|seed| run_two_level(seed, Linkage::Eftp, true, "EDRP"));
}
