//! The event loop: nodes, frames, timers and the broadcast medium.
//!
//! The design is a command-buffer architecture: a node callback receives a
//! [`Context`] through which it *records* actions (broadcasts, unicasts,
//! timers); the [`Network`] applies them once the callback returns. This
//! keeps node state and network state disjoint without interior
//! mutability, and makes every run a deterministic function of the seed.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::channel::ChannelModel;
use crate::fault::FaultPlan;
use crate::metrics::{keys, Metrics};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a node within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// An opaque timer tag a node hands to [`Context::set_timer`] and receives
/// back in [`Node::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// A frame as delivered to a node: who sent it, what it carries, and how
/// large it was on the air.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<M> {
    /// Sending node.
    pub src: NodeId,
    /// The protocol message.
    pub message: M,
    /// Airtime cost in bits (drives the bandwidth metrics).
    pub size_bits: u32,
}

/// Behaviour of one node. Implemented by protocol senders, receivers and
/// attackers.
///
/// `Any` is a supertrait, so after a run experiments read a node's final
/// state back as its concrete type through [`Network::node_as`].
pub trait Node<M>: Any {
    /// Called once when the simulation starts, before any event fires.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a frame reaches this node.
    fn on_frame(&mut self, ctx: &mut Context<'_, M>, frame: &Frame<M>) {
        let _ = (ctx, frame);
    }

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerToken) {
        let _ = (ctx, timer);
    }
}

/// What a node may do during a callback.
#[derive(Debug)]
enum Action<M> {
    Broadcast {
        message: M,
        size_bits: u32,
    },
    SendTo {
        to: NodeId,
        message: M,
        size_bits: u32,
    },
    Timer {
        delay: SimDuration,
        token: TimerToken,
    },
}

/// The per-callback view a node gets of the world.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: SimTime,
    clock_offset: i64,
    rng: &'a mut SimRng,
    metrics: &'a mut Metrics,
    actions: Vec<Action<M>>,
}

impl<'a, M> Context<'a, M> {
    /// Global (true) simulation time. Protocol code should normally use
    /// [`local_time`](Self::local_time) instead — nodes do not get to see
    /// the true clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's *local* clock: global time shifted by its offset.
    /// All protocol-visible time checks must use this.
    #[must_use]
    pub fn local_time(&self) -> SimTime {
        self.now.offset_by(self.clock_offset)
    }

    /// Deterministic randomness scoped to this run.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The run-wide metric counters.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Broadcasts `message` to every other node (subject to each
    /// receiver's channel model). `size_bits` is the frame's airtime cost.
    pub fn broadcast(&mut self, message: M, size_bits: u32) {
        self.actions.push(Action::Broadcast { message, size_bits });
    }

    /// Sends `message` to a single node (still subject to its channel).
    pub fn send_to(&mut self, to: NodeId, message: M, size_bits: u32) {
        self.actions.push(Action::SendTo {
            to,
            message,
            size_bits,
        });
    }

    /// Schedules [`Node::on_timer`] for this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::Timer { delay, token });
    }
}

#[derive(Debug)]
enum Event<M> {
    Deliver { to: NodeId, frame: Frame<M> },
    Timer { node: NodeId, token: TimerToken },
}

struct Scheduled<M> {
    time: SimTime,
    seq: u64,
    event: Event<M>,
}

// Order by (time, seq) so the heap pops the earliest event and ties break
// in scheduling order — fully deterministic.
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct NodeSlot<M> {
    behavior: Option<Box<dyn Node<M>>>,
    channel: ChannelModel,
    clock_offset: i64,
    // Last scheduled drift seen for this node, so dispatch can count
    // `fault.drift_shifts` exactly once per step change.
    last_drift: i64,
}

/// How an installed corruptor mangles an in-flight message: `Some` is the
/// corrupted-but-parseable replacement, `None` means the frame became
/// unparseable garbage and the link layer drops it.
type Corruptor<M> = Box<dyn FnMut(&M, &mut SimRng) -> Option<M>>;

/// The simulated network: a set of nodes on a shared broadcast medium.
pub struct Network<M> {
    nodes: Vec<NodeSlot<M>>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    now: SimTime,
    seq: u64,
    started: bool,
    rng: SimRng,
    metrics: Metrics,
    fault: Option<FaultPlan>,
    corruptor: Option<Corruptor<M>>,
}

impl<M> std::fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("fault_plan", &self.fault.is_some())
            .finish_non_exhaustive()
    }
}

impl<M: Clone + 'static> Network<M> {
    /// Creates an empty network driven by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            started: false,
            rng: SimRng::new(seed),
            metrics: Metrics::new(),
            fault: None,
            corruptor: None,
        }
    }

    /// Installs a [`FaultPlan`] layering scripted fault windows on top of
    /// the per-receiver channel models (replacing any previous plan).
    /// Every injected fault is counted under a `fault.*` metric.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Installs the corruptor that implements corruption windows: given
    /// an in-flight message and the fault RNG it returns the mangled
    /// message, or `None` when the mangled bytes no longer parse and the
    /// link layer drops the frame. Without a corruptor every corrupted
    /// frame is dropped (`fault.corrupt_dropped`).
    pub fn set_corruptor<F>(&mut self, corrupt: F)
    where
        F: FnMut(&M, &mut SimRng) -> Option<M> + 'static,
    {
        self.corruptor = Some(Box::new(corrupt));
    }

    /// Adds a node with a perfectly synchronised clock.
    pub fn add_node<N: Node<M>>(&mut self, behavior: N, channel: ChannelModel) -> NodeId {
        self.add_node_with_offset(behavior, channel, 0)
    }

    /// Adds a node whose local clock runs `clock_offset` ticks away from
    /// global time (see [`crate::clock::ClockOffsets`]).
    pub fn add_node_with_offset<N: Node<M>>(
        &mut self,
        behavior: N,
        channel: ChannelModel,
        clock_offset: i64,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot {
            behavior: Some(Box::new(behavior)),
            channel,
            clock_offset,
            last_drift: 0,
        });
        id
    }

    /// Current global time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run-wide metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Borrows a node's concrete state back, if `T` matches.
    #[must_use]
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let node: &dyn Any = self.nodes.get(id.0)?.behavior.as_deref()?;
        node.downcast_ref::<T>()
    }

    /// Mutably borrows a node's concrete state, if `T` matches.
    #[must_use]
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let node: &mut dyn Any = self.nodes.get_mut(id.0)?.behavior.as_deref_mut()?;
        node.downcast_mut::<T>()
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        self.run_until(SimTime(u64::MAX));
    }

    /// Runs until the queue drains or the next event lies after
    /// `deadline`; time stops at the last processed event.
    pub fn run_until(&mut self, deadline: SimTime) {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.dispatch(NodeId(i), None);
            }
        }
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.time > deadline {
                break;
            }
            let Reverse(scheduled) = self.queue.pop().expect("peeked");
            self.now = scheduled.time;
            match scheduled.event {
                Event::Deliver { to, frame } => self.dispatch(to, Some(DispatchKind::Frame(frame))),
                Event::Timer { node, token } => {
                    self.dispatch(node, Some(DispatchKind::Timer(token)));
                }
            }
        }
    }

    fn schedule(&mut self, at: SimTime, event: Event<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            time: at,
            seq,
            event,
        }));
    }

    fn dispatch(&mut self, id: NodeId, kind: Option<DispatchKind<M>>) {
        let drift = self
            .fault
            .as_ref()
            .map_or(0, |plan| plan.drift_at(id, self.now));
        let Some(slot) = self.nodes.get_mut(id.0) else {
            return;
        };
        if drift != slot.last_drift {
            slot.last_drift = drift;
            self.metrics.incr(keys::FAULT_DRIFT_SHIFTS);
        }
        let clock_offset = slot.clock_offset.saturating_add(drift);
        let Some(mut behavior) = slot.behavior.take() else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            clock_offset,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            actions: Vec::new(),
        };
        match kind {
            None => behavior.on_start(&mut ctx),
            Some(DispatchKind::Frame(frame)) => behavior.on_frame(&mut ctx, &frame),
            Some(DispatchKind::Timer(token)) => behavior.on_timer(&mut ctx, token),
        }
        let actions = ctx.actions;
        self.nodes[id.0].behavior = Some(behavior);
        for action in actions {
            self.apply(id, action);
        }
    }

    fn apply(&mut self, src: NodeId, action: Action<M>) {
        let now = self.now;
        // A crashed node's radio is off: its transmissions are silenced,
        // but its timers keep firing so the state machine resumes
        // mid-chain once the crash window closes.
        let silenced = self
            .fault
            .as_ref()
            .is_some_and(|plan| plan.crashed(src, now));
        match action {
            Action::Broadcast { message, size_bits } => {
                if silenced {
                    self.metrics.incr(keys::FAULT_CRASH_SILENCED);
                    return;
                }
                self.metrics.incr(keys::NET_FRAMES_BROADCAST);
                self.metrics.add(keys::NET_BITS_SENT, u64::from(size_bits));
                for i in 0..self.nodes.len() {
                    if i == src.0 {
                        continue;
                    }
                    self.deliver_one(src, NodeId(i), message.clone(), size_bits);
                }
            }
            Action::SendTo {
                to,
                message,
                size_bits,
            } => {
                if silenced {
                    self.metrics.incr(keys::FAULT_CRASH_SILENCED);
                    return;
                }
                self.metrics.incr(keys::NET_FRAMES_UNICAST);
                self.metrics.add(keys::NET_BITS_SENT, u64::from(size_bits));
                self.deliver_one(src, to, message, size_bits);
            }
            Action::Timer { delay, token } => {
                let at = self.now + delay;
                self.schedule(at, Event::Timer { node: src, token });
            }
        }
    }

    fn deliver_one(&mut self, src: NodeId, to: NodeId, message: M, size_bits: u32) {
        if to.0 >= self.nodes.len() {
            return;
        }
        let now = self.now;
        if let Some(plan) = &self.fault {
            // Blackouts gate the send instant: nothing new enters the
            // medium, but frames already in flight still land.
            if plan.blackout_at(now) {
                self.metrics.incr(keys::FAULT_BLACKOUT_DROPPED);
                return;
            }
            // A crashed receiver's radio is off.
            if plan.crashed(to, now) {
                self.metrics.incr(keys::FAULT_CRASH_DROPPED);
                return;
            }
        }
        let slot = &mut self.nodes[to.0];
        let Some(latency) = slot.channel.sample(&mut self.rng) else {
            self.metrics.incr(keys::NET_FRAMES_LOST);
            return;
        };
        let copies = if self
            .fault
            .as_mut()
            .is_some_and(|plan| plan.duplicate_frame(now))
        {
            self.metrics.incr(keys::FAULT_DUPLICATED);
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut at = now + latency;
            let mut delivered = message.clone();
            if let Some(plan) = &mut self.fault {
                if let Some(extra) = plan.reorder_extra(now) {
                    self.metrics.incr(keys::FAULT_REORDERED);
                    at += extra;
                }
                if plan.corrupt_frame(now) {
                    let mangled = self
                        .corruptor
                        .as_mut()
                        .and_then(|corrupt| corrupt(&delivered, plan.rng_mut()));
                    match mangled {
                        Some(corrupted) => {
                            self.metrics.incr(keys::FAULT_CORRUPTED);
                            delivered = corrupted;
                        }
                        None => {
                            // Unparseable garbage: the link layer drops it.
                            self.metrics.incr(keys::FAULT_CORRUPT_DROPPED);
                            continue;
                        }
                    }
                }
            }
            self.metrics.incr(keys::NET_FRAMES_DELIVERED);
            self.metrics
                .add(keys::NET_BITS_DELIVERED, u64::from(size_bits));
            self.schedule(
                at,
                Event::Deliver {
                    to,
                    frame: Frame {
                        src,
                        message: delivered,
                        size_bits,
                    },
                },
            );
        }
    }
}

enum DispatchKind<M> {
    Frame(Frame<M>),
    Timer(TimerToken),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        rounds: u32,
        pongs_seen: u32,
    }

    impl Node<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.broadcast(Msg::Ping(0), 64);
        }
        fn on_frame(&mut self, ctx: &mut Context<'_, Msg>, frame: &Frame<Msg>) {
            if let Msg::Pong(n) = frame.message {
                self.pongs_seen += 1;
                if n + 1 < self.rounds {
                    ctx.broadcast(Msg::Ping(n + 1), 64);
                }
            }
        }
    }

    struct Ponger;
    impl Node<Msg> for Ponger {
        fn on_frame(&mut self, ctx: &mut Context<'_, Msg>, frame: &Frame<Msg>) {
            if let Msg::Ping(n) = frame.message {
                ctx.send_to(frame.src, Msg::Pong(n), 64);
            }
        }
    }

    #[test]
    fn ping_pong_rounds_complete() {
        let mut net = Network::new(1);
        let pinger = net.add_node(
            Pinger {
                rounds: 5,
                pongs_seen: 0,
            },
            ChannelModel::perfect(),
        );
        net.add_node(Ponger, ChannelModel::perfect());
        net.run();
        assert_eq!(net.node_as::<Pinger>(pinger).unwrap().pongs_seen, 5);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        struct CountRx(u32);
        impl Node<Msg> for CountRx {
            fn on_frame(&mut self, _ctx: &mut Context<'_, Msg>, _frame: &Frame<Msg>) {
                self.0 += 1;
            }
        }
        struct Once;
        impl Node<Msg> for Once {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.broadcast(Msg::Ping(1), 8);
            }
        }

        let mut net = Network::new(2);
        net.add_node(Once, ChannelModel::perfect());
        let rxs: Vec<_> = (0..5)
            .map(|_| net.add_node(CountRx(0), ChannelModel::perfect()))
            .collect();
        net.run();
        for id in rxs {
            assert_eq!(net.node_as::<CountRx>(id).unwrap().0, 1);
        }
        assert_eq!(net.metrics().get(keys::NET_FRAMES_DELIVERED), 5);
        assert_eq!(net.metrics().get(keys::NET_BITS_SENT), 8);
    }

    #[test]
    fn lossy_channel_drops_frames() {
        struct Spam;
        impl Node<Msg> for Spam {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                for i in 0..1000 {
                    ctx.broadcast(Msg::Ping(i), 8);
                }
            }
        }
        struct Sink(u32);
        impl Node<Msg> for Sink {
            fn on_frame(&mut self, _ctx: &mut Context<'_, Msg>, _f: &Frame<Msg>) {
                self.0 += 1;
            }
        }

        let mut net = Network::new(3);
        net.add_node(Spam, ChannelModel::perfect());
        let rx = net.add_node(Sink(0), ChannelModel::lossy(0.5));
        net.run();
        let got = net.node_as::<Sink>(rx).unwrap().0;
        assert!((400..600).contains(&got), "got {got}");
        assert_eq!(
            net.metrics().get(keys::NET_FRAMES_DELIVERED)
                + net.metrics().get(keys::NET_FRAMES_LOST),
            1000
        );
    }

    #[test]
    fn timers_fire_in_order_at_right_times() {
        struct Timed {
            fired: Vec<(u64, u64)>, // (token, time)
        }
        impl Node<Msg> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration(30), TimerToken(3));
                ctx.set_timer(SimDuration(10), TimerToken(1));
                ctx.set_timer(SimDuration(20), TimerToken(2));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: TimerToken) {
                self.fired.push((timer.0, ctx.now().ticks()));
            }
        }

        let mut net = Network::new(4);
        let id = net.add_node(Timed { fired: vec![] }, ChannelModel::perfect());
        net.run();
        assert_eq!(
            net.node_as::<Timed>(id).unwrap().fired,
            vec![(1, 10), (2, 20), (3, 30)]
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct Periodic(u32);
        impl Node<Msg> for Periodic {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration(10), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken) {
                self.0 += 1;
                ctx.set_timer(SimDuration(10), TimerToken(0));
            }
        }

        let mut net = Network::new(5);
        let id = net.add_node(Periodic(0), ChannelModel::perfect());
        net.run_until(SimTime(55));
        assert_eq!(net.node_as::<Periodic>(id).unwrap().0, 5);
        assert_eq!(net.now(), SimTime(50));
        // Resuming continues from where we stopped.
        net.run_until(SimTime(100));
        assert_eq!(net.node_as::<Periodic>(id).unwrap().0, 10);
    }

    #[test]
    fn local_time_respects_clock_offset() {
        struct Probe {
            local: u64,
        }
        impl Node<Msg> for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration(100), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken) {
                self.local = ctx.local_time().ticks();
            }
        }

        let mut net = Network::new(6);
        let fast = net.add_node_with_offset(Probe { local: 0 }, ChannelModel::perfect(), 25);
        let slow = net.add_node_with_offset(Probe { local: 0 }, ChannelModel::perfect(), -25);
        net.run();
        assert_eq!(net.node_as::<Probe>(fast).unwrap().local, 125);
        assert_eq!(net.node_as::<Probe>(slow).unwrap().local, 75);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run(seed: u64) -> u32 {
            let mut net = Network::new(seed);
            struct Spam;
            impl Node<Msg> for Spam {
                fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                    for i in 0..100 {
                        ctx.broadcast(Msg::Ping(i), 8);
                    }
                }
            }
            struct Sink(u32);
            impl Node<Msg> for Sink {
                fn on_frame(&mut self, _c: &mut Context<'_, Msg>, _f: &Frame<Msg>) {
                    self.0 += 1;
                }
            }
            net.add_node(Spam, ChannelModel::perfect());
            let rx = net.add_node(Sink(0), ChannelModel::lossy(0.3));
            net.run();
            net.node_as::<Sink>(rx).unwrap().0
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn node_as_wrong_type_is_none() {
        let mut net: Network<Msg> = Network::new(8);
        let id = net.add_node(Ponger, ChannelModel::perfect());
        assert!(net.node_as::<Pinger>(id).is_none());
        assert!(net.node_as_mut::<Ponger>(id).is_some());
        assert!(net.node_as::<Ponger>(NodeId(99)).is_none());
    }

    #[test]
    fn debug_output_mentions_nodes() {
        let net: Network<Msg> = Network::new(9);
        assert!(format!("{net:?}").contains("Network"));
    }

    // --- fault-plan integration -------------------------------------

    use crate::fault::{DriftSchedule, FaultPlan, FaultWindow};

    /// Broadcasts one `Ping(i)` every 10 ticks, forever (until deadline).
    struct Beacon(u32);
    impl Node<Msg> for Beacon {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(SimDuration(10), TimerToken(0));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken) {
            ctx.broadcast(Msg::Ping(self.0), 8);
            self.0 += 1;
            ctx.set_timer(SimDuration(10), TimerToken(0));
        }
    }

    struct Collect(Vec<u32>);
    impl Node<Msg> for Collect {
        fn on_frame(&mut self, _c: &mut Context<'_, Msg>, f: &Frame<Msg>) {
            if let Msg::Ping(n) = f.message {
                self.0.push(n);
            }
        }
    }

    fn beacon_net(seed: u64) -> (Network<Msg>, NodeId) {
        let mut net = Network::new(seed);
        net.add_node(Beacon(0), ChannelModel::perfect());
        let rx = net.add_node(Collect(Vec::new()), ChannelModel::perfect());
        (net, rx)
    }

    #[test]
    fn blackout_drops_frames_sent_in_window() {
        let (mut net, rx) = beacon_net(10);
        net.set_fault_plan(FaultPlan::new(1).blackout(FaultWindow::new(SimTime(25), SimTime(55))));
        net.run_until(SimTime(100));
        // Beacons at 30, 40, 50 fall inside [25, 55): pings 2, 3, 4 lost.
        assert_eq!(
            net.node_as::<Collect>(rx).unwrap().0,
            vec![0, 1, 5, 6, 7, 8, 9]
        );
        assert_eq!(net.metrics().get(keys::FAULT_BLACKOUT_DROPPED), 3);
    }

    #[test]
    fn crashed_sender_is_silenced_and_resumes_mid_chain() {
        let (mut net, rx) = beacon_net(11);
        net.set_fault_plan(
            FaultPlan::new(1).crash(NodeId(0), FaultWindow::new(SimTime(25), SimTime(55))),
        );
        net.run_until(SimTime(100));
        // The beacon's timers kept firing while crashed, so it resumes
        // at ping 5, not ping 2 — a genuine mid-chain restart.
        assert_eq!(
            net.node_as::<Collect>(rx).unwrap().0,
            vec![0, 1, 5, 6, 7, 8, 9]
        );
        assert_eq!(net.metrics().get(keys::FAULT_CRASH_SILENCED), 3);
    }

    #[test]
    fn crashed_receiver_drops_inbound_frames() {
        let (mut net, rx) = beacon_net(12);
        net.set_fault_plan(
            FaultPlan::new(1).crash(NodeId(1), FaultWindow::new(SimTime(25), SimTime(55))),
        );
        net.run_until(SimTime(100));
        assert_eq!(
            net.node_as::<Collect>(rx).unwrap().0,
            vec![0, 1, 5, 6, 7, 8, 9]
        );
        assert_eq!(net.metrics().get(keys::FAULT_CRASH_DROPPED), 3);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let (mut net, rx) = beacon_net(13);
        net.set_fault_plan(
            FaultPlan::new(1).duplicate(FaultWindow::new(SimTime(0), SimTime(1000)), 1.0),
        );
        net.run_until(SimTime(100));
        // Every ping arrives twice.
        assert_eq!(
            net.node_as::<Collect>(rx).unwrap().0,
            vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9]
        );
        assert_eq!(net.metrics().get(keys::FAULT_DUPLICATED), 10);
        assert_eq!(net.metrics().get(keys::NET_FRAMES_DELIVERED), 20);
    }

    #[test]
    fn corruption_without_corruptor_drops_frames() {
        let (mut net, rx) = beacon_net(14);
        net.set_fault_plan(
            FaultPlan::new(1).corrupt(FaultWindow::new(SimTime(0), SimTime(1000)), 1.0),
        );
        net.run_until(SimTime(100));
        assert!(net.node_as::<Collect>(rx).unwrap().0.is_empty());
        assert_eq!(net.metrics().get(keys::FAULT_CORRUPT_DROPPED), 10);
    }

    #[test]
    fn corruptor_mangles_frames_deterministically() {
        let (mut net, rx) = beacon_net(15);
        net.set_fault_plan(
            FaultPlan::new(1).corrupt(FaultWindow::new(SimTime(0), SimTime(1000)), 1.0),
        );
        net.set_corruptor(|m: &Msg, rng| match m {
            Msg::Ping(n) => Some(Msg::Ping(n ^ (1 << rng.below(8)))),
            Msg::Pong(_) => None,
        });
        net.run_until(SimTime(100));
        let got = &net.node_as::<Collect>(rx).unwrap().0;
        assert_eq!(got.len(), 10);
        // Every frame was bit-flipped away from its original value.
        for (i, n) in got.iter().enumerate() {
            assert_ne!(*n, i as u32, "frame {i} arrived uncorrupted");
        }
        assert_eq!(net.metrics().get(keys::FAULT_CORRUPTED), 10);
    }

    #[test]
    fn reorder_spike_delays_frames() {
        let (mut net, rx) = beacon_net(16);
        net.set_fault_plan(FaultPlan::new(1).reorder(
            FaultWindow::new(SimTime(0), SimTime(1000)),
            1.0,
            SimDuration(50),
        ));
        net.run_until(SimTime(200));
        // Every sent ping was delayed; the ones whose spike pushed them
        // past the deadline are still queued, the rest landed.
        let got = &net.node_as::<Collect>(rx).unwrap().0;
        assert_eq!(net.metrics().get(keys::FAULT_REORDERED), 20);
        assert!((10..=20).contains(&got.len()), "got {got:?}");
    }

    #[test]
    fn drift_schedule_shifts_local_clock() {
        struct Probe(Vec<u64>);
        impl Node<Msg> for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration(10), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken) {
                self.0.push(ctx.local_time().ticks());
                ctx.set_timer(SimDuration(10), TimerToken(0));
            }
        }
        let mut net = Network::new(17);
        let id = net.add_node_with_offset(Probe(Vec::new()), ChannelModel::perfect(), 100);
        net.set_fault_plan(
            FaultPlan::new(1).drift(
                id,
                DriftSchedule::new()
                    .step(SimTime(25), 7)
                    .step(SimTime(45), -3),
            ),
        );
        net.run_until(SimTime(60));
        // Static offset 100, drift 0 → 7 (from t=25) → −3 (from t=45).
        assert_eq!(
            net.node_as::<Probe>(id).unwrap().0,
            vec![110, 120, 137, 147, 147, 157]
        );
        assert_eq!(net.metrics().get(keys::FAULT_DRIFT_SHIFTS), 2);
    }

    #[test]
    fn empty_fault_plan_leaves_run_bit_identical() {
        fn run(plan: Option<FaultPlan>) -> (Vec<u32>, u64, u64) {
            let mut net = Network::new(18);
            net.add_node(Beacon(0), ChannelModel::perfect());
            let rx = net.add_node(Collect(Vec::new()), ChannelModel::lossy(0.3));
            if let Some(plan) = plan {
                net.set_fault_plan(plan);
            }
            net.run_until(SimTime(500));
            (
                net.node_as::<Collect>(rx).unwrap().0.clone(),
                net.metrics().get(keys::NET_FRAMES_DELIVERED),
                net.metrics().get(keys::NET_FRAMES_LOST),
            )
        }
        assert_eq!(run(None), run(Some(FaultPlan::new(99))));
    }

    #[test]
    fn same_seed_same_faulted_run() {
        fn run() -> (Vec<u32>, u64, u64, u64) {
            let mut net = Network::new(19);
            net.add_node(Beacon(0), ChannelModel::perfect());
            let rx = net.add_node(Collect(Vec::new()), ChannelModel::lossy(0.2));
            net.set_fault_plan(
                FaultPlan::new(7)
                    .blackout(FaultWindow::new(SimTime(100), SimTime(150)))
                    .corrupt(FaultWindow::new(SimTime(200), SimTime(300)), 0.5)
                    .duplicate(FaultWindow::new(SimTime(300), SimTime(400)), 0.5),
            );
            net.set_corruptor(|m: &Msg, rng| match m {
                Msg::Ping(n) => Some(Msg::Ping(n ^ (1 << rng.below(8)))),
                Msg::Pong(_) => None,
            });
            net.run_until(SimTime(500));
            (
                net.node_as::<Collect>(rx).unwrap().0.clone(),
                net.metrics().get(keys::FAULT_BLACKOUT_DROPPED),
                net.metrics().get(keys::FAULT_CORRUPTED),
                net.metrics().get(keys::FAULT_DUPLICATED),
            )
        }
        assert_eq!(run(), run());
    }
}
