//! A deterministic discrete-event simulator for broadcast-authentication
//! experiments in crowdsensing networks.
//!
//! The ICDCS'16 paper this workspace reproduces evaluates its protocols in
//! simulation; this crate is that substrate. It models exactly the aspects
//! the protocols are sensitive to:
//!
//! * **virtual time** ([`time`]) — protocols divide time into intervals and
//!   disclose keys with a delay;
//! * **a lossy broadcast channel** ([`channel`]) — per-receiver loss
//!   probability, propagation delay and jitter ("low QoS channels");
//! * **loose clock synchronisation** ([`clock`]) — every node's clock is
//!   offset from global time by a bounded amount, which is the assumption
//!   the TESLA "safe packet test" rests on;
//! * **flooding adversaries** ([`adversary`]) — an attacker spends a
//!   fraction `x_a` of the channel bandwidth on forged packets;
//! * **scripted faults** ([`fault`]) — seeded blackout / corruption /
//!   duplication / reorder / crash / drift windows layered on top of the
//!   channel model, every injection counted under `fault.*` metrics;
//! * **deterministic randomness** ([`rng`]) and **metrics** ([`metrics`]).
//!
//! The simulator is generic over the message type `M`, so each protocol
//! crate plugs in its own wire enums and keeps full type safety.
//!
//! # Example
//!
//! ```
//! use dap_simnet::{Network, Node, Context, Frame, TimerToken, ChannelModel, SimDuration};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//!
//! struct Sender;
//! impl Node<Ping> for Sender {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         ctx.broadcast(Ping(7), 32);
//!     }
//! }
//!
//! #[derive(Default)]
//! struct Counter(u32);
//! impl Node<Ping> for Counter {
//!     fn on_frame(&mut self, _ctx: &mut Context<'_, Ping>, frame: &Frame<Ping>) {
//!         self.0 += frame.message.0;
//!     }
//! }
//!
//! let mut net = Network::new(42);
//! let _tx = net.add_node(Sender, ChannelModel::perfect());
//! let rx = net.add_node(Counter::default(), ChannelModel::perfect());
//! net.run();
//! assert_eq!(net.node_as::<Counter>(rx).unwrap().0, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod channel;
pub mod clock;
pub mod energy;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod rng;
pub mod stats;
pub mod time;

pub use adversary::FloodIntensity;
pub use channel::{ChannelModel, LossModel};
pub use clock::ClockOffsets;
pub use energy::EnergyModel;
pub use fault::{DriftSchedule, FaultPlan, FaultWindow};
pub use metrics::{keys, Metrics, Registry};
pub use network::{Context, Frame, Network, Node, NodeId, TimerToken};
pub use rng::SimRng;
pub use stats::Samples;
pub use time::{IntervalSchedule, SimDuration, SimTime};
