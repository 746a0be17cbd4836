//! # crowdsense-dap
//!
//! A production-quality reproduction of *"Toward Optimal DoS-Resistant
//! Authentication in Crowdsensing Networks via Evolutionary Game"*
//! (Ruan et al., ICDCS 2016).
//!
//! This umbrella crate re-exports the workspace's seven libraries:
//!
//! * [`crypto`] — SHA-256/HMAC, truncated MACs, one-way key chains;
//! * [`simnet`] — a deterministic discrete-event network simulator;
//! * [`tesla`] — TESLA, μTESLA, multi-level μTESLA, TESLA++, EFTP, EDRP;
//! * [`dap`] — the paper's DoS-Resistant Authentication Protocol and its
//!   QoS-balanced adaptive variant;
//! * [`game`] — the attacker/defender evolutionary game: replicator
//!   dynamics, ESS analysis and the buffer-count optimiser;
//! * [`net`] — the real-wire runtime: UDP/loopback transports, a paced
//!   sender pump, a sharded multi-threaded receiver pool with
//!   backpressure, and the live flooder adversary;
//! * [`obs`] — the observability plane: streaming histograms, gauges,
//!   wall/manual time sources and structured trace events shared by the
//!   simulator and the wire runtime.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use crowdsense_dap::dap::{DapParams, DapReceiver, DapSender};
//! use crowdsense_dap::simnet::{SimRng, SimTime};
//!
//! let params = DapParams::default(); // 100-tick intervals, d = 1, m = 8
//! let mut sender = DapSender::new(b"base station secret", 64, params);
//! let mut receiver = DapReceiver::new(sender.bootstrap(), b"receiver local secret");
//! let mut rng = SimRng::new(7);
//!
//! // Interval 1: the sender announces only (MAC, index) — 112 bits.
//! let announce = sender.announce(1, b"reading: 21.5C").unwrap();
//! receiver.on_announce(&announce, SimTime(10), &mut rng);
//!
//! // Interval 2: the message and key are revealed together.
//! let reveal = sender.reveal(1).expect("announced above");
//! let outcome = receiver.on_reveal(&reveal, SimTime(110));
//! assert!(outcome.is_authenticated());
//! ```

pub use dap_core as dap;
pub use dap_crypto as crypto;
pub use dap_game as game;
pub use dap_net as net;
pub use dap_obs as obs;
pub use dap_simnet as simnet;
pub use dap_tesla as tesla;
