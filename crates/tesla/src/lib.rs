//! The TESLA protocol family — the substrate the paper builds on and the
//! baselines it compares against.
//!
//! Broadcast authentication with symmetric primitives works by *delayed
//! key disclosure*: the sender MACs packets of interval `I_i` with a key
//! `K_i` from a one-way chain and only discloses `K_i` a fixed number of
//! intervals `d` later. Receivers buffer packets they cannot yet verify;
//! once the key arrives they (a) check it against the chain commitment
//! and (b) recompute the MACs. An attacker who sees a disclosed key is
//! too late to forge packets for that interval — provided clocks are
//! *loosely synchronised* ([`params::SafetyCheck`]).
//!
//! Implemented protocols, bottom-up:
//!
//! * [`tesla`] — TESLA (Perrig et al., S&P 2000): per-packet MAC + the
//!   key of `d` intervals ago in every packet;
//! * [`mutesla`] — μTESLA (SPINS, 2002): keys disclosed once per interval
//!   in a dedicated message, symmetric bootstrap;
//! * [`multilevel`] — multi-level μTESLA (Liu & Ning, TECS 2004):
//!   a long-lived high-level chain distributing the commitments of
//!   short low-level chains through CDM messages, defended against CDM
//!   flooding by multi-buffer random selection ([`buffer`]);
//! * EFTP, the authors' Efficient Fault-Tolerant Protocol (IPCCC 2014):
//!   [`multilevel`] under [`multilevel::Linkage::Eftp`], which re-links
//!   low-level chains to the *current* high-level key
//!   (`K_{i,n} = F01(K_i)`), shortening loss recovery by one high-level
//!   interval;
//! * [`edrp`] — the authors' Enhanced DoS-Resistant Protocol: each CDM
//!   carries `H(CDM_{i+1})`, so the next CDM authenticates instantly and
//!   DoS resistance survives CDM loss;
//! * [`teslapp`] — TESLA++ (Studer et al., 2009): MAC first, message and
//!   key one interval later; the Fig.-5 storage baseline.
//!
//! The state machines are *sans-io* (they consume wire messages plus the
//! local clock and return events), with [`sim`] providing adapters onto
//! the [`dap_simnet`] event loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod edrp;
pub mod multilevel;
pub mod mutesla;
pub mod params;
pub mod sim;
pub mod sim_ml;
pub mod sim_mu;
pub mod tesla;
pub mod teslapp;

pub use buffer::{FirstComeBuffer, OfferOutcome, ReservoirBuffer};
pub use params::{SafetyCheck, TeslaParams};
