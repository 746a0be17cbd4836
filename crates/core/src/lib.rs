//! **DAP — the DoS-Resistant Authentication Protocol** (Ruan et al.,
//! ICDCS 2016, §IV).
//!
//! DAP is a TESLA variant tuned for crowdsensing networks, combining two
//! ideas against memory-based DoS attacks:
//!
//! 1. **μMAC storage** — in interval `I_i` the sender broadcasts only
//!    `(MAC_i, i)`; the message and key follow one interval later
//!    (Algorithm 1, [`sender`]). The receiver re-keys the received MAC
//!    under a local secret and stores just a 24-bit **μMAC** plus the
//!    32-bit index: 56 bits instead of 280, an ~80 % saving that buys 5×
//!    more buffers in the same memory ([`memory`]).
//! 2. **multi-buffer random selection** — the `k`-th copy received in an
//!    interval is kept with probability `m/k` (reservoir sampling), so
//!    the authentic copy survives a flood of forged fraction `p` with
//!    probability `P = 1 − p^m` (Algorithm 2, [`receiver`];
//!    analytic forms in [`analysis`]).
//!
//! The paper's evolutionary-game answer to "how many buffers?" (§V) runs
//! in `dap-net`'s control plane, which estimates the attack level from
//! the receivers' [`DapStats`] evidence and solves the game with
//! `dap-game`; [`adaptive`] holds the [`PostureDirective`] it sends back
//! to re-provision `m` (or to give up on extra buffers when the channel
//! is nearly jammed — the `(X′, 1)` regime).
//!
//! [`sim`] provides [`dap_simnet`] node adapters so whole crowdsensing
//! campaigns run in simulation; the workspace's examples and benches are
//! built on them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
pub mod codec;
pub mod memory;
pub mod receiver;
pub mod sender;
pub mod sim;
pub mod wire;

pub use adaptive::PostureDirective;
pub use codec::SenderId;
pub use receiver::{AnnounceOutcome, DapReceiver, DapStats, RevealOutcome};
pub use sender::{DapBootstrap, DapSender};
pub use wire::{Announce, DapMessage, DapParams, Reveal};
