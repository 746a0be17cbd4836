//! # dap-net — the real-wire runtime
//!
//! Everything below this crate runs DAP inside a discrete-event
//! simulator; `dap-net` runs it on sockets and threads. The pieces:
//!
//! * [`transport`] — one [`Transport`] trait, two media: real UDP
//!   datagrams ([`UdpTransport`]) and a seeded in-process broadcast
//!   medium ([`LoopbackTransport`]) reusing the simulator's
//!   loss/corruption models so wire tests stay bit-reproducible;
//! * [`clock`] — [`NetClock`] bridges the simulator's tick grid to
//!   `std::time::Instant` ([`RealClock`], which can also anchor on a
//!   UDP receiver's first datagram) or to an explicitly advanced test
//!   clock ([`ManualClock`]);
//! * [`pump`] — [`SenderPump`] paces Algorithm 1 (announce in `I_i`,
//!   reveal in `I_{i+d}`) onto a transport; [`Flooder`] is the paper's
//!   adversary, saturating the wire with forged announces at bandwidth
//!   share `p`;
//! * [`pool`] — a sharded receiver: frames route to one of `N` worker
//!   threads by a hash of their interval index (or, in the fleet
//!   posture, their [`dap_core::SenderId`] wire tag —
//!   [`pool::RoutePolicy`]), each worker owns its reservoir buffers and
//!   drains a bounded ingress queue with an explicit [`OverflowPolicy`].
//!   The queue (private module `queue`) copies datagrams into a byte
//!   arena and hands its worker everything queued under one lock;
//! * [`session`] — per-sender receiver state at crowd scale: each shard
//!   owns a [`SessionTable`] mapping `SenderId` to chain anchor, skew
//!   and reservoirs, bounded by LRU + memory-budget eviction so fixed
//!   RAM serves an unbounded sender population (DESIGN §10);
//! * [`fleet`] — the seeded campaign driver the ci.sh soak gates run:
//!   a roster of senders, a flooder and the sharded pool on one
//!   loopback wire. The roster decides the rest — one untagged sender
//!   ([`FleetSpec::untagged`], the paper's single-chain experiment,
//!   [`DapShard`]s routed by interval) or `N` tagged senders
//!   (per-sender spoofing, [`FleetShard`] session tables routed by
//!   sender). Same seed ⇒ byte-identical metrics, and with
//!   `trace_depth > 0` a byte-identical structured trace too;
//! * [`adversary`] — the adaptive adversary suite (DESIGN §11): four
//!   deterministic attack plans beyond the Bernoulli flooder
//!   (burst-at-reanchor, collusion, replay-at-the-edge, adaptive),
//!   drivable through the fleet campaign and `dapd --adversary`;
//! * [`forensics`] — the trace-audit engine behind `daptrace`:
//!   reconstructs per-frame / per-sender timelines from a `--trace-out`
//!   JSONL file, checks the pipeline's causal invariants (each source's
//!   records are gapless and in order, shed frames never authenticate,
//!   posture epochs are monotone, reservoirs respect `m`, pins are never
//!   evicted) and renders a byte-stable stage-latency + attack-onset
//!   report;
//! * [`telemetry`] — the live exposition plane: [`SharedRegistry`]
//!   collects per-shard [`dap_simnet::Registry`] snapshots without
//!   touching the verify hot path, and [`TelemetryServer`] serves the
//!   merged view as Prometheus text over a tiny std-only HTTP listener.
//!
//! The pool's workers are instrumented through `dap-obs`, recording
//! each per-frame fact once: the `net.stage.*` latency histograms
//! (decode and verify time on every frame, the other stages on the
//! flight recorder's sampled frames), queue occupancy sampled once per
//! batch take (wall-clock runs only — see DESIGN §9 for the
//! determinism rules), drop-reason counters, and a typed trace (frame
//! arrivals, verdicts, buffer decisions, key reveals, shard stalls,
//! frame spans) ordered by per-source sequence numbers.
//!
//! Three binaries ship with the crate: `dapd` (sender / receiver /
//! flooder roles over UDP plus the seeded `--loopback` and `--fleet`
//! campaigns; `--telemetry <addr>` serves live metrics, `--trace-out
//! <path>` writes the trace as JSONL, and the receiver prints its final
//! sorted snapshot on Ctrl-C),
//! `daptrace` (forensic audit / report / timeline over a `--trace-out`
//! file, exiting nonzero when a causal invariant is violated) and
//! `perf` (the workspace's micro-benchmark harness: crypto kernels,
//! ingest at four tracing levels, per-frame verify latency with
//! p50/p95/p99 tails, the survival matrix, Algorithm 3 and the sweep,
//! each lane's median and MAD written to `BENCH_perf.json`). See README
//! § "Running on a real wire".
//!
//! ## Quickstart (in-process)
//!
//! ```
//! use dap_net::fleet::{run_fleet, FleetSpec};
//!
//! let report = run_fleet(&FleetSpec {
//!     intervals: 40,
//!     ..FleetSpec::untagged()
//! });
//! // p = 0.9, m = 4 ⇒ about 1 − 0.9⁴ ≈ 34% of reveals authenticate.
//! assert!(report.auth_rate > 0.1 && report.auth_rate < 0.7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod clock;
pub mod control;
pub mod fleet;
pub mod forensics;
pub mod opts;
pub mod pool;
pub mod pump;
mod queue;
pub mod session;
pub mod telemetry;
pub mod transport;

pub use adversary::{AdversaryClass, AdversaryEmit, AdversaryPlan, PostureView};
pub use clock::{ManualClock, NetClock, RealClock};
pub use control::{ControlConfig, ControlPlane};
pub use fleet::{run_fleet, FleetReport, FleetShard, FleetSpec};
pub use forensics::{
    attack_onset, audit, forged_share_trajectory, render_report, render_timeline, Violation,
};
pub use pool::{
    BufferNote, DapShard, FrameVerdict, FrameVerifier, LiveCounters, OverflowPolicy, PoolConfig,
    PoolHandle, PoolObs, PoolReport, ReceiverPool, RoutePolicy,
};
pub use pump::{Flooder, PumpStats, SenderPump};
pub use session::{
    Admission, PriorityClass, SessionConfig, SessionEviction, SessionRef, SessionStats,
    SessionTable,
};
pub use telemetry::{SharedRegistry, TelemetryServer};
pub use transport::{LoopbackTransport, Transport, UdpTransport};
