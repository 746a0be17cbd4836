//! One pass: set the receiver up as deployed, play the stream into it
//! from one driver thread, shut it down and check what it counted.
//!
//! Play is cut into chunks of about [`REF_EVERY_FRAMES`] frames. Between
//! two chunks, with the pool quiesced, the driver times the reference
//! pipeline ([`refkernel::Pipeline`]); the report keeps the run's
//! fastest chunks and scales them by how fast the host ran.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dap_net::fleet::fleet_directory;
use dap_net::{
    ControlConfig, ControlPlane, DapShard, FleetShard, FleetSpec, FrameVerifier, OverflowPolicy,
    PoolConfig, PoolHandle, PoolObs, ReceiverPool, RoutePolicy,
};
use dap_obs::TimeSource;
use dap_simnet::{keys, Registry};

use crate::measure::{self, Cpu};
use crate::probe::{Probe, ShardOut, Sink, Tally};
use crate::stream::{Stream, NOT_REVEAL, SHARDS};
use crate::{alloc, pin, refkernel, Failure};

/// Frames played between two timings of the reference kernel.
const REF_EVERY_FRAMES: usize = 8192;

/// Trace ring depth per source in traced passes (rings overwrite, so
/// memory stays bounded whatever the pass length).
const TRACE_DEPTH: usize = 4096;

/// Driver-side state a pass reuses, allocated before the heap baseline
/// so it never counts as the receiver's heap.
pub struct Buffers {
    /// Driver clock reading when each genuine reveal was handed to
    /// `PoolHandle::ingest`, by slot.
    ingest_at: Vec<u64>,
    /// The current pass's chunks.
    chunks: Vec<Chunk>,
    /// One stamp buffer per shard, sized for every reveal of a pass.
    stamps: Vec<Vec<(u32, u64)>>,
    /// CPUs the process may use; placement is off with fewer than two.
    cpus: Vec<usize>,
    /// The drift reference, its helper on the shards' CPU.
    reference: refkernel::Pipeline,
}

impl Buffers {
    /// Buffers sized for `stream`.
    pub fn new(stream: &Stream) -> Result<Self, Failure> {
        let cpus = pin::allowed().unwrap_or_default();
        let helper_cpu = (cpus.len() >= 2).then(|| cpus[1]);
        Ok(Self {
            ingest_at: vec![0; stream.slots()],
            chunks: Vec::with_capacity(stream.frames.len() / REF_EVERY_FRAMES + 2),
            stamps: (0..SHARDS)
                .map(|_| Vec::with_capacity(stream.slots()))
                .collect(),
            cpus,
            reference: refkernel::Pipeline::spawn(helper_cpu).map_err(Failure::io)?,
        })
    }

    /// Where shard `shard` runs (see [`crate::pin`]). With interval
    /// routing one shard is busy at a time, so every shard sits on the
    /// CPU next to the driver's; with sender routing all shards flush at
    /// once, so they spread over the CPUs.
    fn shard_cpu(&self, shard: usize, route: RoutePolicy) -> Option<usize> {
        (self.cpus.len() >= 2).then(|| match route {
            RoutePolicy::ByInterval => self.cpus[1],
            RoutePolicy::BySender => self.cpus[shard % self.cpus.len()],
        })
    }

    /// Where the driver runs.
    fn driver_cpu(&self) -> Option<usize> {
        (self.cpus.len() >= 2).then(|| self.cpus[0])
    }

    /// Times the reference pipeline from the driver's CPU, ns.
    fn reference(&self) -> Result<u64, Failure> {
        if let Some(cpu) = self.driver_cpu() {
            pin::to(cpu).map_err(Failure::io)?;
        }
        Ok(self.reference.time_ns())
    }
}

/// One stretch of play between two reference timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chunk {
    /// Datagrams ingested.
    pub frames: u64,
    /// Wall time, ns.
    pub wall_ns: u64,
    /// CPU time of the whole process and of the shard workers, ns.
    pub cpu: Cpu,
    /// Allocations.
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// The reference pipeline's wall time right after the chunk, ns.
    pub reference_ns: u64,
    /// When the chunk closed, ns since the pass epoch.
    pub end_ns: u64,
}

/// A point in play: wall clock, CPU clocks, allocation counters.
struct Mark {
    at: Instant,
    cpu: Cpu,
    allocs: (u64, u64),
}

impl Mark {
    /// Reads the clocks; the start of a chunk reads the CPU clock first
    /// and the wall clock last, so the `/proc` reads stay outside the
    /// chunk's wall time.
    fn open() -> Result<Self, Failure> {
        let cpu = measure::cpu().map_err(Failure::io)?;
        let allocs = alloc::totals();
        Ok(Self {
            at: Instant::now(),
            cpu,
            allocs,
        })
    }

    /// The chunk from `self` to now; reads the wall clock first.
    fn close(&self, frames: u64) -> Result<Chunk, Failure> {
        let wall_ns = self.at.elapsed().as_nanos() as u64;
        let allocs = alloc::totals();
        let cpu = measure::cpu().map_err(Failure::io)?;
        Ok(Chunk {
            frames,
            wall_ns,
            cpu: Cpu {
                total: cpu.total - self.cpu.total,
                shards: cpu.shards - self.cpu.shards,
            },
            allocs: allocs.0 - self.allocs.0,
            alloc_bytes: allocs.1 - self.allocs.1,
            reference_ns: 0,
            end_ns: 0,
        })
    }
}

/// Calls timed from the driver side in traced passes.
#[derive(Debug, Default)]
pub struct DriverTimes {
    /// `PoolHandle::ingest`, per call, ns.
    pub ingest_ns: Vec<u32>,
    /// `tick` + `quiesce` at each interval boundary, ns.
    pub quiesce_ns: Vec<u64>,
    /// `ControlPlane::step`, ns.
    pub step_ns: Vec<u64>,
    /// `post_posture` + `quiesce` per directive, ns.
    pub posture_ns: Vec<u64>,
}

/// What a traced pass measured per layer.
pub struct Layers {
    /// Driver-side call timings.
    pub driver: DriverTimes,
    /// Verifier tallies summed over shards.
    pub tally: Tally,
    /// The pool's merged registry (carries the `net.stage.*` histograms).
    pub registry: Registry,
}

/// One pass's outcome.
pub struct PassOut {
    /// Play, chunk by chunk.
    pub chunks: Vec<Chunk>,
    /// Ingest → authenticated delay per authenticated reveal, ns, by
    /// the chunk the reveal was ingested in.
    pub delays: Vec<Vec<u64>>,
    /// Peak heap above the live heap at pass start, bytes.
    pub peak_bytes: u64,
    /// The pass's `net.reveal.*` and `net.announce.*` counters.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Authenticated reveals.
    pub authenticated: u64,
    /// The control plane's final `m` and directive count (adaptive).
    pub control: Option<(u32, u64)>,
    /// `(admitted, evicted, resident)` sessions.
    pub sessions: (u64, u64, u64),
    /// Per-layer detail (traced passes only).
    pub layers: Option<Layers>,
}

/// Sets the receiver up as deployed: directory derivation (fleet) and
/// the pool, plus the control plane on adaptive. Returns them with the
/// set-up's wall time in ns, the driver back on its CPU.
fn set_up(
    stream: &Stream,
    bufs: &mut Buffers,
    epoch: Instant,
    traced: bool,
    sink: &Sink,
) -> Result<(ReceiverPool, Option<ControlPlane>, u64), Failure> {
    let shape = &stream.shape;
    if let Some(cpu) = bufs.driver_cpu() {
        pin::to(cpu).map_err(Failure::io)?;
    }
    let start = Instant::now();
    let pool = spawn(stream, bufs, epoch, traced, sink);
    let control = shape.adaptive.then(|| {
        ControlPlane::new(
            u32::try_from(shape.buffers).expect("buffer count fits u32"),
            ControlConfig::default(),
        )
    });
    let ns = start.elapsed().as_nanos() as u64;
    if let Some(cpu) = bufs.driver_cpu() {
        pin::to(cpu).map_err(Failure::io)?;
    }
    Ok((pool, control, ns))
}

/// Times `n` set-ups on their own, each shut straight down again; ns
/// each.
pub fn setups(stream: &Stream, bufs: &mut Buffers, n: usize) -> Result<Vec<u64>, Failure> {
    let epoch = Instant::now();
    (0..n)
        .map(|_| {
            let sink: Sink = Arc::new(Mutex::new(Vec::with_capacity(SHARDS)));
            let (pool, _control, ns) = set_up(stream, bufs, epoch, false, &sink)?;
            let _ = pool.shutdown_with_report();
            for out in std::mem::take(&mut *sink.lock().expect("probe sink poisoned")) {
                let mut stamps = out.stamps;
                stamps.clear();
                bufs.stamps.push(stamps);
            }
            Ok(ns)
        })
        .collect()
}

/// Runs one pass over `stream`.
pub fn pass(stream: &Stream, bufs: &mut Buffers, traced: bool) -> Result<PassOut, Failure> {
    if let Some(cpu) = bufs.driver_cpu() {
        pin::to(cpu).map_err(Failure::io)?;
    }
    let heap_before = alloc::live();
    alloc::reset_peak();
    let epoch = Instant::now();
    let sink: Sink = Arc::new(Mutex::new(Vec::with_capacity(SHARDS)));
    let (pool, mut control, _) = set_up(stream, bufs, epoch, traced, &sink)?;

    let handle = pool.handle();
    let mut driver = DriverTimes::default();
    if traced {
        driver.ingest_ns.reserve(stream.frames.len());
    }
    bufs.chunks.clear();
    if traced {
        play::<true>(stream, &handle, &mut control, bufs, epoch, &mut driver)?;
    } else {
        play::<false>(stream, &handle, &mut control, bufs, epoch, &mut driver)?;
    }
    let peak_bytes = alloc::peak().saturating_sub(heap_before);

    let frames = handle.live().frames();
    let report = pool.shutdown_with_report();
    let registry = report.registry;
    let counters = registry.counters();
    let outs: Vec<ShardOut> = std::mem::take(&mut *sink.lock().expect("probe sink poisoned"));

    let expect = |what: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(Failure::gate(format!("{what}: got {got}, expected {want}")))
        }
    };
    expect("frames ingested", frames, stream.frames.len() as u64)?;
    expect(
        "frames verified",
        counters.get(keys::NET_INGRESS_FRAMES),
        frames,
    )?;
    expect("ingress drops", counters.get(keys::NET_INGRESS_DROPPED), 0)?;
    expect("frames shed", counters.get(keys::NET_SHED_TOTAL), 0)?;
    expect("decode errors", counters.get(keys::NET_DECODE_ERRORS), 0)?;
    expect(
        "reveals verified",
        counters.get(keys::NET_REVEAL_TOTAL),
        stream.reveals,
    )?;
    let authenticated = counters.get(keys::NET_REVEAL_AUTH);
    expect("probe shards", outs.len() as u64, SHARDS as u64)?;

    let mut delays = vec![Vec::new(); bufs.chunks.len()];
    let mut stamped = 0;
    let mut tally = traced.then(Tally::default);
    let mut resident = 0;
    for out in outs {
        for &(slot, at) in &out.stamps {
            let sent = bufs.ingest_at[slot as usize];
            if at < sent {
                return Err(Failure::gate(format!(
                    "reveal slot {slot} authenticated before it was ingested"
                )));
            }
            let chunk = bufs.chunks.partition_point(|c| c.end_ns < sent);
            let last = delays.len() - 1;
            delays[chunk.min(last)].push(at - sent);
            stamped += 1;
        }
        resident += out.occupancy;
        if let (Some(sum), Some(shard)) = (&mut tally, out.tally) {
            sum.absorb(shard);
        }
        let mut stamps = out.stamps;
        stamps.clear();
        bufs.stamps.push(stamps);
    }
    expect("authenticated reveals stamped", stamped, authenticated)?;

    let fingerprint = counters
        .iter()
        .filter(|(k, _)| k.starts_with("net.reveal.") || k.starts_with("net.announce."))
        .collect();
    let sessions = (
        counters.get(keys::NET_SESSION_ADMITTED),
        counters.get(keys::NET_SESSION_EVICTED),
        resident,
    );
    let layers = tally.map(|tally| Layers {
        driver,
        tally,
        registry: registry.clone(),
    });
    Ok(PassOut {
        chunks: bufs.chunks.clone(),
        delays,
        peak_bytes,
        fingerprint,
        authenticated,
        control: control.map(|c| (c.buffers(), c.directives())),
        sessions,
        layers,
    })
}

/// Spawns the pool exactly as deployed: `Block` overflow, wall clocks,
/// the shipped verifier per shard (behind a [`Probe`]), tracing off
/// unless `traced`.
fn spawn(
    stream: &Stream,
    bufs: &mut Buffers,
    epoch: Instant,
    traced: bool,
    sink: &Sink,
) -> ReceiverPool {
    let shape = &stream.shape;
    let widest = stream
        .intervals
        .iter()
        .scan(0, |start, iv| {
            let n = iv.end - *start;
            *start = iv.end;
            Some(n)
        })
        .max()
        .unwrap_or(0);
    let config = PoolConfig {
        shards: SHARDS,
        queue_depth: shape.queue_depth,
        overflow: OverflowPolicy::Block,
        route: shape.route,
        // A window budget that covers a whole interval sheds nothing.
        drain_budget: if shape.windowed { widest } else { usize::MAX },
        ..PoolConfig::default()
    };
    let obs = if traced {
        PoolObs {
            time: TimeSource::wall(),
            trace_depth: TRACE_DEPTH,
            publish: None,
            publish_every: 0,
            span_every: 1,
        }
    } else {
        PoolObs::default()
    };
    let stamps = std::mem::take(&mut bufs.stamps);
    let placement: Vec<Option<usize>> = (0..SHARDS)
        .map(|shard| bufs.shard_cpu(shard, shape.route))
        .collect();
    let probed = Probed {
        placement,
        stream,
        epoch,
        traced,
        sink,
    };
    match stream.bootstrap {
        Some(bootstrap) => probed.spawn(config, obs, stamps, |shard| {
            DapShard::new(bootstrap, &[b'r', b'b', shard as u8])
        }),
        None => {
            let spec = FleetSpec {
                seed: stream.seed,
                senders: shape.senders,
                intervals: shape.intervals,
                buffers: shape.buffers,
                shards: SHARDS,
                queue_depth: shape.queue_depth,
                flood: shape.flood.0,
                copies: shape.copies,
                max_sessions: usize::MAX,
                memory_budget_bits: u64::MAX,
                ..FleetSpec::default()
            };
            let directory = fleet_directory(
                stream.seed,
                shape.senders,
                shape.chain_len(),
                shape.params(),
            );
            probed.spawn(config, obs, stamps, |shard| {
                FleetShard::with_directory(&spec, shard, Arc::clone(&directory))
            })
        }
    }
}

/// What every shard's [`Probe`] shares.
struct Probed<'a> {
    placement: Vec<Option<usize>>,
    stream: &'a Stream,
    epoch: Instant,
    traced: bool,
    sink: &'a Sink,
}

impl Probed<'_> {
    /// Spawns the pool with `make(shard)` behind a probe on each shard.
    fn spawn<V: FrameVerifier + 'static>(
        &self,
        config: PoolConfig,
        obs: PoolObs,
        stamps: Vec<Vec<(u32, u64)>>,
        mut make: impl FnMut(usize) -> V,
    ) -> ReceiverPool {
        let mut stamps = stamps.into_iter();
        ReceiverPool::spawn_with_obs(
            config,
            self.stream.pool_seed,
            |shard| {
                // The worker spawned right after `make` inherits this mask.
                if let Some(cpu) = self.placement[shard] {
                    pin::to(cpu).expect("pin shard thread");
                }
                Probe::new(
                    make(shard),
                    self.stream,
                    self.epoch,
                    stamps.next().expect("one stamp buffer per shard"),
                    self.traced,
                    Arc::clone(self.sink),
                )
            },
            obs,
        )
    }
}

/// Plays the whole stream: per interval, every datagram in order, then
/// `tick` + `quiesce`, then one control-plane step. Every
/// [`REF_EVERY_FRAMES`] frames, and after the last interval, closes a
/// chunk at the quiesced boundary and times the reference kernel.
fn play<const TRACED: bool>(
    stream: &Stream,
    handle: &PoolHandle,
    control: &mut Option<ControlPlane>,
    bufs: &mut Buffers,
    epoch: Instant,
    times: &mut DriverTimes,
) -> Result<(), Failure> {
    let clock = |since: Instant| since.elapsed().as_nanos() as u64;
    let mut first = 0;
    let mut frames = 0;
    let mut mark = Mark::open()?;
    for (position, interval) in stream.intervals.iter().enumerate() {
        for &frame in &stream.frames[first..interval.end] {
            let bytes = stream.datagram(frame);
            if frame.reveal != NOT_REVEAL {
                bufs.ingest_at[frame.reveal as usize] = clock(epoch);
            }
            if TRACED {
                let t = Instant::now();
                handle.ingest(bytes, interval.at);
                times
                    .ingest_ns
                    .push(u32::try_from(clock(t)).unwrap_or(u32::MAX));
            } else {
                handle.ingest(bytes, interval.at);
            }
        }
        frames += interval.end - first;
        first = interval.end;

        let t = TRACED.then(Instant::now);
        handle.tick();
        handle.quiesce();
        if let Some(t) = t {
            times.quiesce_ns.push(clock(t));
        }
        if let Some(control) = control.as_mut() {
            let t = TRACED.then(Instant::now);
            let directive = control.step(handle.live());
            if let Some(t) = t {
                times.step_ns.push(clock(t));
            }
            if let Some(directive) = directive {
                let t = TRACED.then(Instant::now);
                handle.post_posture(directive, interval.at);
                handle.quiesce();
                if let Some(t) = t {
                    times.posture_ns.push(clock(t));
                }
            }
        }
        if frames >= REF_EVERY_FRAMES || position + 1 == stream.intervals.len() {
            let end = mark.close(frames as u64)?;
            bufs.chunks.push(Chunk {
                reference_ns: bufs.reference()?,
                end_ns: clock(epoch),
                ..end
            });
            frames = 0;
            mark = Mark::open()?;
        }
    }
    Ok(())
}
