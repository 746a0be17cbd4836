//! Seeded input generation: each workload's wire stream, built once
//! with the public sender-side APIs before anything is timed. The
//! receiver only ever sees these bytes.

use dap_core::{codec, Announce, DapBootstrap, DapMessage, DapParams, DapSender, SenderId};
use dap_crypto::Mac80;
use dap_net::fleet::fleet_chains;
use dap_net::RoutePolicy;
use dap_simnet::{FloodIntensity, SimDuration, SimRng, SimTime};

/// Receiver shards in every workload. Auth counts are exact per
/// `(seed, shard count)`, so the count is part of each workload.
pub const SHARDS: usize = 2;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One untagged sender under the paper's headline flood.
    Flood,
    /// 4096 tagged senders, each spoofed, behind the windowed drain.
    Fleet,
    /// One sender under a ramping flood, with the control plane live.
    Adaptive,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::Flood, Workload::Fleet, Workload::Adaptive];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Fleet => "fleet",
            Workload::Adaptive => "adaptive",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape: one pass plays `intervals` intervals.
    pub fn shape(self) -> Shape {
        match self {
            // `LoopbackSpec::default()`'s flood: 36 forged + 4 genuine
            // announces + 1 reveal per interval. Only ~34% of reveals
            // authenticate; 18000 intervals make ~90 chunks a pass.
            Workload::Flood => Shape {
                senders: 1,
                tagged: false,
                intervals: 18000,
                buffers: 4,
                copies: 4,
                flood: (0.9, 0.9),
                route: RoutePolicy::ByInterval,
                windowed: false,
                adaptive: false,
                queue_depth: 256,
            },
            // The soak scale: 2 forged + 2 genuine + 1 reveal per
            // sender-interval.
            Workload::Fleet => Shape {
                senders: 4096,
                tagged: true,
                intervals: 24,
                buffers: 2,
                copies: 2,
                flood: (0.5, 0.5),
                route: RoutePolicy::BySender,
                windowed: true,
                adaptive: false,
                queue_depth: 4096,
            },
            // The loopback adaptive ramp: p 0.1 → 0.9 over the first
            // half, m bootstrapped at 2.
            Workload::Adaptive => Shape {
                senders: 1,
                tagged: false,
                intervals: 12000,
                buffers: 2,
                copies: 4,
                flood: (0.1, 0.9),
                route: RoutePolicy::ByInterval,
                windowed: false,
                adaptive: true,
                queue_depth: 256,
            },
        }
    }
}

/// What one workload plays.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Senders (ids `1..=senders` when tagged; one untagged sender
    /// otherwise).
    pub senders: u64,
    /// Whether frames carry a sender tag.
    pub tagged: bool,
    /// Intervals of traffic per pass.
    pub intervals: u64,
    /// Reservoir buffers `m` at bootstrap.
    pub buffers: usize,
    /// Genuine announce copies per sender-interval.
    pub copies: u32,
    /// Forged share `p` at interval 1 and after the ramp, which spans
    /// the first half of the pass.
    pub flood: (f64, f64),
    /// How the pool routes frames to shards.
    pub route: RoutePolicy,
    /// Whether the drain is windowed (with a budget that sheds nothing).
    pub windowed: bool,
    /// Whether the control plane runs.
    pub adaptive: bool,
    /// Per-shard ingress queue depth.
    pub queue_depth: usize,
}

impl Shape {
    /// The protocol parameters every sender runs.
    pub fn params(&self) -> DapParams {
        DapParams::new(SimDuration(100), 1, 0, self.buffers)
    }

    /// Key-chain length: every interval plus the tail reveal.
    pub fn chain_len(&self) -> usize {
        usize::try_from(self.intervals).expect("interval count fits usize") + 2
    }

    /// The wire's forged share in interval `i`.
    fn flood_at(&self, i: u64) -> f64 {
        let half = (self.intervals / 2).max(1);
        let t = ((i - 1) as f64 / half as f64).min(1.0);
        self.flood.0 + (self.flood.1 - self.flood.0) * t
    }
}

/// Marks a frame that is not a genuine reveal.
pub const NOT_REVEAL: u32 = u32::MAX;

/// One datagram of the stream.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Byte offset into [`Stream::bytes`].
    pub off: u32,
    /// Length in bytes.
    pub len: u32,
    /// The genuine reveal's slot (see [`Stream::slot`]), or
    /// [`NOT_REVEAL`].
    pub reveal: u32,
}

/// One interval's traffic: frames `[previous end, end)`, stamped `at`.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Protocol time the interval's frames arrive at.
    pub at: SimTime,
    /// One past the interval's last frame.
    pub end: usize,
}

/// A workload's whole pre-generated stream.
pub struct Stream {
    /// The workload this stream plays.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// The master seed.
    pub seed: u64,
    /// The seed the pool forks its shard RNGs from.
    pub pool_seed: u64,
    /// Every datagram, back to back.
    pub bytes: Vec<u8>,
    /// Datagram boundaries, in play order.
    pub frames: Vec<Frame>,
    /// Interval boundaries, in play order (the last one holds only the
    /// tail reveals).
    pub intervals: Vec<Interval>,
    /// The single sender's bootstrap record (untagged workloads).
    pub bootstrap: Option<DapBootstrap>,
    /// Genuine reveals in the stream (= genuine messages sent).
    pub reveals: u64,
}

impl Stream {
    /// The slot of the genuine reveal for `index` from the sender with
    /// 0-based ordinal `ordinal`: one slot per message, dense.
    pub fn slot(senders: u64, ordinal: u64, index: u64) -> u32 {
        u32::try_from((index - 1) * senders + ordinal).expect("slot fits u32")
    }

    /// Slots a pass can fill.
    pub fn slots(&self) -> usize {
        (self.shape.intervals * self.shape.senders) as usize
    }

    /// The bytes of `frame`.
    pub fn datagram(&self, frame: Frame) -> &[u8] {
        &self.bytes[frame.off as usize..(frame.off + frame.len) as usize]
    }

    /// Builds `workload`'s stream from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let shape = workload.shape();
        let params = shape.params();
        let schedule = params.schedule();
        let mut rng = SimRng::new(seed);
        let pool_seed = rng.next_u64();
        let mut mac_rng = rng.fork(1);
        let mut shuffle_rng = rng.fork(2);
        let mut senders: Vec<DapSender> = if shape.tagged {
            fleet_chains(seed, shape.senders, shape.chain_len())
                .into_iter()
                .map(|chain| DapSender::with_chain(chain, params))
                .collect()
        } else {
            vec![DapSender::new(
                &seed.to_be_bytes(),
                shape.chain_len(),
                params,
            )]
        };
        let bootstrap = (!shape.tagged).then(|| senders[0].bootstrap());

        let mut out = Stream {
            workload,
            shape,
            seed,
            pool_seed,
            bytes: Vec::new(),
            frames: Vec::new(),
            intervals: Vec::new(),
            bootstrap,
            reveals: 0,
        };
        for i in 1..=shape.intervals + 1 {
            let tail = i > shape.intervals;
            let forged = FloodIntensity::of_bandwidth(shape.flood_at(i.min(shape.intervals)))
                .forged_copies(u64::from(shape.copies));
            for (ordinal, sender) in senders.iter_mut().enumerate() {
                let ordinal = ordinal as u64;
                let id = if shape.tagged {
                    SenderId(ordinal + 1)
                } else {
                    SenderId::UNTAGGED
                };
                // The reveal for i − 1 leads the sender's interval.
                if i > 1 {
                    let reveal = sender.reveal(i - 1).expect("announced last interval");
                    let slot = Self::slot(shape.senders, ordinal, i - 1);
                    out.push(&shape, id, &DapMessage::Reveal(reveal), slot);
                    out.reveals += 1;
                }
                if tail {
                    continue;
                }
                let text = if shape.tagged {
                    format!("s{} reading {i}", id.0)
                } else {
                    format!("reading {i}")
                };
                let genuine = DapMessage::Announce(
                    sender
                        .announce(i, text.as_bytes())
                        .expect("chain sized for the pass"),
                );
                // Genuine and forged copies, uniformly interleaved.
                let mut genuine_left = u64::from(shape.copies);
                for slots_left in (1..=genuine_left + forged).rev() {
                    if genuine_left > 0 && shuffle_rng.below(slots_left) < genuine_left {
                        out.push(&shape, id, &genuine, NOT_REVEAL);
                        genuine_left -= 1;
                    } else {
                        let mut mac = [0u8; Mac80::LEN];
                        mac_rng.fill_bytes(&mut mac);
                        let forgery = DapMessage::Announce(Announce {
                            index: i,
                            mac: Mac80::from_slice(&mac).expect("fixed length"),
                        });
                        out.push(&shape, id, &forgery, NOT_REVEAL);
                    }
                }
            }
            out.intervals.push(Interval {
                at: SimTime(schedule.start_of(i).ticks() + 10),
                end: out.frames.len(),
            });
        }
        out
    }

    fn push(&mut self, shape: &Shape, id: SenderId, message: &DapMessage, reveal: u32) {
        let bytes = if shape.tagged {
            codec::encode_tagged(id, message)
        } else {
            codec::encode(message)
        }
        .expect("encodable frame");
        self.frames.push(Frame {
            off: u32::try_from(self.bytes.len()).expect("stream fits u32 offsets"),
            len: bytes.len() as u32,
            reveal,
        });
        self.bytes.extend_from_slice(&bytes);
    }
}
