//! The wire: one trait, two media.
//!
//! [`UdpTransport`] is the real thing — `std::net::UdpSocket` datagrams,
//! one frame per datagram, on localhost or a LAN. [`LoopbackTransport`]
//! is an in-process broadcast medium driven by the *simulator's* channel
//! models: loss is sampled from a seeded [`ChannelModel`] (Bernoulli or
//! Gilbert-Elliott burst) and corruption flips a seeded bit — so a
//! multi-threaded run over loopback is exactly reproducible, which is
//! what the ci.sh soak gate and the determinism tests lean on.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dap_obs::{RingSink, TraceEmitter, TraceEvent};
use dap_simnet::{keys, ChannelModel, Metrics, SimRng};

/// A broadcast medium a node can send frames into and read frames from.
///
/// `recv` is pull-based and non-blocking-ish: `Ok(None)` means "nothing
/// right now" (timeout or signal on UDP, empty queue on loopback), so a
/// reader loop can interleave shutdown checks.
pub trait Transport: Send {
    /// Broadcasts one frame.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying medium (loopback never fails).
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Receives one frame into `buf`, returning its length, or `None`
    /// when nothing arrived within the medium's polling window.
    ///
    /// # Errors
    ///
    /// I/O errors other than the timeout family and signal
    /// interruptions.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>>;
}

/// Real UDP datagrams, one frame per datagram.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    target: Option<SocketAddr>,
}

impl UdpTransport {
    /// A sending endpoint: binds `bind` (use `127.0.0.1:0` for an
    /// ephemeral port) and addresses every frame to `target`.
    ///
    /// # Errors
    ///
    /// Bind/resolve failures.
    pub fn sender(bind: &str, target: &str) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind)?;
        let target = target.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "target resolved to nothing")
        })?;
        Ok(Self {
            socket,
            target: Some(target),
        })
    }

    /// A receiving endpoint bound to `bind`, polling with `timeout` so
    /// the read loop can check for shutdown between frames.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn receiver(bind: &str, timeout: Duration) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(timeout))?;
        Ok(Self {
            socket,
            target: None,
        })
    }

    /// The locally bound address (which port an ephemeral bind got).
    ///
    /// # Errors
    ///
    /// Propagated from the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let target = self.target.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "receiving endpoint cannot send",
            )
        })?;
        self.socket.send_to(frame, target)?;
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        datagram_or_nothing(self.socket.recv_from(buf).map(|(n, _peer)| n))
    }
}

/// Maps one `recv_from` result onto the [`Transport::recv`] contract.
/// The read timeout surfaces as `WouldBlock` or `TimedOut`; a signal
/// landing mid-wait surfaces as `Interrupted`, because a socket with a
/// receive timeout fails with `EINTR` even under `SA_RESTART`
/// (signal(7)). Both mean "no datagram", so a Ctrl-C reaches the reader
/// loop's shutdown check instead of its error path.
fn datagram_or_nothing(received: io::Result<usize>) -> io::Result<Option<usize>> {
    match received {
        Ok(n) => Ok(Some(n)),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

struct LoopbackState {
    queue: VecDeque<Vec<u8>>,
    channel: ChannelModel,
    corrupt_probability: f64,
    rng: SimRng,
    sent: u64,
    lost: u64,
    corrupted: u64,
    /// Wire-fault trace (loss/corruption injections), stamped with the
    /// send ordinal — fate is sampled at send time, so the ordinal is
    /// the deterministic "when" of the wire.
    trace: Option<TraceEmitter<RingSink>>,
}

/// A seeded in-process broadcast medium.
///
/// All clones share one FIFO; any clone may send (sender, flooder) and
/// any clone may receive. Frame fate is sampled *at send time* from the
/// shared seeded RNG, so the delivered byte stream depends only on the
/// order of `send` calls — single-driver runs are bit-reproducible no
/// matter how receiver threads are scheduled.
#[derive(Clone)]
pub struct LoopbackTransport {
    state: Arc<Mutex<LoopbackState>>,
}

impl LoopbackTransport {
    /// A loopback medium with the given loss/corruption behaviour.
    /// `channel` supplies the loss process (its delay/jitter fields are
    /// meaningless in-process and ignored); `corrupt_probability` flips
    /// one seeded bit in that fraction of delivered frames.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt_probability` is NaN or outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, channel: ChannelModel, corrupt_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corrupt_probability),
            "corruption probability must be in [0,1], got {corrupt_probability}"
        );
        Self {
            state: Arc::new(Mutex::new(LoopbackState {
                queue: VecDeque::new(),
                channel,
                corrupt_probability,
                rng: SimRng::new(seed),
                sent: 0,
                lost: 0,
                corrupted: 0,
                trace: None,
            })),
        }
    }

    /// Enables wire-fault tracing: loss/corruption injections are
    /// recorded as [`TraceEvent::FaultInjected`] under `source`, ring-
    /// bounded at `depth` records. Pick a `source` id that does not
    /// collide with the pool's shard/reader ids.
    pub fn enable_trace(&self, source: u32, depth: usize) {
        self.state.lock().expect("loopback mutex poisoned").trace =
            Some(TraceEmitter::new(source, RingSink::new(depth)));
    }

    /// Takes the wire-fault trace ring: the records collected so far
    /// and how many it shed (an empty ring when tracing is off).
    #[must_use]
    pub fn take_trace(&self) -> RingSink {
        self.state
            .lock()
            .expect("loopback mutex poisoned")
            .trace
            .take()
            .map_or_else(RingSink::default, TraceEmitter::into_sink)
    }

    /// Wire-level counters (`net.wire.*`): frames sent, lost, corrupted.
    #[must_use]
    pub fn wire_metrics(&self) -> Metrics {
        let state = self.state.lock().expect("loopback mutex poisoned");
        let mut m = Metrics::new();
        m.add(keys::NET_WIRE_SENT, state.sent);
        m.add(keys::NET_WIRE_LOST, state.lost);
        m.add(keys::NET_WIRE_CORRUPTED, state.corrupted);
        m
    }

    /// Frames currently in flight (sent, not yet received).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.state
            .lock()
            .expect("loopback mutex poisoned")
            .queue
            .len()
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut guard = self.state.lock().expect("loopback mutex poisoned");
        let state = &mut *guard;
        state.sent += 1;
        let ordinal = state.sent;
        if state.channel.sample(&mut state.rng).is_none() {
            state.lost += 1;
            if let Some(trace) = &mut state.trace {
                trace.emit(ordinal, TraceEvent::FaultInjected { kind: "wire.loss" });
            }
            return Ok(());
        }
        let mut bytes = frame.to_vec();
        if state.corrupt_probability > 0.0 && state.rng.chance(state.corrupt_probability) {
            let bit = state.rng.below((bytes.len() as u64) * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            state.corrupted += 1;
            if let Some(trace) = &mut state.trace {
                trace.emit(
                    ordinal,
                    TraceEvent::FaultInjected {
                        kind: "wire.corrupt",
                    },
                );
            }
        }
        state.queue.push_back(bytes);
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        let mut state = self.state.lock().expect("loopback mutex poisoned");
        let Some(frame) = state.queue.pop_front() else {
            return Ok(None);
        };
        let n = frame.len().min(buf.len());
        buf[..n].copy_from_slice(&frame[..n]);
        Ok(Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_in_order() {
        let mut tx = LoopbackTransport::new(1, ChannelModel::perfect(), 0.0);
        let mut rx = tx.clone();
        tx.send(b"one").unwrap();
        tx.send(b"two").unwrap();
        assert_eq!(tx.in_flight(), 2);
        let mut buf = [0u8; 16];
        assert_eq!(rx.recv(&mut buf).unwrap(), Some(3));
        assert_eq!(&buf[..3], b"one");
        assert_eq!(rx.recv(&mut buf).unwrap(), Some(3));
        assert_eq!(&buf[..3], b"two");
        assert_eq!(rx.recv(&mut buf).unwrap(), None);
    }

    #[test]
    fn loopback_loss_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut t = LoopbackTransport::new(seed, ChannelModel::lossy(0.3), 0.0);
            for i in 0..200u32 {
                t.send(&i.to_be_bytes()).unwrap();
            }
            (t.wire_metrics().get("net.wire.lost"), t.in_flight())
        };
        let (lost_a, flight_a) = run(42);
        let (lost_b, flight_b) = run(42);
        assert_eq!(lost_a, lost_b);
        assert_eq!(flight_a, flight_b);
        assert_eq!(lost_a + flight_a as u64, 200);
        // ~30% loss over 200 frames: comfortably inside [20, 100].
        assert!((20..=100).contains(&lost_a), "lost {lost_a}");
    }

    #[test]
    fn loopback_corruption_flips_exactly_one_bit() {
        let mut t = LoopbackTransport::new(9, ChannelModel::perfect(), 1.0);
        let original = [0u8; 32];
        t.send(&original).unwrap();
        let mut buf = [0u8; 32];
        t.recv(&mut buf).unwrap().unwrap();
        let flipped: u32 = original
            .iter()
            .zip(buf.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(t.wire_metrics().get("net.wire.corrupted"), 1);
    }

    #[test]
    fn udp_roundtrip_on_localhost() {
        let mut rx = UdpTransport::receiver("127.0.0.1:0", Duration::from_millis(200)).unwrap();
        let addr = rx.local_addr().unwrap();
        let mut tx = UdpTransport::sender("127.0.0.1:0", &addr.to_string()).unwrap();
        tx.send(b"over the wire").unwrap();
        let mut buf = [0u8; 64];
        let mut got = None;
        // The datagram may take a few polls to surface.
        for _ in 0..50 {
            if let Some(n) = rx.recv(&mut buf).unwrap() {
                got = Some(n);
                break;
            }
        }
        assert_eq!(got, Some(13));
        assert_eq!(&buf[..13], b"over the wire");
    }

    #[test]
    fn udp_receiver_times_out_quietly() {
        let mut rx = UdpTransport::receiver("127.0.0.1:0", Duration::from_millis(10)).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(rx.recv(&mut buf).unwrap(), None);
    }

    #[test]
    fn timeouts_and_signals_are_no_datagram_and_other_errors_surface() {
        use io::ErrorKind::{ConnectionRefused, Interrupted, Other, TimedOut, WouldBlock};
        assert_eq!(datagram_or_nothing(Ok(7)).unwrap(), Some(7));
        for kind in [WouldBlock, TimedOut, Interrupted] {
            let got = datagram_or_nothing(Err(io::Error::from(kind)));
            assert_eq!(got.unwrap(), None, "{kind:?}");
        }
        for kind in [ConnectionRefused, Other] {
            let got = datagram_or_nothing(Err(io::Error::from(kind)));
            assert_eq!(got.unwrap_err().kind(), kind);
        }
    }

    #[test]
    fn udp_receiving_endpoint_refuses_to_send() {
        let mut rx = UdpTransport::receiver("127.0.0.1:0", Duration::from_millis(10)).unwrap();
        assert!(rx.send(b"nope").is_err());
    }
}
