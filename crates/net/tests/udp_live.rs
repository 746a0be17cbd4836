//! End-to-end over real sockets: a DAP sender and a sharded receiver
//! pool exchange authentic traffic across two UDP sockets on localhost.
//!
//! Real wires have real clocks, which tests cannot assert against — so
//! the receive timestamps come from a [`ManualClock`] the test advances
//! in lockstep with its sends, and after every datagram the test polls
//! the pool's live frame counter before moving time forward. That keeps
//! the run order-deterministic while the bytes still cross the kernel's
//! UDP stack.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dap_core::{codec, DapMessage, DapParams, DapSender};
use dap_net::clock::{ManualClock, NetClock};
use dap_net::pool::{DapShard, OverflowPolicy, PoolConfig, PoolObs, ReceiverPool, RoutePolicy};
use dap_net::transport::{Transport, UdpTransport};
use dap_simnet::{SimDuration, SimTime};

const INTERVALS: u64 = 12;

fn during(i: u64) -> SimTime {
    SimTime((i - 1) * 100 + 10)
}

/// Polls `cond` until it holds or a wall-clock deadline passes.
fn await_or_die(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn dap_authenticates_across_real_udp_sockets() {
    let params = DapParams::new(SimDuration(100), 1, 0, 4);
    let mut sender = DapSender::new(b"udp-live", INTERVALS as usize + 2, params);
    let bootstrap = sender.bootstrap();

    // Receiver side: a real socket on an ephemeral port feeding the pool.
    let mut rx_transport =
        UdpTransport::receiver("127.0.0.1:0", Duration::from_millis(5)).expect("bind receiver");
    let rx_addr = rx_transport.local_addr().expect("receiver addr");
    let pool = ReceiverPool::spawn_with_obs(
        PoolConfig {
            shards: 3,
            queue_depth: 64,
            overflow: OverflowPolicy::Block,
            route: RoutePolicy::ByInterval,
            ..PoolConfig::default()
        },
        77,
        |shard| DapShard::new(bootstrap, &[b'u', shard as u8]),
        PoolObs::default(),
    );
    let handle = pool.handle();
    let live = handle.live();
    let clock = ManualClock::default();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let handle = handle.clone();
        let clock = clock.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; codec::MAX_FRAME_LEN];
            while !stop.load(Ordering::SeqCst) {
                match rx_transport.recv(&mut buf) {
                    Ok(Some(n)) => {
                        handle.ingest(&buf[..n], clock.now());
                    }
                    Ok(None) => {}
                    Err(e) => panic!("receiver socket died: {e}"),
                }
            }
        })
    };

    // Sender side: a second real socket aimed at the receiver.
    let mut tx = UdpTransport::sender("127.0.0.1:0", &rx_addr.to_string()).expect("bind sender");
    let mut sent = 0u64;
    let send_and_sync = |tx: &mut UdpTransport, frame: &[u8], sent: &mut u64| {
        tx.send(frame).expect("udp send");
        *sent += 1;
        let want = *sent;
        await_or_die("frame ingest", || live.frames() >= want);
    };

    for i in 1..=INTERVALS {
        clock.set(during(i));
        let announce = sender
            .announce(i, format!("udp reading {i}").as_bytes())
            .unwrap();
        let frame = codec::encode(&DapMessage::Announce(announce)).unwrap();
        send_and_sync(&mut tx, &frame, &mut sent);
        if i > 1 {
            let reveal = sender.reveal(i - 1).unwrap();
            let frame = codec::encode(&DapMessage::Reveal(reveal)).unwrap();
            send_and_sync(&mut tx, &frame, &mut sent);
        }
    }
    clock.set(during(INTERVALS + 1));
    let reveal = sender.reveal(INTERVALS).unwrap();
    let frame = codec::encode(&DapMessage::Reveal(reveal)).unwrap();
    send_and_sync(&mut tx, &frame, &mut sent);

    await_or_die("all reveals authenticated", || {
        live.authenticated() >= INTERVALS
    });
    stop.store(true, Ordering::SeqCst);
    reader.join().expect("reader thread");
    let metrics = pool.shutdown_with_report().registry.into_counters();

    assert_eq!(metrics.get("net.ingress.frames"), sent);
    assert_eq!(metrics.get("net.announce.stored"), INTERVALS);
    assert_eq!(metrics.get("net.reveal.total"), INTERVALS);
    assert_eq!(metrics.get("net.reveal.auth"), INTERVALS);
    assert_eq!(metrics.get("net.reveal.weak_rejected"), 0);
    assert_eq!(metrics.get("net.decode.errors"), 0);
    assert_eq!(metrics.get("net.ingress.dropped"), 0);
}
