//! A long-running receiver's heap stays flat: what a `DapReceiver` holds
//! after ten times the intervals is what it held after the first tenth,
//! however many messages it authenticated in between. The bound the
//! paper's memory analysis (`(d + 2)·m·56` bits of buffers) relies on.
//!
//! A counting global allocator measures it, so this file holds one test:
//! no other test thread allocates while it reads the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dap_core::{Announce, DapParams, DapReceiver, DapSender, Reveal};
use dap_crypto::Mac80;
use dap_simnet::{SimDuration, SimRng, SimTime};

/// [`System`] plus a count of live heap bytes. The counter publishes no
/// other data, so `Relaxed` is enough.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Intervals before the first reading; the second comes after ten times
/// as many.
const N: u64 = 200;

/// Live bytes the two readings may differ by: a reservoir or map node
/// that happens to be resident at one reading and not the other.
const SLACK: usize = 512;

#[test]
fn receiver_heap_is_flat_over_ten_times_the_intervals() {
    // A flood at p = 0.8 against m = 4 buffers, every frame built before
    // the receiver sees any, so only the receiver allocates in between.
    let params = DapParams::new(SimDuration(100), 1, 0, 4);
    let mut sender = DapSender::new(b"heap", (10 * N) as usize + 1, params);
    let mut rng = SimRng::new(58);
    let frames: Vec<(Vec<Announce>, Reveal)> = (1..=10 * N)
        .map(|i| {
            let mut announces: Vec<Announce> = (0..4)
                .map(|_| {
                    let mut mac = [0u8; Mac80::LEN];
                    rng.fill_bytes(&mut mac);
                    Announce {
                        index: i,
                        mac: Mac80::from_slice(&mac).expect("fixed length"),
                    }
                })
                .collect();
            let genuine = sender
                .announce(i, format!("reading {i}").as_bytes())
                .expect("chain covers every interval");
            announces.insert(rng.below(5) as usize, genuine);
            (announces, sender.reveal(i).expect("announced"))
        })
        .collect();
    let mut receiver = DapReceiver::new(sender.bootstrap(), b"heap-rx");
    let mut authenticated = 0u64;
    let mut live_after = |frames: &[(Vec<Announce>, Reveal)]| {
        for (announces, reveal) in frames {
            let i = reveal.index;
            for announce in announces {
                receiver.on_announce(announce, SimTime((i - 1) * 100 + 10), &mut rng);
            }
            if receiver
                .on_reveal(reveal, SimTime(i * 100 + 10))
                .is_authenticated()
            {
                authenticated += 1;
            }
        }
        LIVE.load(Ordering::Relaxed)
    };
    let first = live_after(&frames[..N as usize]);
    let last = live_after(&frames[N as usize..]);
    assert!(
        last.abs_diff(first) <= SLACK,
        "receiver heap went from {first} B after {N} intervals to {last} B after {}",
        10 * N
    );
    // Four forged copies against four buffers keep the genuine one four
    // times in five: most intervals authenticate.
    assert!(authenticated > 10 * N / 2, "{authenticated}");
}
