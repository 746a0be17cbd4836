//! Authenticating a reveal allocates nothing: the chain anchor walks a
//! gap without collecting its keys, and the receiver caches none. That
//! holds for in-order reveals, for a duplicate behind the anchor, and
//! for a fresh receiver whose first reveal re-anchors across a long gap.
//!
//! A counting global allocator measures it, so this file holds one test:
//! no other test thread allocates while it reads the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dap_core::{DapParams, DapReceiver, DapSender, RevealOutcome};
use dap_simnet::{SimDuration, SimRng, SimTime};

/// [`System`] plus a count of allocations made. The counter publishes no
/// other data, so `Relaxed` is enough.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn during(i: u64) -> SimTime {
    SimTime((i - 1) * 100 + 10)
}

#[test]
fn reveals_allocate_nothing() {
    let params = DapParams::new(SimDuration(100), 1, 0, 4);
    let mut sender = DapSender::new(b"alloc", 1000, params);
    let mut rng = SimRng::new(3);
    let frames: Vec<_> = (1..=100u64)
        .map(|i| {
            let announce = sender.announce(i, b"reading").expect("within the chain");
            (announce, sender.reveal(i).expect("announced"))
        })
        .collect();

    let mut receiver = DapReceiver::new(sender.bootstrap(), b"rx");
    for (announce, reveal) in &frames {
        let i = reveal.index;
        receiver.on_announce(announce, during(i), &mut rng);
        let (outcome, made) = counted(|| receiver.on_reveal(reveal, during(i + 1)));
        assert!(outcome.is_authenticated(), "interval {i}: {outcome:?}");
        assert_eq!(made, 0, "in-order reveal {i}");
    }
    // A duplicate behind the anchor is checked against the key derived
    // there.
    let (outcome, made) = counted(|| receiver.on_reveal(&frames[49].1, during(101)));
    assert_eq!(outcome, RevealOutcome::NoCandidate { index: 50 });
    assert_eq!(made, 0, "duplicate reveal behind the anchor");

    // A fresh receiver's first reveal walks 900 intervals of gap.
    sender.announce(900, b"late").expect("within the chain");
    let reveal = sender.reveal(900).expect("announced");
    let mut fresh = DapReceiver::new(sender.bootstrap(), b"rx");
    let (outcome, made) = counted(|| fresh.on_reveal(&reveal, during(901)));
    assert_eq!(outcome, RevealOutcome::NoCandidate { index: 900 });
    assert_eq!(fresh.stats().max_recovery_depth, 900);
    assert_eq!(made, 0, "first reveal at interval 900");
}
