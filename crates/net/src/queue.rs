//! A bounded MPSC ingress queue with an explicit overflow contract, a
//! byte arena, and a batch take.
//!
//! Each receiver shard drains one of these. A push copies its datagram
//! into the queue's byte arena and enqueues the item built from where
//! the bytes landed, all under one lock. The overflow policy decides a
//! full queue: [`OverflowPolicy::DropCount`] rejects the push so the
//! reader can count the drop and keep the socket drained (the UDP
//! posture: the kernel buffer, not our worker, is the scarce resource),
//! while [`OverflowPolicy::Block`] parks the producer until the worker
//! takes (the loopback posture, where blocking keeps the run
//! deterministic instead of dropping on scheduler timing).
//!
//! The worker takes *everything* queued at once: [`IngressQueue::take`]
//! swaps the queue's items and arena with the worker's spare pair, so a
//! batch of any size costs one lock, and the two arenas are reused
//! turn about instead of allocating per datagram. Neither side touches
//! a condvar unless the other is parked on it — `notify_one` is a futex
//! syscall even with no waiter, about ten times an uncontended lock and
//! unlock (~260–300 ns against ~25–40 ns on a 2-vCPU KVM guest), and
//! once per frame on each side it cost more than the μMAC verify.
//! Parked readers and writers are counted under the mutex, so a waiter
//! is counted before it sleeps and a wakeup cannot be lost.
//!
//! A parked reader is woken by one rule. A datagram push wakes it once
//! the queue holds `wake_at` items; a control item
//! ([`IngressQueue::push_item`]), [`IngressQueue::wake_pending`] and
//! [`IngressQueue::close`] wake it whatever the queue holds. The pool
//! sets `wake_at` to 1 on an unwindowed shard, which verifies each
//! frame as it takes it, and to half the depth on a windowed one, which
//! only buffers frames until the next tick: waking it earlier buys no
//! latency, only a park and a context switch every few datagrams. Half,
//! not all, leaves a [`OverflowPolicy::DropCount`] producer half the
//! queue as slack while the woken reader gets scheduled. A push that
//! finds the arena full below the threshold wakes the reader too, so a
//! full queue never waits on a sleeping reader.
//!
//! Built from `Mutex` + `Condvar` only — the workspace forbids `unsafe`,
//! so a lock-free ring is off the table.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use dap_obs::TimeSource;

use crate::pool::OverflowPolicy;

/// Arena capacity a queue keeps across takes whatever its traffic:
/// a full queue of ordinary frames fits in it, so steady state never
/// reallocates, while what a burst of maximum-size datagrams grew is
/// released at the next take that needs far less (see
/// [`IngressQueue::take`]).
pub(crate) const ARENA_RETAIN: usize = 1 << 20;

/// Why a push was rejected, so the caller can count the drop (and
/// attribute it: a full queue is congestion, a closed queue is shutdown
/// — different telemetry).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue was at capacity ([`OverflowPolicy::DropCount`] only),
    /// holding `depth` items.
    Full {
        /// Items queued when the push was rejected.
        depth: usize,
    },
    /// The queue has been closed; no push can ever succeed again.
    Closed,
}

/// What a take yielded; see [`IngressQueue::take`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Take {
    /// The batch now holds every item that was queued.
    Batch,
    /// The timeout elapsed with the queue open and empty.
    Idle,
    /// The queue is closed *and* drained — the worker is done.
    Closed,
}

/// Where a pushed datagram's bytes landed in the arena, handed to the
/// item constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// Byte offset into the arena.
    pub(crate) offset: u32,
    /// Datagram length.
    pub(crate) len: u32,
    /// How long the push sat parked on a full queue before the copy, on
    /// the clock the push was given (0 when it did not park).
    pub(crate) parked_ns: u64,
}

/// Items in FIFO order plus the byte arena their datagrams live in.
/// The queue fills one; a take swaps it with the worker's.
#[derive(Debug)]
pub(crate) struct Batch<T> {
    /// Queued items, oldest first.
    pub(crate) items: VecDeque<T>,
    /// Datagram bytes the items' [`Slot`]s index.
    pub(crate) bytes: Vec<u8>,
}

impl<T> Default for Batch<T> {
    fn default() -> Self {
        Self {
            items: VecDeque::new(),
            bytes: Vec::new(),
        }
    }
}

struct State<T> {
    batch: Batch<T>,
    closed: bool,
    /// Consumers waiting on `readable`; a wake signals only when > 0.
    parked_readers: usize,
    /// Producers waiting on `writable`; a take notifies only when > 0.
    parked_writers: usize,
    /// Signals sent on `readable`, which the wake-rule tests count.
    #[cfg(test)]
    reader_wakes: usize,
}

impl<T> State<T> {
    /// Whether a `len`-byte push fits: an item slot free, and the arena
    /// still addressable by `u32` offsets after it.
    fn has_room(&self, capacity: usize, len: usize) -> bool {
        self.batch.items.len() < capacity && self.batch.bytes.len() <= u32::MAX as usize - len
    }

    /// Whether to signal `readable` now: a reader is parked and `due`.
    fn wake_reader(&mut self, due: bool) -> bool {
        let wake = due && self.parked_readers > 0;
        #[cfg(test)]
        {
            self.reader_wakes += usize::from(wake);
        }
        wake
    }
}

/// A bounded multi-producer queue; see the module docs.
pub(crate) struct IngressQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or the queue closes.
    readable: Condvar,
    /// Signalled when a take frees the queue or the queue closes.
    writable: Condvar,
    capacity: usize,
    /// Queued items at which a datagram push wakes a parked reader.
    wake_at: usize,
}

impl<T> IngressQueue<T> {
    /// A queue holding at most `capacity` items, whose datagram pushes
    /// wake a parked reader once `wake_at` items are queued (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `wake_at` lies outside
    /// `1..=capacity`.
    #[must_use]
    pub(crate) fn new(capacity: usize, wake_at: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        assert!(
            (1..=capacity).contains(&wake_at),
            "wake threshold {wake_at} outside 1..={capacity}"
        );
        Self {
            state: Mutex::new(State {
                batch: Batch::default(),
                closed: false,
                parked_readers: 0,
                parked_writers: 0,
                #[cfg(test)]
                reader_wakes: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity,
            wake_at,
        }
    }

    /// Copies the datagram `bytes` into the arena and enqueues
    /// `make(slot)`, where `slot` says where the bytes landed. `make`
    /// runs under the lock, after the copy. A full queue rejects the
    /// push under [`OverflowPolicy::DropCount`] and parks the caller
    /// under [`OverflowPolicy::Block`]; `clock`, when given, times the
    /// park into [`Slot::parked_ns`]. The push wakes a parked reader
    /// only once `wake_at` items are queued.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity under `DropCount`,
    /// [`PushError::Closed`] after [`IngressQueue::close`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than `u32::MAX`.
    pub(crate) fn push(
        &self,
        bytes: &[u8],
        overflow: OverflowPolicy,
        clock: Option<&TimeSource>,
        make: impl FnOnce(Slot) -> T,
    ) -> Result<(), PushError> {
        self.enqueue(bytes, overflow, clock, self.wake_at, make)
    }

    /// Enqueues a control item, which carries no bytes and always wakes
    /// a parked reader. Same overflow contract as
    /// [`IngressQueue::push`].
    ///
    /// # Errors
    ///
    /// As [`IngressQueue::push`].
    pub(crate) fn push_item(&self, item: T, overflow: OverflowPolicy) -> Result<(), PushError> {
        self.enqueue(&[], overflow, None, 1, |_| item)
    }

    /// [`IngressQueue::push`], waking a parked reader once `wake_at`
    /// items are queued.
    fn enqueue(
        &self,
        bytes: &[u8],
        overflow: OverflowPolicy,
        clock: Option<&TimeSource>,
        wake_at: usize,
        make: impl FnOnce(Slot) -> T,
    ) -> Result<(), PushError> {
        let len = u32::try_from(bytes.len()).expect("datagram longer than u32::MAX bytes");
        let mut state = self.state.lock().expect("queue mutex poisoned");
        let mut parked_ns = 0;
        while !state.closed && !state.has_room(self.capacity, bytes.len()) {
            // Only the reader can make room. A queue full of items woke
            // it at the threshold; one whose arena filled first did not.
            let below = state.batch.items.len() < wake_at;
            if state.wake_reader(below) {
                self.readable.notify_one();
            }
            if overflow == OverflowPolicy::DropCount {
                return Err(PushError::Full {
                    depth: state.batch.items.len(),
                });
            }
            let parked_at = clock.map(TimeSource::now_ns);
            state.parked_writers += 1;
            state = self.writable.wait(state).expect("queue mutex poisoned");
            state.parked_writers -= 1;
            if let (Some(start), Some(clock)) = (parked_at, clock) {
                parked_ns += clock.now_ns().saturating_sub(start);
            }
        }
        if state.closed {
            return Err(PushError::Closed);
        }
        let offset =
            u32::try_from(state.batch.bytes.len()).expect("has_room keeps offsets within u32");
        state.batch.bytes.extend_from_slice(bytes);
        let item = make(Slot {
            offset,
            len,
            parked_ns,
        });
        state.batch.items.push_back(item);
        let queued = state.batch.items.len();
        let wake = state.wake_reader(queued >= wake_at);
        drop(state);
        if wake {
            self.readable.notify_one();
        }
        Ok(())
    }

    /// Wakes a parked reader if any item is queued, below the threshold
    /// or not, so that everything pushed so far gets taken.
    pub(crate) fn wake_pending(&self) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        let queued = !state.batch.items.is_empty();
        let wake = state.wake_reader(queued);
        drop(state);
        if wake {
            self.readable.notify_one();
        }
    }

    /// Takes every queued item under one lock: swaps the queue's batch
    /// with `batch` — whose items the caller has drained, and whose
    /// arena this clears — and returns [`Take::Batch`]. The worker's
    /// old arena becomes the queue's, shrunk first when its capacity is
    /// far above what the batch just taken used, so a burst of
    /// maximum-size datagrams holds memory only until the next take.
    /// Parks while the queue is open and empty — at most `timeout` when
    /// one is given, then [`Take::Idle`] — and returns [`Take::Closed`]
    /// once the queue is closed *and* drained, so every item pushed
    /// before `close` is still delivered.
    pub(crate) fn take(&self, batch: &mut Batch<T>, timeout: Option<Duration>) -> Take {
        debug_assert!(batch.items.is_empty(), "take into an undrained batch");
        batch.bytes.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.state.lock().expect("queue mutex poisoned");
        loop {
            if !state.batch.items.is_empty() {
                std::mem::swap(&mut state.batch, batch);
                release_slack(&mut state.batch.bytes, batch.bytes.len());
                let wake = state.parked_writers > 0;
                drop(state);
                if wake {
                    // The whole queue just freed up: every parked
                    // producer has room now.
                    self.writable.notify_all();
                }
                return Take::Batch;
            }
            if state.closed {
                return Take::Closed;
            }
            state.parked_readers += 1;
            let timed_out = match deadline {
                None => {
                    state = self.readable.wait(state).expect("queue mutex poisoned");
                    false
                }
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    let (next, result) = self
                        .readable
                        .wait_timeout(state, remaining)
                        .expect("queue mutex poisoned");
                    state = next;
                    result.timed_out()
                }
            };
            state.parked_readers -= 1;
            if timed_out && state.batch.items.is_empty() && !state.closed {
                return Take::Idle;
            }
        }
    }

    /// Closes the queue: pushes start failing, takes drain then end.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        state.closed = true;
        #[cfg(test)]
        {
            state.reader_wakes += 1;
        }
        drop(state);
        self.readable.notify_all();
        self.writable.notify_all();
    }
}

/// Shrinks an empty arena whose capacity is far above `need` — more
/// than four times it and above [`ARENA_RETAIN`] — to the larger of the
/// two. `need` predicts the arena's next use: at a take, the bytes of
/// the batch just taken; at a window flush, those of the window just
/// flushed. Ordinary traffic stays under both limits and never
/// reallocates.
pub(crate) fn release_slack(arena: &mut Vec<u8>, need: usize) {
    debug_assert!(arena.is_empty(), "release_slack on a live arena");
    if arena.capacity() > ARENA_RETAIN.max(need.saturating_mul(4)) {
        arena.shrink_to(ARENA_RETAIN.max(need));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_simnet::SimRng;
    use std::sync::Arc;

    const BLOCK: OverflowPolicy = OverflowPolicy::Block;
    const DROP: OverflowPolicy = OverflowPolicy::DropCount;

    fn push<T>(q: &IngressQueue<T>, item: T, overflow: OverflowPolicy) -> Result<(), PushError> {
        q.push_item(item, overflow)
    }

    /// Spins until the queue counts the given parked readers and
    /// writers, so a test acts on a thread known to be asleep.
    fn wait_parked<T>(q: &IngressQueue<T>, readers: usize, writers: usize) {
        loop {
            let state = q.state.lock().unwrap();
            if state.parked_readers == readers && state.parked_writers == writers {
                return;
            }
            drop(state);
            std::thread::yield_now();
        }
    }

    /// A slot's bytes in `arena`.
    fn bytes_at(arena: &[u8], slot: Slot) -> &[u8] {
        &arena[slot.offset as usize..][..slot.len as usize]
    }

    /// Takes whatever is queued (without waiting) into a fresh batch.
    fn take_now<T>(q: &IngressQueue<T>) -> (Take, Vec<T>) {
        let mut batch = Batch::default();
        let took = q.take(&mut batch, Some(Duration::ZERO));
        (took, batch.items.into_iter().collect())
    }

    #[test]
    fn take_reports_idle_batch_and_closed() {
        let q = IngressQueue::new(4, 1);
        assert_eq!(take_now(&q), (Take::Idle, vec![]));
        push(&q, 5, DROP).unwrap();
        push(&q, 6, DROP).unwrap();
        assert_eq!(take_now(&q), (Take::Batch, vec![5, 6]));
        push(&q, 7, DROP).unwrap();
        q.close();
        // Items pushed before close still drain, then Closed — never
        // Idle on a closed queue.
        assert_eq!(take_now(&q), (Take::Batch, vec![7]));
        assert_eq!(take_now(&q), (Take::Closed, vec![]));
        assert_eq!(take_now(&q), (Take::Closed, vec![]));
    }

    #[test]
    fn fifo_roundtrip() {
        let q = IngressQueue::new(4, 1);
        push(&q, 1, BLOCK).unwrap();
        push(&q, 2, DROP).unwrap();
        assert_eq!(take_now(&q), (Take::Batch, vec![1, 2]));
        push(&q, 3, BLOCK).unwrap();
        assert_eq!(take_now(&q), (Take::Batch, vec![3]));
    }

    #[test]
    fn drop_count_rejects_when_full() {
        let q = IngressQueue::new(2, 1);
        push(&q, "a", DROP).unwrap();
        push(&q, "b", DROP).unwrap();
        assert_eq!(push(&q, "c", DROP), Err(PushError::Full { depth: 2 }));
        assert_eq!(take_now(&q), (Take::Batch, vec!["a", "b"]));
        push(&q, "c", DROP).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = IngressQueue::new(4, 1);
        push(&q, 7, DROP).unwrap();
        q.close();
        assert_eq!(push(&q, 8, DROP), Err(PushError::Closed));
        assert_eq!(push(&q, 9, BLOCK), Err(PushError::Closed));
        assert_eq!(take_now(&q), (Take::Batch, vec![7]));
        assert_eq!(take_now(&q), (Take::Closed, vec![]));
    }

    #[test]
    fn push_blocking_applies_backpressure() {
        let q = Arc::new(IngressQueue::new(1, 1));
        push(&q, 0u32, BLOCK).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || push(&q, 1, BLOCK).is_ok())
        };
        // The producer must be parked until we take.
        wait_parked(&q, 0, 1);
        assert_eq!(take_now(&q), (Take::Batch, vec![0]));
        assert!(producer.join().unwrap());
        assert_eq!(take_now(&q), (Take::Batch, vec![1]));
    }

    #[test]
    fn bytes_land_in_the_arena_in_push_order() {
        let q = IngressQueue::new(4, 1);
        for datagram in [&b"ab"[..], b"", b"cde"] {
            q.push(datagram, DROP, None, |slot| slot).unwrap();
        }
        let mut batch = Batch::default();
        assert_eq!(q.take(&mut batch, None), Take::Batch);
        let got: Vec<&[u8]> = batch
            .items
            .iter()
            .map(|&slot| bytes_at(&batch.bytes, slot))
            .collect();
        assert_eq!(got, [&b"ab"[..], b"", b"cde"]);
        assert_eq!(batch.items[0].parked_ns, 0);
    }

    /// The wake protocol under the tightest queue: one slot, a producer
    /// that parks on nearly every push, a consumer that parks on nearly
    /// every take, seeded yields on both sides to vary the interleaving.
    /// A lost wakeup hangs one side, which the timeout turns into a
    /// failure; every item must arrive exactly once, in order. The
    /// deeper queue wakes its reader only at half full, so the producer
    /// also parks on a full queue whose reader it woke at the threshold,
    /// and the last few items reach the reader only through `close`.
    #[test]
    fn capacity_one_block_queue_delivers_every_item_in_order() {
        const N: u64 = 100_000;
        for (capacity, wake_at) in [(1, 1), (8, 4)] {
            let q = Arc::new(IngressQueue::new(capacity, wake_at));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let producer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut rng = SimRng::new(0x5eed_0001);
                    for i in 0..N {
                        if rng.below(4) == 0 {
                            std::thread::yield_now();
                        }
                        q.push(&i.to_le_bytes(), BLOCK, None, |slot| (i, slot))
                            .expect("open queue");
                    }
                    q.close();
                })
            };
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut rng = SimRng::new(0x5eed_0002);
                    let mut batch = Batch::default();
                    let mut next = 0u64;
                    while q.take(&mut batch, None) == Take::Batch {
                        for (i, slot) in batch.items.drain(..) {
                            let bytes = bytes_at(&batch.bytes, slot);
                            assert_eq!(i, next, "out of order or duplicated");
                            assert_eq!(bytes, i.to_le_bytes(), "arena bytes of item {i}");
                            next += 1;
                        }
                        if rng.below(4) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    done_tx.send(next).expect("test alive");
                })
            };
            let delivered = done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("lost wakeup: the handoff hung");
            assert_eq!(delivered, N, "every item arrives exactly once ({capacity})");
            producer.join().unwrap();
            consumer.join().unwrap();
        }
    }

    /// The wake rule, read from the signals the queue sends rather than
    /// from timing: with a reader parked on a queue of 8 that wakes at
    /// 4, datagram pushes below the threshold send nothing, and the
    /// threshold push, a control item, `wake_pending` with an item
    /// queued and `close` send one each.
    #[test]
    fn a_parked_reader_is_woken_at_the_threshold_or_by_a_control_item() {
        let q = Arc::new(IngressQueue::new(8, 4));
        let (taken_tx, taken) = std::sync::mpsc::channel();
        let reader = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut batch = Batch::default();
                while q.take(&mut batch, None) == Take::Batch {
                    let items: Vec<u32> = batch.items.drain(..).collect();
                    taken_tx.send(items).expect("test alive");
                }
            })
        };
        let wakes = || q.state.lock().unwrap().reader_wakes;
        let datagram = |item: u32| q.push(b"d", DROP, None, |_| item).unwrap();
        wait_parked(&q, 1, 0);
        for item in 1..=3 {
            datagram(item);
        }
        assert_eq!(wakes(), 0, "three datagrams stay below the threshold");
        datagram(4);
        assert_eq!(wakes(), 1, "the threshold push");
        assert_eq!(taken.recv().unwrap(), [1, 2, 3, 4]);
        wait_parked(&q, 1, 0);
        q.push_item(5, DROP).unwrap();
        assert_eq!(wakes(), 2, "a control item");
        assert_eq!(taken.recv().unwrap(), [5]);
        wait_parked(&q, 1, 0);
        q.wake_pending();
        assert_eq!(wakes(), 2, "nothing queued, nothing to wake for");
        datagram(6);
        assert_eq!(wakes(), 2, "one datagram stays below the threshold");
        q.wake_pending();
        assert_eq!(wakes(), 3, "an item is queued");
        assert_eq!(taken.recv().unwrap(), [6]);
        wait_parked(&q, 1, 0);
        q.close();
        assert_eq!(wakes(), 4, "close");
        reader.join().unwrap();
    }

    #[test]
    fn close_ends_a_parked_take() {
        let q = Arc::new(IngressQueue::<u8>::new(1, 1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.take(&mut Batch::default(), None))
        };
        wait_parked(&q, 1, 0);
        q.close();
        assert_eq!(consumer.join().unwrap(), Take::Closed);
    }

    #[test]
    fn close_fails_a_push_parked_on_a_full_queue() {
        let q = Arc::new(IngressQueue::new(1, 1));
        push(&q, 0u8, BLOCK).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || push(&q, 1, BLOCK))
        };
        wait_parked(&q, 0, 1);
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError::Closed));
        // What was queued before the close still drains.
        assert_eq!(take_now(&q), (Take::Batch, vec![0]));
    }

    #[test]
    fn a_parked_push_reports_its_park_on_the_given_clock() {
        let manual = dap_obs::ManualTime::new();
        let time = TimeSource::manual(manual.clone());
        let q = Arc::new(IngressQueue::new(1, 1));
        push(
            &q,
            Slot {
                offset: 0,
                len: 0,
                parked_ns: 0,
            },
            BLOCK,
        )
        .unwrap();
        let producer = {
            let (q, time) = (Arc::clone(&q), time.clone());
            std::thread::spawn(move || q.push(b"x", BLOCK, Some(&time), |slot| slot))
        };
        wait_parked(&q, 0, 1);
        manual.advance_ns(700);
        assert_eq!(take_now(&q).1.len(), 1);
        producer.join().unwrap().unwrap();
        assert_eq!(take_now(&q).1[0].parked_ns, 700);
    }

    /// A hostile burst of `depth` maximum-size datagrams grows an arena
    /// to ~depth × 64 KiB. Once the burst batch is taken, the next take
    /// of ordinary traffic shrinks that arena back, so both of the
    /// queue's arenas end under [`ARENA_RETAIN`].
    #[test]
    fn a_burst_arena_shrinks_after_one_ordinary_take() {
        const DEPTH: usize = 64;
        let q = IngressQueue::new(DEPTH, 1);
        let max = vec![0xabu8; dap_core::codec::MAX_FRAME_LEN];
        for _ in 0..DEPTH {
            q.push(&max, DROP, None, |_| ()).unwrap();
        }
        let mut batch = Batch::default();
        assert_eq!(q.take(&mut batch, None), Take::Batch);
        let burst = batch.bytes.capacity();
        assert!(burst >= DEPTH * max.len(), "the burst grew the arena");
        batch.items.clear();
        for _ in 0..DEPTH {
            q.push(&[0x01; 15], DROP, None, |_| ()).unwrap();
        }
        assert_eq!(q.take(&mut batch, None), Take::Batch);
        // The worker now holds the ordinary batch; the burst arena went
        // back to the queue as its spare.
        let spare = q.state.lock().unwrap().batch.bytes.capacity();
        assert!(spare <= ARENA_RETAIN, "burst arena kept {spare} B");
        assert!(batch.bytes.capacity() <= ARENA_RETAIN);
    }

    #[test]
    fn release_slack_keeps_what_ordinary_traffic_needs() {
        let mut arena = Vec::with_capacity(ARENA_RETAIN);
        release_slack(&mut arena, 10);
        assert_eq!(arena.capacity(), ARENA_RETAIN, "the floor is kept");
        let mut arena = Vec::with_capacity(8 * ARENA_RETAIN);
        release_slack(&mut arena, 3 * ARENA_RETAIN);
        assert_eq!(arena.capacity(), 8 * ARENA_RETAIN, "within 4x of need");
        release_slack(&mut arena, ARENA_RETAIN / 2);
        assert!(arena.capacity() <= ARENA_RETAIN, "far above need");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = IngressQueue::<u8>::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "wake threshold")]
    fn a_threshold_past_capacity_rejected() {
        let _ = IngressQueue::<u8>::new(4, 5);
    }
}
