//! Multi-buffer random selection — the DoS-mitigation shared by
//! multi-level μTESLA (for CDMs) and DAP (for μMACs).
//!
//! A receiver that must buffer unverifiable packets is a memory-DoS
//! target: an attacker floods forged copies and the authentic one is
//! crowded out. The countermeasure is **reservoir sampling** over `m`
//! buffers: the `k`-th copy offered within a scope (e.g. one interval) is
//!
//! * stored directly while an empty buffer exists (`k ≤ m`), and
//! * otherwise kept with probability `m/k`, replacing a uniformly random
//!   occupant.
//!
//! The classic invariant follows by induction: after `n` offers, *every*
//! copy — in particular the authentic one — survives with probability
//! exactly `m/n`, so the attacker gains nothing by reordering or timing
//! its flood. With forged fraction `p`, the receiver ends up holding at
//! least one authentic copy with probability `P = 1 − p^m` (§IV-A).
//!
//! (Algorithm 2 in the paper writes the occupancy test as `k < m`; the
//! standard reservoir scheme stores while `k ≤ m`. We implement the
//! standard scheme — the paper's own survival analysis `m/n` assumes it.)

use dap_simnet::SimRng;

/// What happened to an offered copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OfferOutcome {
    /// Stored into a previously empty buffer.
    StoredEmpty,
    /// Stored by evicting a random previous occupant.
    StoredReplaced,
    /// Discarded by the sampling coin.
    Dropped,
}

impl OfferOutcome {
    /// `true` when the copy was kept.
    #[must_use]
    pub fn is_stored(self) -> bool {
        !matches!(self, OfferOutcome::Dropped)
    }
}

/// An `m`-buffer pool with uniform-survival reservoir semantics.
///
/// ```
/// use dap_tesla::ReservoirBuffer;
/// use dap_simnet::SimRng;
///
/// let mut rng = SimRng::new(7);
/// let mut pool: ReservoirBuffer<u32> = ReservoirBuffer::new(2);
/// for copy in 0..10 {
///     pool.offer(copy, &mut rng);
/// }
/// assert_eq!(pool.len(), 2);
/// assert_eq!(pool.offered(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct ReservoirBuffer<T> {
    capacity: usize,
    entries: Vec<T>,
    offered: u64,
}

impl<T> ReservoirBuffer<T> {
    /// Creates a pool with `capacity` buffers (the paper's `m`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one buffer");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
            offered: 0,
        }
    }

    /// Offers one copy; see the module docs for the keep probability.
    pub fn offer(&mut self, item: T, rng: &mut SimRng) -> OfferOutcome {
        self.offer_with(|| item, rng)
    }

    /// Offers one copy that is built only if the pool keeps it.
    ///
    /// The coin is flipped first, and its draws depend only on the offer
    /// count and `m`, never on the copy. So `make` runs exactly once per
    /// stored outcome and never for a [`OfferOutcome::Dropped`] one, and
    /// the outcome, the entries and the RNG's draws are those of
    /// `offer(make(), rng)`. A receiver whose copy costs a MAC to build
    /// spends nothing on the copies the flood gets sampled out.
    pub fn offer_with(&mut self, make: impl FnOnce() -> T, rng: &mut SimRng) -> OfferOutcome {
        self.offered += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(make());
            return OfferOutcome::StoredEmpty;
        }
        // k-th copy survives with probability m/k.
        if rng.below(self.offered) >= self.capacity as u64 {
            return OfferOutcome::Dropped;
        }
        let victim = rng.below(self.capacity as u64) as usize;
        self.entries[victim] = make();
        OfferOutcome::StoredReplaced
    }

    /// Number of buffers (`m`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied buffers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no buffer is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Copies offered in the current scope (the paper's `k` after the
    /// last offer, `n` at scope end).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Iterates over the stored entries.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.entries.iter()
    }

    /// Whether any stored entry satisfies `pred`.
    #[must_use]
    pub fn any(&self, pred: impl FnMut(&T) -> bool) -> bool {
        self.entries.iter().any(pred)
    }

    /// Changes the buffer count, truncating stored entries if shrinking.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "buffer pool needs at least one buffer");
        self.capacity = capacity;
        self.entries.truncate(capacity);
    }
}

impl<'a, T> IntoIterator for &'a ReservoirBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// The naive alternative to reservoir sampling: keep the first `m`
/// copies, drop everything after.
///
/// This is the ablation baseline for the multi-buffer *random* selection:
/// against an attacker who bursts forged copies at the start of each
/// interval (the optimal flooding strategy), first-come keeps **zero**
/// authentic copies once `m` forged ones have landed, while the reservoir
/// still keeps each copy with probability `m/n` regardless of order. The
/// `ablation` experiment quantifies the gap.
#[derive(Debug, Clone)]
pub struct FirstComeBuffer<T> {
    capacity: usize,
    entries: Vec<T>,
    offered: u64,
}

impl<T> FirstComeBuffer<T> {
    /// Creates a pool with `capacity` buffers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one buffer");
        Self {
            capacity,
            entries: Vec::with_capacity(capacity),
            offered: 0,
        }
    }

    /// Offers one copy; kept only while an empty buffer exists.
    pub fn offer(&mut self, item: T) -> OfferOutcome {
        self.offered += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(item);
            OfferOutcome::StoredEmpty
        } else {
            OfferOutcome::Dropped
        }
    }

    /// Occupied buffers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Copies offered since the last reset.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Whether any stored entry satisfies `pred`.
    #[must_use]
    pub fn any(&self, pred: impl FnMut(&T) -> bool) -> bool {
        self.entries.iter().any(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_empty_buffers_first() {
        let mut rng = SimRng::new(1);
        let mut pool = ReservoirBuffer::new(3);
        for i in 0..3 {
            assert_eq!(pool.offer(i, &mut rng), OfferOutcome::StoredEmpty);
        }
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut rng = SimRng::new(2);
        let mut pool = ReservoirBuffer::new(4);
        for i in 0..1000 {
            pool.offer(i, &mut rng);
            assert!(pool.len() <= 4);
        }
        assert_eq!(pool.offered(), 1000);
    }

    /// Every offered copy must survive with probability m/n — the paper's
    /// core DoS-resistance claim. Check the first and the last copy.
    #[test]
    fn survival_probability_is_uniform() {
        let m = 5usize;
        let n = 50u32;
        let trials = 20_000;
        let mut first_survived = 0u32;
        let mut last_survived = 0u32;
        let mut rng = SimRng::new(3);
        for _ in 0..trials {
            let mut pool = ReservoirBuffer::new(m);
            for i in 0..n {
                pool.offer(i, &mut rng);
            }
            if pool.any(|&x| x == 0) {
                first_survived += 1;
            }
            if pool.any(|&x| x == n - 1) {
                last_survived += 1;
            }
        }
        let expect = m as f64 / f64::from(n);
        for (label, hits) in [("first", first_survived), ("last", last_survived)] {
            let rate = f64::from(hits) / f64::from(trials);
            assert!(
                (rate - expect).abs() < 0.01,
                "{label} copy survival {rate:.4}, expected {expect:.4}"
            );
        }
    }

    /// P = 1 − p^m: with forged fraction p, the authentic copy is present
    /// with probability 1 − p^m. Empirically verify at p = 0.8, m = 5.
    #[test]
    fn authentic_presence_matches_one_minus_p_to_m() {
        let m = 5usize;
        let p = 0.8f64;
        let authentic_copies = 20u32;
        let forged_copies = 80u32; // p = 80/100
        let trials = 20_000;
        let mut present = 0u32;
        let mut rng = SimRng::new(4);
        for _ in 0..trials {
            let mut pool = ReservoirBuffer::new(m);
            // Interleave deterministically; reservoir sampling is
            // order-insensitive.
            let mut f = 0;
            let mut a = 0;
            for k in 0..(authentic_copies + forged_copies) {
                if k % 5 == 0 && a < authentic_copies {
                    pool.offer(true, &mut rng); // authentic
                    a += 1;
                } else {
                    pool.offer(false, &mut rng);
                    f += 1;
                }
            }
            assert_eq!((a, f), (20, 80));
            if pool.any(|&x| x) {
                present += 1;
            }
        }
        let rate = f64::from(present) / f64::from(trials);
        // Exact value: the reservoir is a uniform random m-subset, so the
        // authentic copy is absent with hypergeometric probability
        // C(80,5)/C(100,5). The paper's 1 − p^m is its large-n limit.
        let absent_exact: f64 = (0..m)
            .map(|k| (80.0 - k as f64) / (100.0 - k as f64))
            .product();
        let exact = 1.0 - absent_exact;
        assert!(
            (rate - exact).abs() < 0.012,
            "authentic present {rate:.4}, exact {exact:.4}"
        );
        let paper = 1.0 - p.powi(m as i32);
        assert!(
            (exact - paper).abs() < 0.02,
            "paper approximation drifted: exact {exact:.4} vs 1-p^m {paper:.4}"
        );
    }

    #[test]
    fn iteration_sees_stored_entries() {
        let mut rng = SimRng::new(6);
        let mut pool = ReservoirBuffer::new(3);
        pool.offer(10, &mut rng);
        pool.offer(20, &mut rng);
        let sum: i32 = pool.iter().sum();
        assert_eq!(sum, 30);
        let sum2: i32 = (&pool).into_iter().sum();
        assert_eq!(sum2, 30);
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_capacity_panics() {
        let _: ReservoirBuffer<u8> = ReservoirBuffer::new(0);
    }

    #[test]
    fn set_capacity_truncates() {
        let mut rng = SimRng::new(10);
        let mut pool = ReservoirBuffer::new(4);
        for i in 0..4 {
            pool.offer(i, &mut rng);
        }
        pool.set_capacity(2);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.capacity(), 2);
        pool.set_capacity(8);
        assert_eq!(pool.capacity(), 8);
        assert_eq!(pool.offer(9, &mut rng), OfferOutcome::StoredEmpty);
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn set_capacity_zero_panics() {
        let mut pool: ReservoirBuffer<u8> = ReservoirBuffer::new(1);
        pool.set_capacity(0);
    }

    #[test]
    fn first_come_keeps_only_the_earliest() {
        let mut pool = FirstComeBuffer::new(2);
        assert_eq!(pool.offer(1), OfferOutcome::StoredEmpty);
        assert_eq!(pool.offer(2), OfferOutcome::StoredEmpty);
        assert_eq!(pool.offer(3), OfferOutcome::Dropped);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.offered(), 3);
        assert!(pool.any(|&x| x == 1));
        assert!(!pool.any(|&x| x == 3));
    }

    /// The ablation headline: an early-burst flood starves first-come
    /// completely while the reservoir keeps its m/n guarantee.
    #[test]
    fn early_burst_starves_first_come_but_not_reservoir() {
        let m = 3;
        let forged_first = 20u32;
        let trials = 4000;
        let mut rng = SimRng::new(11);
        let mut reservoir_kept = 0u32;
        let mut first_come_kept = 0u32;
        for _ in 0..trials {
            let mut r = ReservoirBuffer::new(m);
            let mut f = FirstComeBuffer::new(m);
            for i in 0..forged_first {
                r.offer((false, i), &mut rng);
                f.offer((false, i));
            }
            r.offer((true, 0), &mut rng);
            f.offer((true, 0));
            if r.any(|e| e.0) {
                reservoir_kept += 1;
            }
            if f.any(|e| e.0) {
                first_come_kept += 1;
            }
        }
        assert_eq!(first_come_kept, 0, "first-come must be starved");
        let rate = f64::from(reservoir_kept) / f64::from(trials);
        let expect = m as f64 / f64::from(forged_first + 1);
        assert!((rate - expect).abs() < 0.02, "reservoir {rate} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn first_come_zero_capacity_panics() {
        let _: FirstComeBuffer<u8> = FirstComeBuffer::new(0);
    }

    #[test]
    fn outcome_is_stored() {
        assert!(OfferOutcome::StoredEmpty.is_stored());
        assert!(OfferOutcome::StoredReplaced.is_stored());
        assert!(!OfferOutcome::Dropped.is_stored());
    }
}
