//! `dap-testkit` — a deterministic, seeded, **shrinking** property-test
//! harness, modelled on proptest/Hypothesis but self-contained (~300 LoC
//! of machinery, zero dependencies) so the workspace builds hermetically.
//!
//! # Model
//!
//! A property is a closure over a [`Gen`], the *draw source*. Every
//! random decision a generator makes consumes one 64-bit draw from the
//! source; the sequence of draws fully determines the generated values.
//! That gives the harness three things for free:
//!
//! * **Determinism** — a run is a pure function of the seed. The default
//!   seed is fixed; override it with the `DAP_TESTKIT_SEED` environment
//!   variable (decimal or `0x…` hex; a value that is neither panics).
//! * **Reproducibility** — on failure the harness prints the seed and
//!   case number needed to replay the exact failure.
//! * **Shrinking** — the failing draw sequence is minimised Hypothesis-
//!   style (delete chunks, then shrink each draw toward zero, replaying
//!   the property each time), so the reported counterexample is the
//!   smallest the minimiser can reach. Generators are written so smaller
//!   draws mean simpler values (range generators return their lower
//!   bound for draw 0, collections get shorter, and so on).
//!
//! # Example
//!
//! ```
//! use dap_testkit::{check, Config};
//!
//! check("addition_commutes", |g| {
//!     let a = g.u64_in(0..1000);
//!     let b = g.u64_in(0..1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Properties signal failure by panicking (plain `assert!` family) and
//! may reject uninteresting inputs with [`assume`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::Mutex;

mod strategy;
pub use strategy::{one_of, vec_of, Strategy};

// ---------------------------------------------------------------------------
// Random source
// ---------------------------------------------------------------------------

/// SplitMix64 (Steele, Lea, Flood — OOPSLA 2014): tiny, full-period,
/// well-distributed. Duplicated from `dap-crypto` so this crate stands
/// alone at the bottom of the dependency graph.
#[derive(Debug, Clone, Copy)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The draw source handed to every property: generator methods consume
/// 64-bit draws; the harness records them so failures can be replayed
/// and minimised.
pub struct Gen {
    rng: SplitMix64,
    /// When replaying a (possibly mutated) failure, draws come from here;
    /// reads past the end return 0 — the "simplest" draw.
    replay: Option<Vec<u64>>,
    /// Every draw actually consumed this run, in order.
    recorded: Vec<u64>,
}

impl Gen {
    /// A standalone source with an explicit seed — for ad-hoc seeded
    /// sampling outside the [`check`] runner (fuzz corpora, examples).
    pub fn from_seed(seed: u64) -> Self {
        Self::fresh(seed)
    }

    fn fresh(seed: u64) -> Self {
        Self {
            rng: SplitMix64(seed),
            replay: None,
            recorded: Vec::new(),
        }
    }

    fn replaying(draws: Vec<u64>) -> Self {
        Self {
            rng: SplitMix64(0),
            replay: Some(draws),
            recorded: Vec::new(),
        }
    }

    /// One raw 64-bit draw — the primitive every generator builds on.
    pub fn draw(&mut self) -> u64 {
        let v = match &self.replay {
            Some(data) => data.get(self.recorded.len()).copied().unwrap_or(0),
            None => self.rng.next_u64(),
        };
        self.recorded.push(v);
        v
    }

    /// Uniform `u64` in `[range.start, range.end)`. Shrinks toward
    /// `range.start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.draw() % span
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `u32` in `[range.start, range.end)`.
    pub fn u32_in(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.u64_in(u64::from(range.start)..u64::from(range.end)) as u32
    }

    /// Any `u64` (full range). Shrinks toward 0.
    pub fn any_u64(&mut self) -> u64 {
        self.draw()
    }

    /// Any `u32`. Shrinks toward 0.
    pub fn any_u32(&mut self) -> u32 {
        (self.draw() & 0xffff_ffff) as u32
    }

    /// Any byte. Shrinks toward 0.
    pub fn any_u8(&mut self) -> u8 {
        (self.draw() & 0xff) as u8
    }

    /// A boolean; draw 0 means `false`, so it shrinks toward `false`.
    pub fn any_bool(&mut self) -> bool {
        self.draw() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits). Shrinks toward 0.
    pub fn unit_f64(&mut self) -> f64 {
        (self.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Shrinks toward `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        lo + self.unit_f64() * (hi - lo)
    }

    /// A byte vector whose length is uniform in `len` and whose bytes
    /// shrink toward 0.
    pub fn bytes(&mut self, len: std::ops::Range<usize>) -> Vec<u8> {
        let n = self.usize_in(len);
        (0..n).map(|_| self.any_u8()).collect()
    }

    /// A fixed-size byte array.
    pub fn byte_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        for b in &mut out {
            *b = self.any_u8();
        }
        out
    }

    /// A vector built by calling `item` repeatedly; length uniform in
    /// `len`.
    pub fn vec_with<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A reference to a uniformly chosen element of `choices`.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        assert!(!choices.is_empty(), "pick from empty slice");
        &choices[self.usize_in(0..choices.len())]
    }

    /// A sorted set of distinct `u64`s from `range`, with between
    /// `size.start` and `size.end - 1` elements (fewer if the range is
    /// too small).
    pub fn btree_set_u64(
        &mut self,
        range: std::ops::Range<u64>,
        size: std::ops::Range<usize>,
    ) -> std::collections::BTreeSet<u64> {
        let want = self.usize_in(size);
        let mut set = std::collections::BTreeSet::new();
        for _ in 0..want.saturating_mul(4) {
            if set.len() >= want {
                break;
            }
            set.insert(self.u64_in(range.clone()));
        }
        set
    }
}

// ---------------------------------------------------------------------------
// Assume
// ---------------------------------------------------------------------------

/// Sentinel payload distinguishing "discard this case" from failure.
struct AssumeFailed;

/// Rejects the current case without failing the property (the analogue
/// of proptest's `prop_assume!`). Discarded cases do not count toward
/// the configured case total; the harness errors out if too few cases
/// survive filtering.
pub fn assume(condition: bool) {
    if !condition {
        panic_any(AssumeFailed);
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cases each property must pass (discards excluded). Default 96 —
    /// comfortably above the workspace's 64-case floor.
    pub cases: u32,
    /// Base seed; each case derives its own sub-seed from it.
    pub seed: u64,
    /// Property replays the minimiser may spend per failure.
    pub max_shrink_iters: u32,
}

/// The workspace's default seed (any fixed value works; this spells
/// "dap tes(t) seed" if you squint at the hex).
pub const DEFAULT_SEED: u64 = 0xda9_7e57_5eed;

impl Default for Config {
    /// 96 cases from `DAP_TESTKIT_SEED` when it is set and non-empty,
    /// else from [`DEFAULT_SEED`].
    ///
    /// # Panics
    ///
    /// Panics, naming the value, when `DAP_TESTKIT_SEED` is neither
    /// decimal nor `0x…` hex: a mistyped replay seed must not run the
    /// default case set, where the property it meant to replay may pass.
    fn default() -> Self {
        let seed = match std::env::var_os("DAP_TESTKIT_SEED") {
            Some(raw) if !raw.is_empty() => {
                let raw = raw.to_string_lossy();
                parse_seed(&raw).unwrap_or_else(|| {
                    panic!("DAP_TESTKIT_SEED={raw:?} is neither decimal nor 0x-prefixed hex")
                })
            }
            _ => DEFAULT_SEED,
        };
        Self {
            cases: 96,
            seed,
            max_shrink_iters: 512,
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

enum Outcome {
    Pass,
    Discard,
    Fail(String),
}

/// Runs one case, converting panics into outcomes.
fn run_case(property: &impl Fn(&mut Gen), gen: &mut Gen) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| property(gen))) {
        Ok(()) => Outcome::Pass,
        Err(payload) => {
            if payload.downcast_ref::<AssumeFailed>().is_some() {
                Outcome::Discard
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                Outcome::Fail((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                Outcome::Fail(s.clone())
            } else {
                Outcome::Fail("<non-string panic payload>".to_string())
            }
        }
    }
}

/// Checks `property` under the default [`Config`]. Panics with a
/// seed-stamped report on the first (shrunk) failure.
pub fn check(name: &str, property: impl Fn(&mut Gen)) {
    check_with(Config::default(), name, property);
}

/// [`check`] with an explicit configuration.
///
/// # Panics
///
/// Panics if the property fails (after minimising the counterexample) or
/// if `assume` filtering discards too many cases.
pub fn check_with(config: Config, name: &str, property: impl Fn(&mut Gen)) {
    let report = quietly(|| run_all(&config, name, &property));
    if let Some(report) = report {
        panic!("{report}");
    }
}

/// Runs the whole property; returns a failure report, or `None` on pass.
fn run_all(config: &Config, name: &str, property: &impl Fn(&mut Gen)) -> Option<String> {
    let mut passed = 0u32;
    let mut attempts = 0u32;
    let attempt_cap = config.cases.saturating_mul(20);
    while passed < config.cases {
        if attempts >= attempt_cap {
            return Some(format!(
                "[dap-testkit] property '{name}' gave up: only {passed}/{} \
                 cases survived `assume` filtering after {attempts} attempts \
                 (seed {:#x})",
                config.cases, config.seed
            ));
        }
        let case_seed = case_seed(config.seed, attempts);
        attempts += 1;
        let mut gen = Gen::fresh(case_seed);
        match run_case(property, &mut gen) {
            Outcome::Pass => passed += 1,
            Outcome::Discard => {}
            Outcome::Fail(msg) => {
                let (draws, msg, replays) =
                    minimise(property, gen.recorded, msg, config.max_shrink_iters);
                return Some(format!(
                    "[dap-testkit] property '{name}' failed (case {case}, seed {seed:#x}).\n\
                     reproduce: DAP_TESTKIT_SEED={seed} cargo test\n\
                     minimised after {replays} replays to {n} draws\n\
                     failure: {msg}",
                    case = attempts - 1,
                    seed = config.seed,
                    n = draws.len(),
                ));
            }
        }
    }
    None
}

/// Per-case sub-seed: decorrelates cases while staying a pure function
/// of (base seed, case index).
fn case_seed(seed: u64, case: u32) -> u64 {
    let mut mix = SplitMix64(seed ^ (u64::from(case) << 32 | u64::from(case)));
    mix.next_u64()
}

// ---------------------------------------------------------------------------
// Minimiser
// ---------------------------------------------------------------------------

/// Replays `property` on an explicit draw sequence.
fn replay(property: &impl Fn(&mut Gen), draws: &[u64]) -> (Outcome, Vec<u64>) {
    let mut gen = Gen::replaying(draws.to_vec());
    let outcome = run_case(property, &mut gen);
    (outcome, gen.recorded)
}

/// Hypothesis-style minimisation of a failing draw sequence: delete
/// chunks (shorter sequences ⇒ smaller collections), then shrink each
/// draw toward zero (range generators bottom out at their lower bound).
/// Every candidate is replayed; only still-failing candidates are kept.
fn minimise(
    property: &impl Fn(&mut Gen),
    mut best: Vec<u64>,
    mut best_msg: String,
    budget: u32,
) -> (Vec<u64>, String, u32) {
    let mut replays = 0u32;
    let try_candidate = |cand: &[u64], replays: &mut u32| -> Option<(Vec<u64>, String)> {
        if *replays >= budget {
            return None;
        }
        *replays += 1;
        match replay(property, cand) {
            (Outcome::Fail(msg), consumed) => Some((consumed, msg)),
            _ => None,
        }
    };

    let mut improved = true;
    while improved && replays < budget {
        improved = false;

        // Pass 1: delete chunks, largest first.
        let mut size = best.len().max(1) / 2;
        while size >= 1 && replays < budget {
            let mut start = 0;
            while start + size <= best.len() {
                let mut cand = best.clone();
                cand.drain(start..start + size);
                let mut deleted = false;
                if let Some((next, msg)) = try_candidate(&cand, &mut replays) {
                    // Strictly shorter only: replay pads missing draws
                    // with zeros, so a same-length "deletion" would loop.
                    if next.len() < best.len() {
                        best = next;
                        best_msg = msg;
                        improved = true;
                        deleted = true;
                    }
                }
                if !deleted {
                    start += size;
                }
            }
            size /= 2;
        }

        // Pass 2: shrink individual draws toward zero (binary search).
        // `best` may get shorter mid-loop (a smaller draw can make the
        // property consume fewer draws), so re-check the bound each step.
        let mut i = 0;
        while i < best.len() {
            if replays >= budget {
                break;
            }
            let original = best[i];
            if original == 0 {
                i += 1;
                continue;
            }
            // Try zero outright first.
            let mut lo = 0u64;
            let mut hi = original; // smallest known-failing value
            let mut cand = best.clone();
            cand[i] = 0;
            if let Some((next, msg)) = try_candidate(&cand, &mut replays) {
                best = next;
                best_msg = msg;
                improved = true;
                i += 1;
                continue;
            }
            // Binary search the smallest failing value in (lo, hi).
            while lo + 1 < hi && replays < budget && i < best.len() {
                let mid = lo + (hi - lo) / 2;
                let mut cand = best.clone();
                cand[i] = mid;
                match try_candidate(&cand, &mut replays) {
                    Some((next, msg)) => {
                        best = next;
                        best_msg = msg;
                        hi = mid;
                        improved = true;
                    }
                    None => lo = mid,
                }
            }
            i += 1;
        }
    }
    (best, best_msg, replays)
}

// ---------------------------------------------------------------------------
// Panic-hook hygiene
// ---------------------------------------------------------------------------

/// While a property runs, every failing case (including each shrink
/// replay) unwinds — without this, `cargo test` output would drown in
/// backtraces. The default hook is swapped out for the duration; the
/// mutex keeps concurrent testkit properties from fighting over it.
static HOOK: Mutex<()> = Mutex::new(());

fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let _guard = HOOK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f(); // never unwinds: all case panics are caught inside
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev);
    result
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(cases: u32) -> Config {
        Config {
            cases,
            seed: 0xfeed,
            max_shrink_iters: 512,
        }
    }

    fn failure_message(f: impl Fn(&mut Gen) + 'static) -> String {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check_with(fixed(96), "expected-failure", f);
        }));
        match result {
            Ok(()) => panic!("property unexpectedly passed"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .expect("report is a String"),
        }
    }

    #[test]
    fn passing_property_passes() {
        check_with(fixed(96), "tautology", |g| {
            let a = g.u64_in(3..17);
            assert!((3..17).contains(&a));
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let mut seen = Vec::new();
            // Direct source use: same seed ⇒ same draws.
            let mut gen = Gen::fresh(42);
            for _ in 0..32 {
                seen.push(gen.u64_in(0..1000));
            }
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_report_names_seed_and_shrinks() {
        let msg = failure_message(|g| {
            let v = g.u64_in(0..1000);
            assert!(v < 10, "v={v}");
        });
        assert!(
            msg.contains("seed 0xfeed") || msg.contains("DAP_TESTKIT_SEED=0xfeed"),
            "report must carry the seed: {msg}"
        );
        // The minimiser must walk v down to the boundary case.
        assert!(msg.contains("v=10"), "not minimal: {msg}");
    }

    #[test]
    fn shrinking_reduces_collections() {
        // Fails whenever the vector has ≥ 3 elements; minimal failing
        // length is exactly 3.
        let msg = failure_message(|g| {
            let v = g.vec_with(0..50, |g| g.u64_in(0..5));
            assert!(v.len() < 3, "len={}", v.len());
        });
        assert!(msg.contains("len=3"), "not minimal: {msg}");
    }

    #[test]
    fn assume_discards_do_not_fail() {
        check_with(fixed(64), "assume-half", |g| {
            let v = g.u64_in(0..100);
            assume(v % 2 == 0);
            assert!(v % 2 == 0);
        });
    }

    #[test]
    fn impossible_assume_reports_give_up() {
        let msg = failure_message(|g| {
            let _ = g.draw();
            assume(false);
        });
        assert!(msg.contains("assume"), "{msg}");
    }

    #[test]
    fn generators_cover_ranges() {
        let mut gen = Gen::fresh(7);
        for _ in 0..1000 {
            assert!((5..9).contains(&gen.usize_in(5..9)));
            let f = gen.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let b = gen.bytes(0..17);
            assert!(b.len() < 17);
            let s = gen.btree_set_u64(1..40, 1..10);
            assert!(!s.is_empty() && s.len() < 10);
            assert!(s.iter().all(|v| (1..40).contains(v)));
        }
    }

    #[test]
    fn byte_array_and_pick() {
        let mut gen = Gen::fresh(8);
        let a: [u8; 10] = gen.byte_array();
        let b: [u8; 10] = gen.byte_array();
        assert_ne!(a, b, "consecutive arrays should differ");
        let choices = [1, 2, 3];
        for _ in 0..100 {
            assert!(choices.contains(gen.pick(&choices)));
        }
    }

    #[test]
    fn seed_env_parsing() {
        assert_eq!(parse_seed("123"), Some(123));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed("0Xff"), Some(255));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn replay_is_faithful() {
        // Record a run, replay its draws: identical values come out.
        let mut live = Gen::fresh(99);
        let v1 = live.u64_in(0..1_000_000);
        let v2 = live.bytes(0..32);
        let mut replayed = Gen::replaying(live.recorded.clone());
        assert_eq!(replayed.u64_in(0..1_000_000), v1);
        assert_eq!(replayed.bytes(0..32), v2);
    }
}
