//! The micro-benchmark timer and its report schema.
//!
//! The workspace builds hermetically, so there is no criterion. Every
//! lane of the `perf` harness (dap-net) runs through this module:
//!
//! * a lane is a closure returning one *repetition's* sample — mean
//!   nanoseconds per call for a [`calibrated`] micro lane, or whatever
//!   per-unit cost a whole-campaign lane reports;
//! * [`repeat`] runs a lane [`REPS`] times after one discarded warm-up;
//! * [`paired`] runs a lane against its baseline or twin pair by pair
//!   ([`REPS`] pairs after a discarded warm-up pair), alternating which
//!   side runs first, so both sides see the same host weather and
//!   neither always runs cold;
//! * [`record`] reduces the samples to one JSON lane record: `name`,
//!   `unit`, `median`, `mad` (median absolute deviation) and `n`.
//!   [`versus`] adds the median per-pair speedup over the partner.
//!
//! `DAP_BENCH_MS` (default 100) is the wall-clock budget one calibrated
//! repetition runs for; it is the harness's only setting.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dap_obs::json::JsonObject;

/// Repetitions per lane (pairs, for a paired lane). Even, so each side
/// of a pair runs first equally often.
pub const REPS: usize = 12;

/// Wall-clock budget of one calibrated repetition: `DAP_BENCH_MS`.
fn budget() -> Duration {
    let ms = std::env::var("DAP_BENCH_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100u64);
    Duration::from_millis(ms)
}

/// Warms `f` up, calibrates once how many calls fill the budget, and
/// returns the lane: each call of the returned closure times that many
/// calls of `f` and yields the mean nanoseconds per call. `f`'s result
/// passes through [`black_box`] so the optimiser cannot delete the work.
pub fn calibrated<T>(mut f: impl FnMut() -> T) -> impl FnMut() -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (budget().as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u32;
    move || {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed().as_nanos() as f64 / f64::from(iters)
    }
}

/// [`REPS`] samples of `lane` after one discarded warm-up run.
pub fn repeat(mut lane: impl FnMut() -> f64) -> Vec<f64> {
    lane();
    (0..REPS).map(|_| lane()).collect()
}

/// [`REPS`] samples of each of `a` and `b`, taken pair by pair after one
/// discarded warm-up pair. Even pairs run `a` first, odd pairs `b`.
pub fn paired(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (Vec<f64>, Vec<f64>) {
    a();
    b();
    let mut samples = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for rep in 0..REPS {
        if rep % 2 == 0 {
            samples.0.push(a());
            samples.1.push(b());
        } else {
            samples.1.push(b());
            samples.0.push(a());
        }
    }
    samples
}

/// The median and the median absolute deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    /// The middle sample (mean of the middle two for an even count).
    median: f64,
    /// The median of the samples' distances from `median`.
    mad: f64,
    /// How many samples.
    n: usize,
}

impl Spread {
    /// Panics on an empty sample or a NaN.
    fn of(samples: &[f64]) -> Self {
        let middle = median(samples.to_vec());
        Self {
            median: middle,
            mad: median(samples.iter().map(|x| (x - middle).abs()).collect()),
            n: samples.len(),
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "a lane needs at least one sample");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Rounds a reported figure to three decimals, so the committed file
/// does not carry fifteen digits of noise.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// One lane record: `name`, `unit`, and the `median`, `mad` (median
/// absolute deviation) and count `n` of `samples`. Lane-specific fields
/// chain onto the result.
///
/// # Panics
///
/// On an empty sample or a NaN.
#[must_use]
pub fn record(name: &str, unit: &str, samples: &[f64]) -> JsonObject {
    let spread = Spread::of(samples);
    JsonObject::new()
        .str("name", name)
        .str("unit", unit)
        .f64("median", round3(spread.median))
        .f64("mad", round3(spread.mad))
        .u64("n", spread.n as u64)
}

/// Adds a paired lane's comparison to its record: `vs` names the
/// partner, and `speedup` / `speedup_mad` are the median and MAD of the
/// per-pair ratios `partner[i] / this[i]` — how many times cheaper this
/// lane ran than its partner in the same pair.
///
/// # Panics
///
/// On empty samples or a NaN ratio.
#[must_use]
pub fn versus(
    record: JsonObject,
    partner: &str,
    this: &[f64],
    partner_samples: &[f64],
) -> JsonObject {
    let ratios: Vec<f64> = partner_samples
        .iter()
        .zip(this)
        .map(|(p, t)| p / t)
        .collect();
    let spread = Spread::of(&ratios);
    record
        .str("vs", partner)
        .f64("speedup", round3(spread.median))
        .f64("speedup_mad", round3(spread.mad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn spread_of_a_fixed_sample() {
        let odd = Spread::of(&[3.0, 1.0, 100.0, 2.0, 4.0]);
        assert_eq!(
            odd,
            Spread {
                median: 3.0,
                mad: 1.0,
                n: 5
            }
        );
        // Even count: mean of the middle two, for the median and the MAD.
        let even = Spread::of(&[10.0, 12.0, 14.0, 40.0]);
        assert_eq!(even.median, 13.0);
        assert_eq!(even.mad, 2.0);
        assert_eq!(even.n, 4);
    }

    #[test]
    fn paired_repetitions_alternate_which_side_runs_first() {
        let log = RefCell::new(String::new());
        let (a, b) = paired(
            || {
                log.borrow_mut().push('a');
                1.0
            },
            || {
                log.borrow_mut().push('b');
                2.0
            },
        );
        assert_eq!((a.len(), b.len()), (REPS, REPS));
        assert!(a.iter().all(|&x| x == 1.0) && b.iter().all(|&x| x == 2.0));
        let log = log.into_inner();
        // The warm-up pair, then REPS pairs alternating the leader.
        assert_eq!(&log[..2], "ab");
        for (rep, pair) in log.as_bytes()[2..].chunks(2).enumerate() {
            let expected: &[u8] = if rep % 2 == 0 { b"ab" } else { b"ba" };
            assert_eq!(pair, expected, "pair {rep}");
        }
        assert_eq!(log.len(), 2 * (REPS + 1));
    }

    #[test]
    fn versus_reports_the_median_per_pair_ratio() {
        // Per-pair ratios 2, 4, 3: the median pair wins over the
        // ratio of medians (20 / 5 = 4 here).
        let this = [5.0, 5.0, 10.0];
        let partner = [10.0, 20.0, 30.0];
        let line = versus(record("x", "ns", &this), "y", &this, &partner).finish();
        assert!(
            line.contains(r#""vs":"y","speedup":3.0,"speedup_mad":1.0"#),
            "{line}"
        );
        assert!(line.starts_with(r#"{"name":"x","unit":"ns","median":5.0,"mad":0.0,"n":3"#));
    }
}
