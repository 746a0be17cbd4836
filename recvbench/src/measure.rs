//! Clocks and order statistics: process CPU time from the scheduler's
//! per-thread accounting, and percentiles over raw samples.

use std::fs;
use std::io;

/// CPU time consumed so far, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// All live threads of the process.
    pub total: u64,
    /// The pool's shard workers only.
    pub shards: u64,
}

/// Sums `/proc/self/task/*/schedstat` (time on CPU, ns). A thread's
/// figure is brought up to date when it is switched out, so the caller
/// reads it with the pool quiesced; this thread yields first so its
/// own figure is current too.
pub fn cpu() -> io::Result<Cpu> {
    std::thread::yield_now();
    let mut sample = Cpu::default();
    for task in fs::read_dir("/proc/self/task")? {
        let dir = task?.path();
        // A thread that exited between listing and reading has no
        // CPU left to account for.
        let Ok(stat) = fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let ns: u64 = stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad schedstat"))?;
        sample.total += ns;
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.starts_with("dap-net-shard") {
            sample.shards += ns;
        }
    }
    Ok(sample)
}

/// The `q`-quantile of `sorted` (nearest rank), 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu().expect("schedstat readable");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let after = cpu().expect("schedstat readable");
        assert!(after.total > before.total);
    }
}
