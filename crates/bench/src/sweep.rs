//! A generic campaign sweep runner: evaluate DAP over a grid of attack
//! levels, buffer counts and channel-loss rates, in parallel, and emit
//! machine-readable rows.
//!
//! This is the tooling a downstream user points at their own parameter
//! space; the figure binaries are special cases of it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dap_core::analysis::authentic_presence;
use dap_core::sim::{run_campaign_with_faults, CampaignSpec};
use dap_crypto::rng::splitmix64;
use dap_obs::Histogram;
use dap_simnet::FaultPlan;

/// One cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Forged-traffic fraction.
    pub p: f64,
    /// Receiver buffers.
    pub m: usize,
    /// Channel loss probability.
    pub loss: f64,
    /// Empirical authentication rate.
    pub rate: f64,
    /// The paper's analytic prediction `1 − p^m` (loss-free).
    pub predicted: f64,
    /// Peak receiver memory in bits.
    pub peak_memory_bits: u64,
    /// Every `fault.*` counter from the cell's campaign, sorted by name
    /// (empty without a fault plan).
    pub fault_counters: Vec<(String, u64)>,
}

impl SweepRow {
    /// Total injected-fault events in this cell.
    #[must_use]
    pub fn fault_events(&self) -> u64 {
        self.fault_counters.iter().map(|(_, v)| v).sum()
    }
}

/// The sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Attack levels to evaluate.
    pub attack_levels: Vec<f64>,
    /// Buffer counts to evaluate.
    pub buffer_counts: Vec<usize>,
    /// Loss rates to evaluate.
    pub loss_rates: Vec<f64>,
    /// Intervals per campaign (statistical precision).
    pub intervals: u64,
    /// Authentic announcement copies per interval.
    pub announce_copies: u32,
    /// Base RNG seed; each cell derives its own.
    pub seed: u64,
    /// Optional fault plan injected into every cell's campaign (the
    /// windows are interpreted against each campaign's own timeline).
    pub fault: Option<FaultPlan>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            attack_levels: vec![0.5, 0.8, 0.9],
            buffer_counts: vec![1, 2, 4, 8],
            loss_rates: vec![0.0, 0.1],
            intervals: 400,
            announce_copies: 1,
            seed: 7,
            fault: None,
        }
    }
}

/// Derives the RNG seed of grid cell `(pi, mi, li)` from the base seed.
///
/// The previous scheme added shifted indices to the base seed, so
/// adjacent base seeds collided with adjacent cells (`seed + 1` at
/// `li = 0` equals `seed` at `li = 1`). Mixing through SplitMix64 (a
/// 64-bit bijection) removes that: for indices below 2²⁰ per axis the
/// packed offsets are distinct, XOR with a fixed mixed base keeps them
/// distinct, and the final mix is again injective — so every cell of
/// every grid up to 2²⁰ per axis gets a provably unique seed.
#[must_use]
pub fn cell_seed(base: u64, pi: usize, mi: usize, li: usize) -> u64 {
    debug_assert!(pi < (1 << 20) && mi < (1 << 20) && li < (1 << 20));
    let packed = ((pi as u64) << 40) | ((mi as u64) << 20) | (li as u64);
    splitmix64(splitmix64(base) ^ packed)
}

/// Scheduling statistics from a parallel sweep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Worker threads spawned (see [`worker_count`]).
    pub workers_spawned: usize,
    /// Workers that completed at least one cell — with more cells than
    /// workers and non-trivial campaigns, this equals `workers_spawned`.
    pub workers_engaged: usize,
    /// Grid cells evaluated.
    pub cells: usize,
    /// Wall time per evaluated cell, in nanoseconds, merged across all
    /// workers. Wall time is *not* part of the deterministic
    /// fingerprint — the rows are — but its spread is what tells you
    /// whether the work-stealing queue is actually levelling the load
    /// (a long tail here means a few slow cells gate the run).
    pub cell_wall: Histogram,
}

#[derive(Clone, Copy)]
struct Cell {
    pi: usize,
    mi: usize,
    li: usize,
    p: f64,
    m: usize,
    loss: f64,
}

fn grid(config: &SweepConfig) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(
        config.attack_levels.len() * config.buffer_counts.len() * config.loss_rates.len(),
    );
    for (pi, &p) in config.attack_levels.iter().enumerate() {
        for (mi, &m) in config.buffer_counts.iter().enumerate() {
            for (li, &loss) in config.loss_rates.iter().enumerate() {
                cells.push(Cell {
                    pi,
                    mi,
                    li,
                    p,
                    m,
                    loss,
                });
            }
        }
    }
    cells
}

/// Evaluates one cell. Pure in `(config, cell)` — the seed derivation
/// makes the row independent of which worker runs it and when.
fn run_cell(config: &SweepConfig, cell: &Cell) -> SweepRow {
    let outcome = run_campaign_with_faults(
        &CampaignSpec {
            attack_fraction: cell.p,
            announce_copies: config.announce_copies,
            buffers: cell.m,
            intervals: config.intervals,
            loss: cell.loss,
            seed: cell_seed(config.seed, cell.pi, cell.mi, cell.li),
        },
        config.fault.clone(),
    );
    SweepRow {
        p: cell.p,
        m: cell.m,
        loss: cell.loss,
        rate: outcome.authentication_rate,
        predicted: authentic_presence(cell.p, cell.m as u32),
        peak_memory_bits: outcome.peak_memory_bits,
        fault_counters: outcome.fault_counters,
    }
}

fn sort_rows(rows: &mut [SweepRow]) {
    rows.sort_by(|a, b| {
        (a.p, a.m, a.loss)
            .partial_cmp(&(b.p, b.m, b.loss))
            .expect("finite keys")
    });
}

/// Runs the full grid on the calling thread — the bit-identical
/// reference the parallel engine is checked against (`sweep --check`).
#[must_use]
pub fn run_sweep_sequential(config: &SweepConfig) -> Vec<SweepRow> {
    let mut rows: Vec<SweepRow> = grid(config)
        .iter()
        .map(|cell| run_cell(config, cell))
        .collect();
    sort_rows(&mut rows);
    rows
}

/// Worker threads for a grid of `cells` cells: `max(available cores,
/// 2)` — never fewer than two for a multi-cell grid. Containers and
/// cgroup quotas routinely report one core while the work-stealing
/// engine is the code path under test; a floor of two keeps the parallel
/// engine *engaged* everywhere (correctness is scheduling-independent —
/// see `--check` — and two workers on one core cost only negligible
/// oversubscription). Capped at the cell count: idle workers are noise.
#[must_use]
pub fn worker_count(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .max(2)
        .min(cells)
        .max(1)
}

/// Runs the full grid with a work-stealing worker pool, returning
/// scheduling statistics alongside the rows.
///
/// All cells go into one queue drained via an atomic index, so workers
/// stay busy until the whole grid is done — unlike the earlier
/// one-thread-per-attack-level split, where the thread with the
/// slowest column gated the run while its siblings sat idle. Per-cell
/// seeds ([`cell_seed`]) make each row a pure function of the config,
/// so the output is bit-identical to [`run_sweep_sequential`] no matter
/// how the cells are scheduled.
#[must_use]
pub fn run_sweep_with_stats(config: &SweepConfig) -> (Vec<SweepRow>, SweepStats) {
    let cells = grid(config);
    let workers = worker_count(cells.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<SweepRow>> = vec![None; cells.len()];
    let mut engaged = 0usize;
    let mut cell_wall = Histogram::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let cells = &cells;
                scope.spawn(move || {
                    let mut done: Vec<(usize, SweepRow)> = Vec::new();
                    let mut wall = Histogram::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let t0 = Instant::now();
                        done.push((i, run_cell(config, cell)));
                        wall.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    }
                    (done, wall)
                })
            })
            .collect();
        for handle in handles {
            let (done, wall) = handle.join().expect("sweep worker");
            if !done.is_empty() {
                engaged += 1;
            }
            for (i, row) in done {
                slots[i] = Some(row);
            }
            cell_wall.merge(&wall);
        }
    });
    let mut rows: Vec<SweepRow> = slots
        .into_iter()
        .map(|slot| slot.expect("every cell evaluated"))
        .collect();
    sort_rows(&mut rows);
    (
        rows,
        SweepStats {
            workers_spawned: workers,
            workers_engaged: engaged,
            cells: cells.len(),
            cell_wall,
        },
    )
}

/// Runs the full grid in parallel (see [`run_sweep_with_stats`]).
#[must_use]
pub fn run_sweep(config: &SweepConfig) -> Vec<SweepRow> {
    run_sweep_with_stats(config).0
}

/// Renders rows as CSV (header + lines).
#[must_use]
pub fn to_csv(rows: &[SweepRow]) -> String {
    let mut out = String::from("p,m,loss,rate,predicted,peak_memory_bits,fault_events\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.4},{:.4},{},{}\n",
            r.p,
            r.m,
            r.loss,
            r.rate,
            r.predicted,
            r.peak_memory_bits,
            r.fault_events()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SweepConfig {
        SweepConfig {
            attack_levels: vec![0.5, 0.8],
            buffer_counts: vec![1, 4],
            loss_rates: vec![0.0],
            intervals: 300,
            announce_copies: 1,
            seed: 3,
            fault: None,
        }
    }

    #[test]
    fn grid_is_complete_and_sorted() {
        let rows = run_sweep(&small_config());
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!((w[0].p, w[0].m) <= (w[1].p, w[1].m));
        }
    }

    #[test]
    fn rates_track_reservoir_math_loss_free() {
        for row in run_sweep(&small_config()) {
            // Exact small-n survival: min(1, m/n) with n copies/interval.
            let n = (row.p / (1.0 - row.p)).round() + 1.0;
            let exact = (row.m as f64 / n).min(1.0);
            assert!(
                (row.rate - exact).abs() < 0.08,
                "p={} m={}: rate {} vs exact {exact}",
                row.p,
                row.m,
                row.rate
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_sweep(&small_config());
        let b = run_sweep(&small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rows = run_sweep(&small_config());
        let csv = to_csv(&rows);
        assert!(csv.starts_with("p,m,loss,rate"));
        assert_eq!(csv.lines().count(), rows.len() + 1);
        // Without a fault plan the fault_events column is all zeros.
        for line in csv.lines().skip(1) {
            assert!(line.ends_with(",0"), "{line}");
        }
    }

    #[test]
    fn cell_seeds_are_distinct_on_a_large_grid() {
        // 64×64×64 cells from one base seed, plus the same packed index
        // under an adjacent base seed — the old additive scheme collided
        // across both dimensions; the mixed scheme must not.
        let mut seen = std::collections::HashSet::new();
        for pi in 0..64 {
            for mi in 0..64 {
                for li in 0..64 {
                    assert!(
                        seen.insert(cell_seed(7, pi, mi, li)),
                        "duplicate seed at ({pi},{mi},{li})"
                    );
                }
            }
        }
        assert_eq!(seen.len(), 64 * 64 * 64);
        assert!(seen.insert(cell_seed(8, 0, 0, 0)), "adjacent bases collide");
    }

    #[test]
    fn parallel_sweep_matches_sequential_reference() {
        let config = small_config();
        let (parallel, stats) = run_sweep_with_stats(&config);
        let sequential = run_sweep_sequential(&config);
        assert_eq!(parallel, sequential);
        assert_eq!(to_csv(&parallel), to_csv(&sequential));
        assert_eq!(stats.cells, 4);
        assert!(stats.workers_spawned >= 1 && stats.workers_spawned <= 4);
    }

    #[test]
    fn work_queue_saturates_available_workers() {
        // 12×8×4 = 384 cells dwarfs any realistic core count, so every
        // spawned worker must pull at least one cell from the queue.
        let config = SweepConfig {
            attack_levels: (0..12).map(|i| 0.05 + 0.07 * i as f64).collect(),
            buffer_counts: (0..8).map(|i| 1 << i).collect(),
            loss_rates: vec![0.0, 0.1, 0.2, 0.3],
            intervals: 40,
            announce_copies: 1,
            seed: 11,
            fault: None,
        };
        let (rows, stats) = run_sweep_with_stats(&config);
        assert_eq!(rows.len(), 384);
        assert_eq!(stats.cells, 384);
        assert_eq!(stats.workers_spawned, worker_count(384));
        assert!(stats.workers_spawned >= 2, "provisioning floor regressed");
        assert_eq!(stats.workers_engaged, stats.workers_spawned);
        // Every cell contributes exactly one wall-time sample, and the
        // quantile curve those samples form is well-defined.
        assert_eq!(stats.cell_wall.count(), 384);
        assert!(stats.cell_wall.quantile(0.99) >= stats.cell_wall.quantile(0.5));
    }

    #[test]
    fn multi_worker_engagement_is_enforced() {
        // The regression this pins down: a cgroup-capped box reported
        // one core, the engine spawned one worker, and BENCH_sweep.json
        // shipped `workers_spawned: 1, speedup ≈ 1` — the parallel
        // engine silently untested. The floor guarantees ≥ 2 workers on
        // *any* box, and with cells several times slower than a thread
        // spawn, every worker must actually pull from the queue — while
        // the rows stay bit-identical to the sequential reference.
        let config = SweepConfig {
            attack_levels: vec![0.3, 0.6, 0.9],
            buffer_counts: vec![1, 2, 4, 8],
            loss_rates: vec![0.0],
            intervals: 300,
            announce_copies: 1,
            seed: 5,
            fault: None,
        };
        let (rows, stats) = run_sweep_with_stats(&config);
        assert!(
            stats.workers_spawned >= 2,
            "spawned {} workers; the ≥2 provisioning floor is gone",
            stats.workers_spawned
        );
        assert!(
            stats.workers_engaged >= 2,
            "only {} of {} workers engaged on a 12-cell grid",
            stats.workers_engaged,
            stats.workers_spawned
        );
        assert_eq!(rows, run_sweep_sequential(&config), "--check bit-identity");
    }

    #[test]
    fn faulted_sweep_records_counters_in_every_cell() {
        use dap_simnet::{FaultWindow, SimTime};
        let config = SweepConfig {
            fault: Some(
                FaultPlan::new(9).blackout(FaultWindow::new(SimTime(5_000), SimTime(8_000))),
            ),
            ..small_config()
        };
        let rows = run_sweep(&config);
        for row in &rows {
            assert!(
                row.fault_counters
                    .iter()
                    .any(|(n, v)| n == "fault.blackout_dropped" && *v > 0),
                "cell p={} m={} saw no blackout",
                row.p,
                row.m
            );
            assert!(row.fault_events() > 0);
        }
        // Fault injection is part of the deterministic fingerprint.
        assert_eq!(rows, run_sweep(&config));
    }
}
