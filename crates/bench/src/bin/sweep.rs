//! Parameter sweep over (attack level x buffers x loss), CSV output.
//!
//! Usage: `cargo run --release -p dap-bench --bin sweep [intervals] [--json] [--chaos] [--check]`
//!
//! `--chaos` layers a scripted fault plan (blackout + bit corruption +
//! duplication) on every cell's campaign; the injected-fault tally shows
//! up as a `fault_events` CSV column or per-counter `fault.*` JSON
//! fields.
//!
//! `--check` additionally runs the grid on a single thread and exits
//! nonzero unless the parallel engine's CSV is byte-identical — the
//! determinism gate `ci.sh` runs on every push.

use dap_bench::sweep::{run_sweep, run_sweep_sequential, to_csv, SweepConfig};
use dap_obs::json::{self, JsonObject};
use dap_simnet::{FaultPlan, FaultWindow, SimTime};

fn main() {
    let intervals = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let chaos = std::env::args().any(|a| a == "--chaos");
    let check = std::env::args().any(|a| a == "--check");
    let config = SweepConfig {
        attack_levels: vec![0.5, 0.67, 0.8, 0.9, 0.95],
        buffer_counts: vec![1, 2, 4, 8, 16],
        loss_rates: vec![0.0, 0.1, 0.3],
        intervals,
        announce_copies: 1,
        seed: 2016,
        fault: chaos.then(|| {
            // Windows sit in the middle of the campaign (100-tick
            // intervals) so every cell also shows the recovery tail.
            let mid = intervals * 100 / 2;
            FaultPlan::new(2016)
                .blackout(FaultWindow::new(SimTime(mid), SimTime(mid + 500)))
                .corrupt(
                    FaultWindow::new(SimTime(mid + 1000), SimTime(mid + 2000)),
                    0.5,
                )
                .duplicate(
                    FaultWindow::new(SimTime(mid + 2000), SimTime(mid + 3000)),
                    0.5,
                )
        }),
    };
    let rows = run_sweep(&config);
    if check {
        let reference = run_sweep_sequential(&config);
        if to_csv(&rows) != to_csv(&reference) {
            eprintln!("sweep --check: parallel CSV differs from sequential reference");
            std::process::exit(1);
        }
        eprintln!(
            "sweep --check: parallel output byte-identical across {} cells",
            rows.len()
        );
    }
    if json::json_requested() {
        println!(
            "{}",
            json::array(&rows, |r| {
                let mut obj = JsonObject::new()
                    .f64("p", r.p)
                    .u64("m", r.m as u64)
                    .f64("loss", r.loss)
                    .f64("rate", r.rate)
                    .f64("predicted", r.predicted)
                    .u64("peak_memory_bits", r.peak_memory_bits)
                    .u64("fault_events", r.fault_events());
                for (name, value) in &r.fault_counters {
                    obj = obj.u64(name, *value);
                }
                obj
            })
        );
    } else {
        print!("{}", to_csv(&rows));
    }
}
