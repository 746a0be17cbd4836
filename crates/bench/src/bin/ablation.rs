//! Ablations of DAP's design choices: random vs first-come buffering,
//! μMAC width, and replicator integrator step size.

use dap_bench::ablation::{buffer_policy_ablation, integrator_ablation, micro_mac_width_ablation};
use dap_bench::table;

fn main() {
    table::section("1. Multi-buffer RANDOM selection vs first-come (m = 3, early-burst flood)");
    table::header(&[
        ("forged first", 12),
        ("first-come", 12),
        ("reservoir", 12),
        ("predicted m/n", 14),
    ]);
    for pt in buffer_policy_ablation(3, &[0, 2, 5, 10, 20, 50], 20_000, 7) {
        println!(
            "{:>12}  {:>12}  {:>12}  {:>14}",
            pt.forged_first,
            table::num(pt.first_come),
            table::num(pt.reservoir),
            table::num(pt.predicted),
        );
    }
    println!();
    println!("An attacker bursting copies at interval start starves first-come completely;");
    println!("the reservoir's survival stays at m/n regardless of arrival order.");

    table::section("2. uMAC width (entry = uMAC + 32-bit index)");
    table::header(&[
        ("bits", 6),
        ("entry bits", 10),
        ("P[false accept] k=8", 20),
        ("k=64", 12),
        ("empirical/forgery", 18),
    ]);
    for pt in micro_mac_width_ablation(&[8, 16, 24, 32], 2_000_000, 8) {
        println!(
            "{:>6}  {:>10}  {:>20}  {:>12}  {:>18}",
            pt.bits,
            pt.entry_bits,
            table::num(pt.false_accept_k8),
            table::num(pt.false_accept_k64),
            table::num(pt.empirical_collision),
        );
    }
    println!();
    println!("24 bits (the paper's choice) keeps the per-interval false-accept");
    println!("probability below 1e-5 even against 64 buffered forgeries, at 1/5th");
    println!("the memory of storing the full 80-bit MAC.");

    table::section("3. Replicator integrator (p = 0.8)");
    for m in [14u32, 30] {
        println!();
        println!("m = {m}:");
        table::header(&[
            ("integrator", 16),
            ("X", 10),
            ("Y", 10),
            ("to ESS", 10),
            ("steps", 10),
        ]);
        for pt in integrator_ablation(m) {
            println!(
                "{:>16}  {:>10}  {:>10}  {:>10}  {:>10}",
                pt.label,
                table::num(pt.settle.0),
                table::num(pt.settle.1),
                table::num(pt.distance),
                pt.steps.map_or("(limit)".into(), |s| s.to_string()),
            );
        }
    }
    println!();
    println!("The paper's t = 0.01 agrees with dt = 0.001 and RK4 on both regime and");
    println!("settle point; dt = 0.1 is too coarse for the interior spiral (m = 30):");
    println!("explicit-Euler overshoot pumps the spiral outward until it sticks at the");
    println!("(1,1) corner. The paper's step size is load-bearing.");
}
