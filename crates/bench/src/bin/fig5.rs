//! Regenerates Fig. 5: required bandwidth fraction for MACs at different
//! levels of DoS attack, DAP vs TESLA++.

use dap_bench::fig5::{buffer_counts, default_levels, series, sim_check, Fig5Point, X_D};
use dap_bench::table;
use dap_obs::json::{self, JsonObject};

/// One JSON row: the two sections of the figure share one array, told
/// apart by a `kind` discriminator.
enum Row {
    Bandwidth { mem_kb: u64, pt: Fig5Point },
    SimCheck(dap_bench::fig5::SimCheckPoint),
}

fn emit_json() {
    let mut rows = Vec::new();
    for mem_kb in [1024u64, 512] {
        for pt in series(mem_kb, &default_levels()) {
            rows.push(Row::Bandwidth { mem_kb, pt });
        }
    }
    for pt in sim_check(560, &[0.5, 0.7, 0.8, 0.9], 600, 2024) {
        rows.push(Row::SimCheck(pt));
    }
    println!(
        "{}",
        json::array(&rows, |row| match row {
            Row::Bandwidth { mem_kb, pt } => JsonObject::new()
                .str("kind", "bandwidth")
                .u64("mem_kb", *mem_kb)
                .f64("attack_level", pt.attack_level)
                .f64("teslapp", pt.teslapp)
                .f64("dap", pt.dap)
                .f64("literal_teslapp", pt.literal_teslapp)
                .f64("literal_dap", pt.literal_dap),
            Row::SimCheck(pt) => JsonObject::new()
                .str("kind", "sim_check")
                .f64("p", pt.p)
                .u64("m_teslapp", pt.m_teslapp as u64)
                .u64("m_dap", pt.m_dap as u64)
                .f64("rate_teslapp", pt.rate_teslapp)
                .f64("rate_dap", pt.rate_dap)
                .f64("pred_teslapp", 1.0 - pt.p.powi(pt.m_teslapp as i32))
                .f64("pred_dap", 1.0 - pt.p.powi(pt.m_dap as i32)),
        })
    );
}

fn main() {
    if json::json_requested() {
        emit_json();
        return;
    }
    println!("Fig. 5 — required MAC bandwidth fraction (x_d = {X_D})");
    println!("Settings: s1 = 280 b/packet (TESLA++), s2 = 56 b/packet (DAP); M = Mem/s");

    for mem_kb in [1024u64, 512] {
        let (m1, m2) = buffer_counts(mem_kb);
        table::section(&format!(
            "Mem = {mem_kb} kb  (M_TESLA++ = {m1}, M_DAP = {m2})"
        ));
        table::header(&[
            ("attack P", 10),
            ("TESLA++", 12),
            ("DAP", 12),
            ("ratio", 8),
            ("literal T++", 12),
            ("literal DAP", 12),
        ]);
        for pt in series(mem_kb, &default_levels()) {
            println!(
                "{:>10}  {:>12}  {:>12}  {:>8}  {:>12}  {:>12}",
                table::num(pt.attack_level),
                table::num(pt.teslapp),
                table::num(pt.dap),
                format!("{:.2}x", pt.teslapp / pt.dap),
                table::num(pt.literal_teslapp),
                table::num(pt.literal_dap),
            );
        }
    }

    table::section("Simulation cross-check (560-bit buffer memory, 600 intervals)");
    table::header(&[
        ("p", 8),
        ("m T++", 8),
        ("m DAP", 8),
        ("rate T++", 10),
        ("rate DAP", 10),
        ("1-p^m T++", 10),
        ("1-p^m DAP", 10),
    ]);
    for pt in sim_check(560, &[0.5, 0.7, 0.8, 0.9], 600, 2024) {
        println!(
            "{:>8}  {:>8}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
            table::num(pt.p),
            pt.m_teslapp,
            pt.m_dap,
            table::num(pt.rate_teslapp),
            table::num(pt.rate_dap),
            table::num(1.0 - pt.p.powi(pt.m_teslapp as i32)),
            table::num(1.0 - pt.p.powi(pt.m_dap as i32)),
        );
    }
    println!();
    println!("Shape check: DAP requires ~5x less MAC bandwidth than TESLA++ at every");
    println!("attack level (M_DAP = 5 * M_TESLA++ from the 80% memory saving).");
}
