//! Regenerates Fig. 6: the evolution process of the evolutionary game
//! (four panels, one per ESS regime) plus the full regime map.

use dap_bench::fig6::{collapse_ranges, paper_panels, regime_map, P};
use dap_bench::table;
use dap_obs::json::{self, JsonObject};

/// One JSON row: trajectory samples and the regime map share one array,
/// told apart by a `kind` discriminator.
enum Row {
    Trajectory {
        m: u32,
        step: usize,
        x: f64,
        y: f64,
        ess: String,
    },
    Regime {
        m_from: u32,
        m_to: u32,
        ess: String,
    },
}

fn emit_json() {
    let mut rows = Vec::new();
    for panel in paper_panels() {
        let ess = panel.kind.to_string();
        for s in &panel.samples {
            rows.push(Row::Trajectory {
                m: panel.m,
                step: s.step,
                x: s.x,
                y: s.y,
                ess: ess.clone(),
            });
        }
    }
    for (from, to, kind) in collapse_ranges(&regime_map(100)) {
        rows.push(Row::Regime {
            m_from: from,
            m_to: to,
            ess: kind.to_string(),
        });
    }
    println!(
        "{}",
        json::array(&rows, |row| match row {
            Row::Trajectory { m, step, x, y, ess } => JsonObject::new()
                .str("kind", "trajectory")
                .u64("m", u64::from(*m))
                .u64("step", *step as u64)
                .f64("x", *x)
                .f64("y", *y)
                .str("ess", ess),
            Row::Regime { m_from, m_to, ess } => JsonObject::new()
                .str("kind", "regime")
                .u64("m_from", u64::from(*m_from))
                .u64("m_to", u64::from(*m_to))
                .str("ess", ess),
        })
    );
}

fn main() {
    if json::json_requested() {
        emit_json();
        return;
    }
    println!("Fig. 6 — evolution of (X, Y) from (0.5, 0.5)");
    println!("Settings: R_a = 200, k1 = 20, k2 = 4, p = x_a = {P}, Euler t = 0.01");

    for panel in paper_panels() {
        table::section(&format!(
            "m = {}  →  ESS {}  at {}  ({} steps to convergence)",
            panel.m,
            panel.kind,
            panel.point,
            panel.steps.map_or("??".to_owned(), |s| s.to_string()),
        ));
        table::header(&[("step", 8), ("X", 10), ("Y", 10)]);
        for s in &panel.samples {
            println!(
                "{:>8}  {:>10}  {:>10}",
                s.step,
                table::num(s.x),
                table::num(s.y)
            );
        }
    }

    table::section("Regime map (paper: 1-11 (1,1); 12-17 (1,Y'); 18-54 (X*,Y*); 55-100 (X',1))");
    for (from, to, kind) in collapse_ranges(&regime_map(100)) {
        println!("  m {from:>3} ..= {to:>3}  →  {kind}");
    }
}
