//! Explore the attacker/defender evolutionary game: the ESS candidates
//! with the one decided stable, where the paper's Euler run from
//! (0.5, 0.5) ends, and the cost landscape over m.
//!
//! Run with: `cargo run --example game_explorer -- [p] [m]`
//! (defaults: p = 0.8, m = 30)

use crowdsense_dap::game::cost::{defense_cost, naive_defense_cost};
use crowdsense_dap::game::dynamics::evolve;
use crowdsense_dap::game::ess::{decide, ess_candidates};
use crowdsense_dap::game::optimize::{cost_landscape, optimal_buffer_count};
use crowdsense_dap::game::{DosGameParams, PopulationState};

fn main() {
    let mut args = std::env::args().skip(1);
    let p: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.8);
    let m: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);

    let params = DosGameParams::paper_defaults(p, m);
    let game = params.into_game();

    println!("Evolutionary game explorer  (R_a = 200, k1 = 20, k2 = 4)");
    println!("=========================================================");
    println!(
        "p = x_a = {p},  m = {m},  attack success P = p^m = {:.4e}",
        game.attack_success()
    );
    println!();

    println!("ESS candidates (the decided one is stable):");
    for c in ess_candidates(&game) {
        println!(
            "  {:<10} at {}  {}",
            c.kind.to_string(),
            c.point,
            if c.stable { "STABLE" } else { "unstable" }
        );
    }

    let (point, kind) = decide(&game);
    println!();
    println!("decided ESS: {kind} at {point}");
    println!(
        "defender cost at the ESS: E = {:.3}",
        defense_cost(&game, point)
    );
    let run = evolve(&game, PopulationState::CENTER, 2_000_000);
    println!(
        "the paper's Euler run from (0.5, 0.5) ends at {}{}",
        run.last(),
        run.converged_at()
            .map_or(String::from(" (step limit hit)"), |s| format!(
                " after {s} steps"
            )),
    );

    println!();
    println!("Algorithm 3 over m = 1..=50 at this attack level:");
    let economy = DosGameParams::paper_defaults(p, 1);
    let opt = optimal_buffer_count(economy, 50);
    println!(
        "  optimal m* = {} with cost E = {:.3} (ESS {})",
        opt.m, opt.cost, opt.kind
    );
    println!(
        "  naive defense (m = 50 for everyone): N = {:.3}",
        naive_defense_cost(economy, 50)
    );
    println!();
    println!("cost landscape (every 5th m):");
    for (mm, cost) in cost_landscape(economy, 50)
        .iter()
        .filter(|(mm, _)| mm % 5 == 0 || *mm == 1)
    {
        let bar_len = (cost / 4.0).round() as usize;
        println!(
            "  m={mm:>3}  E={cost:>8.2}  {}",
            "#".repeat(bar_len.min(70))
        );
    }
}
