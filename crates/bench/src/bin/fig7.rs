//! Regenerates Fig. 7: the optimised number of buffers at different
//! levels of DoS attack.

use dap_bench::fig7::{default_sweep, sweep, BUFFER_CAP};
use dap_bench::table;
use dap_obs::json::{self, JsonObject};

fn main() {
    if json::json_requested() {
        let points = sweep(&default_sweep());
        println!(
            "{}",
            json::array(&points, |pt| {
                JsonObject::new()
                    .f64("p", pt.p)
                    .u64("m_star", u64::from(pt.m_star))
                    .str("ess", &pt.kind.to_string())
                    .f64("cost", pt.cost)
                    .u64("m_literal", u64::from(pt.m_literal))
                    .bool("saturated", pt.saturated)
            })
        );
        return;
    }
    println!("Fig. 7 — optimal buffer count m* vs attack level p (cap M = {BUFFER_CAP})");
    println!("Settings: R_a = 200, k1 = 20, k2 = 4; ESS from (0.5, 0.5), Euler t = 0.01");
    println!();
    table::header(&[
        ("p", 8),
        ("m* argmin", 10),
        ("ESS", 10),
        ("cost E", 10),
        ("m Alg.3 literal", 16),
        ("saturated", 10),
    ]);
    for pt in sweep(&default_sweep()) {
        println!(
            "{:>8}  {:>10}  {:>10}  {:>10}  {:>16}  {:>10}",
            table::num(pt.p),
            pt.m_star,
            pt.kind.to_string(),
            table::num(pt.cost),
            pt.m_literal,
            if pt.saturated { "yes" } else { "no" },
        );
    }
    println!();
    println!("Shape check: m* grows with p through the moderate band; past p ~ 0.94");
    println!("the ESS flips to (X',1), the cost saturates at R_a for EVERY m, and");
    println!("buying buffers stops paying (the paper pins m = M = 50 there).");
}
