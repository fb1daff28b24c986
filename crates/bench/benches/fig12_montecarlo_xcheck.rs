//! Monte-Carlo cross-validation of the Figure 12 analytic curves,
//! printed and benchmarked.

use nlft_bbw::analytic::{Functionality, Policy};
use nlft_bbw::montecarlo::{run_monte_carlo, MonteCarloConfig};
use nlft_bench::{report, xcheck};
use nlft_engine::EngineConfig;
use nlft_testkit::bench::Bench;
use std::hint::black_box;

fn print_table() {
    print!(
        "{}",
        report::heading("Monte-Carlo cross-check — regenerated")
    );
    println!(
        "{:<16}{:>10}{:>12}{:>12}{:>24}",
        "config", "t (h)", "analytic", "MC", "95% CI"
    );
    for row in xcheck::generate(5_000, 0x5EED) {
        println!(
            "{:<16}{:>10.0}{:>12.4}{:>12.4}      [{:.4}, {:.4}]",
            row.label, row.t_hours, row.analytic, row.monte_carlo, row.ci.0, row.ci.1
        );
    }
}

fn main() {
    let mut b = Bench::new("montecarlo");
    if b.is_full() {
        print_table();
    }

    b.bench("100_replications_one_year", || {
        let cfg =
            MonteCarloConfig::one_year(Policy::Nlft, Functionality::Degraded, 100, black_box(11));
        black_box(run_monte_carlo(&cfg, &EngineConfig::default()))
    });
    b.finish();
}
