//! Table 1 — error-detection mechanism matrix and parameter estimation
//! from a fault-injection campaign, printed and benchmarked.

use nlft_bench::{report, table1};
use nlft_core::campaign::{run_campaign, CampaignConfig};
use nlft_core::policy::NodePolicy;
use nlft_engine::EngineConfig;
use nlft_testkit::bench::Bench;
use std::hint::black_box;

fn print_table() {
    print!(
        "{}",
        report::heading("Table 1 — regenerated detection matrix")
    );
    for policy in [NodePolicy::LightweightNlft, NodePolicy::FailSilent] {
        let result = table1::generate(5_000, 0x7AB1E, policy);
        println!("policy: {policy}");
        print!("{}", result.matrix.render_table());
        println!("{result}\n");
    }
}

fn main() {
    let mut b = Bench::new("table1");
    if b.is_full() {
        print_table();
    }

    for policy in [NodePolicy::LightweightNlft, NodePolicy::FailSilent] {
        b.bench(&format!("campaign_100_trials_{policy}"), || {
            let cfg = CampaignConfig::new(100, black_box(7), policy);
            black_box(run_campaign(&cfg, &EngineConfig::default()))
        });
    }
    b.finish();
}
