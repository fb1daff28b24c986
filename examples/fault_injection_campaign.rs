//! Fault-injection campaign: estimating the paper's parameters.
//!
//! Loads the two Table-1 reference scenarios from the zoo
//! (`scenarios/node-failsilent-reference.scn` and
//! `scenarios/node-nlft-reference.scn`), compiles each through the
//! scenario DSL onto the node-level campaign runner, and reports the
//! Table-1 detection matrix and the parameter estimates (`C_D`, `P_T`,
//! `P_OM`, `P_FS`) with Wilson confidence intervals. The trial count on
//! the command line overrides the scenario's declared count, so the same
//! declarative files drive both the quick smoke run and the full
//! estimation campaign.
//!
//! ```text
//! cargo run --release --example fault_injection_campaign [trials]
//! ```

use nlft::bbw::{compile, CompiledFamily};
use nlft::engine::EngineConfig;
use nlft::reliability::scenario::parse_scenario;
use nlft::sim::stats::Confidence;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let engine = EngineConfig::all_cores();

    for file in ["node-failsilent-reference", "node-nlft-reference"] {
        let path = format!("{}/scenarios/{file}.scn", env!("CARGO_MANIFEST_DIR"));
        let source =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("could not read {path}: {e}"));
        let spec = parse_scenario(&source).unwrap_or_else(|e| panic!("{file}.scn: {e}"));
        let mut config = match compile(&spec, engine.workers).map(|c| c.family) {
            Ok(CompiledFamily::Node(config)) => config,
            Ok(_) => panic!("{file}.scn: expected a `family node` scenario"),
            Err(e) => panic!("{e}"),
        };
        // The zoo pins the scenario at its declared trial count; here we
        // scale the same experiment up (or down) for estimation quality.
        config.trials = trials;
        let result = nlft::core::campaign::run_campaign(&config, &engine);

        println!(
            "\n================ scenario: {} (policy {}) ================",
            spec.name, config.policy
        );
        println!("{result}\n");
        println!("detection matrix (fault class x mechanism):");
        print!("{}", result.matrix.render_table());

        let ci = |p: nlft::sim::stats::Proportion| {
            let (lo, hi) = p.wilson_interval(Confidence::C95);
            format!("{:.4} [{:.4}, {:.4}]", p.estimate(), lo, hi)
        };
        println!("\nestimates with 95% Wilson intervals:");
        println!("  C_D  = {}", ci(result.counts.coverage()));
        println!("  P_T  = {}", ci(result.counts.p_t()));
        println!("  P_OM = {}", ci(result.counts.p_om()));
        println!("  P_FS = {}", ci(result.counts.p_fs()));
        println!(
            "\nnode-boundary failure modes: masked {} / omission {} / fail-silent {} / undetected {}",
            result.counts.masked,
            result.counts.omission,
            result.counts.fail_silent,
            result.counts.undetected
        );
    }

    println!("\npaper §3.3 assumed: C_D = 0.99, P_T = 0.90, P_OM = 0.05, P_FS = 0.05");
    println!("(our structural model detects more than the paper's hardware did —");
    println!(" the analytic models take these parameters as inputs either way)");
}
