//! Fault diagnosis and recovery escalation on the BBW cluster.
//!
//! Three acts plus two campaigns:
//!
//! 1. a transient storm — every node takes one-shot CPU transients; TEM
//!    masks all of them and the escalation ladder never moves;
//! 2. an intermittent wheel — a recurring-transient burst drives a wheel
//!    node down the ladder (suspect → fail-silent → restart), the burst
//!    expires while the node is silent, and the wheel reintegrates into
//!    bus membership;
//! 3. a permanent central unit — a stuck-at CU replica burns its restart
//!    budget and is retired; the duplex pair degrades to simplex while
//!    braking continues.
//!
//! Then the node-level recovery campaign (α-count discrimination metrics,
//! false-retirement Wilson interval) and the cluster-level campaign
//! (outcome distribution across the three fault classes), closing with
//! the analytic cross-check: the escalation ladder unfolded into an
//! absorbing DTMC must predict the campaign's measured retirement latency.
//!
//! ```text
//! cargo run --release --example recovery_escalation [trials]
//! ```

use nlft::bbw::recovery::{
    intermittent_wheel_scenario, permanent_cu_scenario, run_recovery_cluster_campaign,
    transient_storm_scenario, RecoveryClusterCampaignConfig,
};
use nlft::core::campaign::{run_recovery_campaign, RecoveryCampaignConfig};
use nlft::core::diagnosis::escalation_chain;
use nlft::engine::EngineConfig;
use nlft::kernel::escalation::EscalationPolicy;
use nlft::reliability::dtmc::AbsorbingDtmc;

fn act_one() {
    println!("=== act 1: transient storm — masked, ladder never moves ===");
    let report = transient_storm_scenario(0xAC71);
    println!(
        "escalation events: {}, restarts: {}, retired: {:?}",
        report.escalations.len(),
        report.restarts,
        report.retired_nodes
    );
    println!(
        "degraded cycles {}, min members {}, service lost: {}",
        report.degraded_cycles, report.min_members, report.service_lost
    );
    assert!(report.escalations.is_empty() && report.restarts == 0);
    assert!(!report.service_lost);
}

fn act_two() {
    println!("\n=== act 2: intermittent wheel — restart and reintegration ===");
    let (report, victim) = intermittent_wheel_scenario(0xAC72);
    for (cycle, node, event) in &report.escalations {
        println!("  cycle {cycle:>2}  node {node}  {event:?}");
    }
    println!(
        "victim {victim}: restarts {}, retired {:?}, min members {}, members at end {}",
        report.restarts,
        report.retired_nodes,
        report.min_members,
        report.records.last().map(|r| r.members).unwrap_or(0)
    );
    assert!(report.restarts >= 1 && report.retired_nodes.is_empty());
    assert!(!report.service_lost);
}

fn act_three() {
    println!("\n=== act 3: permanent CU replica — retired, duplex degrades ===");
    let report = permanent_cu_scenario(0xAC73);
    for (cycle, node, event) in &report.escalations {
        println!("  cycle {cycle:>2}  node {node}  {event:?}");
    }
    println!(
        "retired: {:?} after {} restarts; members at end {}; service lost: {}",
        report.retired_nodes,
        report.restarts,
        report.records.last().map(|r| r.members).unwrap_or(0),
        report.service_lost
    );
    assert_eq!(report.retired_nodes.len(), 1);
    assert!(!report.service_lost, "simplex CU keeps braking");
}

fn node_campaign(trials: u64) {
    println!("\n=== node-level recovery campaign ({trials} trials) ===");
    let config = RecoveryCampaignConfig::new(trials, 0x2005_AC01);
    let result = run_recovery_campaign(&config, &EngineConfig::all_cores());
    println!("{result}");
    println!(
        "  retirement latency = {:.2} jobs (n={}), undetected-wrong jobs = {}",
        result.retirement_latency_jobs.mean(),
        result.retirement_latency_jobs.count(),
        result.counts.undetected_wrong_jobs
    );
}

fn cluster_campaign(trials: u64) {
    println!("\n=== cluster-level recovery campaign ({trials} trials) ===");
    let config = RecoveryClusterCampaignConfig::new(trials, 0x2005_AC02);
    let o = run_recovery_cluster_campaign(&config, &EngineConfig::all_cores());
    let pct = |n: u64| 100.0 * n as f64 / o.trials as f64;
    println!(
        "  masked transient  {:>6} ({:>5.1}%)",
        o.masked_transient,
        pct(o.masked_transient)
    );
    println!(
        "  recovered         {:>6} ({:>5.1}%)",
        o.recovered,
        pct(o.recovered)
    );
    println!(
        "  retired           {:>6} ({:>5.1}%)",
        o.retired,
        pct(o.retired)
    );
    println!(
        "  false retirement  {:>6} ({:>5.1}%)",
        o.false_retirement,
        pct(o.false_retirement)
    );
    println!(
        "  missed permanent  {:>6} ({:>5.1}%)",
        o.missed_permanent,
        pct(o.missed_permanent)
    );
    println!(
        "  service lost      {:>6} ({:>5.1}%)",
        o.service_lost,
        pct(o.service_lost)
    );
    println!(
        "  unresolved        {:>6} ({:>5.1}%)",
        o.unresolved,
        pct(o.unresolved)
    );
    assert_eq!(o.service_lost, 0, "recovery must never cost the service");
}

fn analytic_crosscheck() {
    println!("\n=== analytic cross-check: ladder as an absorbing DTMC ===");
    let policy = EscalationPolicy::default();
    for p_err in [1.0, 0.5, 0.05] {
        let chain = escalation_chain(policy, p_err);
        let dtmc = AbsorbingDtmc::new(chain.matrix.clone(), &chain.retired)
            .expect("ladder chain is a valid absorbing DTMC");
        let steps = dtmc
            .expected_steps_to_absorption(chain.start)
            .expect("retirement reachable");
        println!(
            "  p_err = {p_err:<4}  {} states, E[slots to retirement] = {steps:.1}",
            chain.matrix.len()
        );
    }
    println!("  (p_err = 1 is the detected-stuck-at path: campaign latency + 1 onset slot)");
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    act_one();
    act_two();
    act_three();
    node_campaign(trials.max(8));
    cluster_campaign(trials.max(8));
    analytic_crosscheck();
    println!("\nall recovery scenarios held.");
}
