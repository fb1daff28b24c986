//! Integration: the full brake-by-wire stack — executable cluster,
//! analytic models and Monte-Carlo simulation telling one consistent story.

use nlft::bbw::analytic::{BbwSystem, Functionality, Policy, HOURS_PER_YEAR};
use nlft::bbw::cluster::{BbwCluster, ClusterInjection, CU_A, CU_B, WHEELS};
use nlft::bbw::montecarlo::{run_monte_carlo, MonteCarloConfig};
use nlft::bbw::params::BbwParams;
use nlft::engine::EngineConfig;
use nlft::machine::fault::{FaultTarget, TransientFault};
use nlft::net::bus::BusConfig;
use nlft::net::timing::{derive_repair_rates, paper_membership, BusTiming, NodeRecoveryTimes};
use nlft::reliability::model::ReliabilityModel;
use nlft::sim::stats::Confidence;

#[test]
fn cluster_brakes_proportionally_to_pedal() {
    let mut cluster = BbwCluster::new();
    let report = cluster.run(16, |c| (c * 250).min(4000));
    assert!(!report.service_lost);
    // Total wheel force grows as the pedal is pressed.
    let total = |idx: usize| -> u32 {
        report.records[idx]
            .wheel_force
            .iter()
            .map(|f| f.unwrap_or(0))
            .sum()
    };
    assert!(total(15) > total(5));
}

#[test]
fn single_wheel_outage_keeps_three_quarters_of_braking() {
    let mut cluster = BbwCluster::new();
    cluster.silence_node(WHEELS[0], 6);
    let report = cluster.run(14, |_| 2000);
    assert!(!report.service_lost, "degraded mode is survivable");
    // Degraded-mode cycles exist and redistribute force.
    let degraded: Vec<_> = report.records.iter().filter(|r| r.degraded).collect();
    assert!(!degraded.is_empty());
    // Eventually back to full membership.
    assert_eq!(report.records.last().unwrap().members, 6);
}

#[test]
fn duplex_cu_masks_one_replica_fault_but_not_two() {
    // One replica: fine.
    let mut cluster = BbwCluster::new();
    cluster.silence_node(CU_B, 4);
    assert!(!cluster.run(10, |_| 1500).service_lost);
    // Both replicas: braking gone — exactly the 0→F transition of Fig. 7.
    let mut cluster = BbwCluster::new();
    cluster.silence_node(CU_A, 6);
    cluster.silence_node(CU_B, 6);
    assert!(cluster.run(10, |_| 1500).service_lost);
}

#[test]
fn masked_transients_never_reach_the_bus() {
    let mut cluster = BbwCluster::new();
    for (i, &wheel) in WHEELS.iter().enumerate() {
        cluster.inject(ClusterInjection {
            cycle: 3 + i as u32,
            node: wheel,
            copy: (i % 2) as u32,
            at_cycle: 5,
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
        });
    }
    let report = cluster.run(12, |_| 1000);
    assert_eq!(report.omissions, 0, "all four transients masked locally");
    assert_eq!(report.degraded_cycles, 0);
    assert!(!report.service_lost);
}

#[test]
fn analytic_cluster_and_montecarlo_agree_on_the_ordering() {
    // The three views must agree on the paper's core claim: NLFT strictly
    // beats FS, and degraded strictly beats full functionality.
    let params = BbwParams::paper();
    let t = HOURS_PER_YEAR;
    let r = |p, f| BbwSystem::new(&params, p, f).reliability(t);
    assert!(
        r(Policy::Nlft, Functionality::Degraded) > r(Policy::FailSilent, Functionality::Degraded)
    );
    assert!(r(Policy::Nlft, Functionality::Full) > r(Policy::FailSilent, Functionality::Full));
    assert!(r(Policy::Nlft, Functionality::Degraded) > r(Policy::Nlft, Functionality::Full));

    let mc = |p, f| {
        let mut cfg = MonteCarloConfig::one_year(p, f, 1_500, 0xABCD);
        cfg.grid_hours = vec![t];
        run_monte_carlo(&cfg, &EngineConfig::default()).reliability()[0]
    };
    assert!(
        mc(Policy::Nlft, Functionality::Degraded) > mc(Policy::FailSilent, Functionality::Degraded)
    );
}

#[test]
fn montecarlo_brackets_analytic_at_one_year() {
    for (policy, functionality) in [
        (Policy::FailSilent, Functionality::Degraded),
        (Policy::Nlft, Functionality::Degraded),
    ] {
        let mut cfg = MonteCarloConfig::one_year(policy, functionality, 2_500, 0x1111);
        cfg.grid_hours = vec![HOURS_PER_YEAR];
        let mc = run_monte_carlo(&cfg, &EngineConfig::default());
        let analytic =
            BbwSystem::new(&BbwParams::paper(), policy, functionality).reliability(HOURS_PER_YEAR);
        let (lo, hi) = mc.curve.confidence_band(Confidence::C99)[0];
        assert!(
            (lo..=hi).contains(&analytic),
            "{policy:?}/{functionality:?}: analytic {analytic} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn uncovered_errors_dominate_short_missions() {
    // At 5 hours the repairable states contribute almost nothing; the
    // system unreliability is essentially the uncovered-error rate × t —
    // the structure behind Fig. 14's coverage sensitivity.
    let params = BbwParams::paper();
    let sys = BbwSystem::new(&params, Policy::Nlft, Functionality::Degraded);
    let t = 5.0;
    let unrel = 1.0 - sys.reliability(t);
    let uncovered_only = 6.0 * params.uncovered_rate() * t; // 6 nodes
    assert!(
        (unrel - uncovered_only).abs() / uncovered_only < 0.15,
        "short-mission unreliability {unrel:.3e} should track uncovered rate {uncovered_only:.3e}"
    );
}

#[test]
fn repair_rates_derived_from_the_network_reproduce_the_headline() {
    // Full pipeline: bus geometry + membership thresholds + node recovery
    // times → μ_R/μ_OM → Markov models → the paper's conclusion. No
    // hand-entered repair constants anywhere.
    let config = BusConfig::round_robin(6, 0);
    let rates = derive_repair_rates(
        &BusTiming::paper_like(),
        &config,
        &paper_membership(&config),
        &NodeRecoveryTimes::paper_like(),
    );
    let mut params = BbwParams::paper();
    params.mu_r = rates.mu_r;
    params.mu_om = rates.mu_om;
    params.validate().expect("derived rates are valid");

    let fs = BbwSystem::new(&params, Policy::FailSilent, Functionality::Degraded);
    let nlft = BbwSystem::new(&params, Policy::Nlft, Functionality::Degraded);
    let (r_fs, r_nlft) = (
        fs.reliability(HOURS_PER_YEAR),
        nlft.reliability(HOURS_PER_YEAR),
    );
    assert!((r_fs - 0.4643).abs() < 0.01, "FS {r_fs}");
    assert!((r_nlft - 0.7117).abs() < 0.01, "NLFT {r_nlft}");
}
