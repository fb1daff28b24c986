//! Value-domain fault storm against the executable BBW cluster.
//!
//! Three acts:
//!
//! 1. a guided tour — one cluster takes a stuck pedal channel, a runaway
//!    brake actuator and a corrupted wheel-local command in a single run;
//!    the median vote masks the sensor, the divergence monitor fails the
//!    actuator to safe release, and the sealed-command check rejects the
//!    corruption while the wheel brakes on its held set-point.
//! 2. a single-fault coverage campaign — every trial injects exactly one
//!    value-domain fault; the campaign *measures* the detection coverage
//!    (it must be 1.0: zero silent value failures).
//! 3. a combined storm — sensor + actuator + command + network + node
//!    faults per trial, scored on braking-safety metrics against a
//!    fault-free twin, and fed back into the extended fault tree to show
//!    what the measured coverage buys analytically.
//!
//! ```text
//! cargo run --release --example value_domain_storm [trials]
//! ```

use nlft::bbw::analytic::{Functionality, Policy, ValueDomainSystem, HOURS_PER_YEAR};
use nlft::bbw::cluster::{BbwCluster, WHEELS};
use nlft::bbw::params::BbwParams;
use nlft::bbw::value_campaign::campaign_pedal;
use nlft::bbw::{
    run_value_domain_campaign, ActuatorFault, SensorFault, ValueDomainCampaignConfig,
    ValueDomainCampaignResult, ValueDomainParams,
};
use nlft::engine::EngineConfig;
use nlft::reliability::model::ReliabilityModel;

fn act_one() {
    println!("=== act 1: stuck sensor + runaway actuator + corrupt command ===");
    let mut cluster = BbwCluster::new();
    cluster.attach_sensor_fault(1, SensorFault::StuckAt(4095), 3);
    cluster.attach_actuator_fault(2, ActuatorFault::Runaway { step: 400 }, 5);
    cluster.corrupt_command_at_wheel(8, 0, 2, 0x0000_4000);

    let report = cluster.run(24, campaign_pedal);
    for r in &report.records {
        let forces: Vec<String> = r
            .wheel_force
            .iter()
            .map(|f| {
                f.map(|v| format!("{v:>4}"))
                    .unwrap_or_else(|| "   -".into())
            })
            .collect();
        println!(
            "cycle {:>2}  pedal {:>4}  forces [{}]{}",
            r.cycle,
            campaign_pedal(r.cycle),
            forces.join(" "),
            if r.degraded { "  DEGRADED" } else { "" },
        );
    }
    let v = &report.value;
    println!(
        "sensor layer: {} implausibility flags, {} demotions, voted error bounded: {}",
        v.sensor_implausible_flags,
        v.sensor_demotions,
        v.undetected_sensor_cycles == 0,
    );
    println!(
        "command layer: {} seal rejects, {} stale rejects, {} held-set-point cycles",
        v.seal_rejects, v.stale_rejects, v.held_setpoint_cycles,
    );
    for (cycle, node) in &v.actuator_trips {
        let wheel = WHEELS.iter().position(|w| w == node).unwrap_or(usize::MAX);
        println!("actuator layer: wheel {wheel} failed to safe release at cycle {cycle}");
    }
    assert_eq!(v.undetected_value_failures(), 0);
    assert!(!report.service_lost);
    println!("silent value failures: 0; braking service never lost");
}

fn print_campaign(result: &ValueDomainCampaignResult) {
    let pct = |n: u64| 100.0 * n as f64 / result.trials as f64;
    println!(
        "  masked            {:>6} ({:>5.1}%)",
        result.masked,
        pct(result.masked)
    );
    println!(
        "  detected          {:>6} ({:>5.1}%)",
        result.detected,
        pct(result.detected)
    );
    println!(
        "  service lost      {:>6} ({:>5.1}%)",
        result.service_lost,
        pct(result.service_lost)
    );
    println!(
        "  undetected        {:>6} ({:>5.1}%)",
        result.undetected,
        pct(result.undetected)
    );
    println!(
        "  worst total-force deficit {:>5}, worst left/right imbalance {:>5}",
        result.worst_total_force_deficit, result.worst_left_right_imbalance
    );
    println!(
        "  command path: {} seal rejects, {} stale rejects, {} held cycles",
        result.seal_rejects, result.stale_rejects, result.held_setpoint_cycles
    );
    println!(
        "  {} sensor demotions, {} actuator trips, measured coverage {:.4}",
        result.sensor_demotions,
        result.actuator_trips,
        result.detection_coverage()
    );
}

fn act_two(trials: u64) -> f64 {
    println!("\n=== act 2: single-fault coverage campaign ({trials} trials) ===");
    let config = ValueDomainCampaignConfig::single_fault(trials, 0x5EA1_2005);
    let result = run_value_domain_campaign(&config, &EngineConfig::all_cores());
    print_campaign(&result);
    assert_eq!(
        result.undetected, 0,
        "single value faults must never be silent"
    );
    result.detection_coverage()
}

fn act_three(trials: u64, measured_coverage: f64) {
    println!("\n=== act 3: combined storm campaign ({trials} trials) ===");
    let config = ValueDomainCampaignConfig::combined_storm(trials, 0x5EA1_2006);
    let result = run_value_domain_campaign(&config, &EngineConfig::all_cores());
    print_campaign(&result);

    println!("\nextended fault tree, one-year mission, degraded mode:");
    let params = BbwParams::paper();
    for coverage in [measured_coverage, 0.99, 0.9, 0.5] {
        let vd = ValueDomainParams::nominal().with_coverage(coverage);
        let fs = ValueDomainSystem::new(&params, Policy::FailSilent, Functionality::Degraded, &vd);
        let nlft = ValueDomainSystem::new(&params, Policy::Nlft, Functionality::Degraded, &vd);
        println!(
            "  coverage {:>6.4}: U_fs {:.6e}  U_nlft {:.6e}  improvement {:.3}x",
            coverage,
            fs.unreliability(HOURS_PER_YEAR),
            nlft.unreliability(HOURS_PER_YEAR),
            fs.unreliability(HOURS_PER_YEAR) / nlft.unreliability(HOURS_PER_YEAR),
        );
    }
    println!("imperfect value coverage erodes the NLFT gain toward 1 — the");
    println!("campaign's measured coverage is what keeps the architecture honest.");
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    act_one();
    let coverage = act_two(trials);
    act_three(trials.div_ceil(2), coverage);
}
