//! Value-domain storm campaign against the executable BBW cluster,
//! benchmarked single- and multi-threaded; full mode also runs larger
//! single-fault and combined-storm campaigns and writes
//! `VALUE_DOMAIN.json` (outcome fractions, measured detection coverage,
//! braking-safety metrics, command-path counters) under
//! `<target>/testkit/`.

use nlft_bbw::{run_value_domain_campaign, ValueDomainCampaignConfig, ValueDomainCampaignResult};
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn single_fault(trials: u64, threads: usize) -> ValueDomainCampaignResult {
    let mut config = ValueDomainCampaignConfig::single_fault(trials, 0x5EA1_2005);
    config.threads = threads;
    run_value_domain_campaign(&config)
}

fn combined_storm(trials: u64, threads: usize) -> ValueDomainCampaignResult {
    let mut config = ValueDomainCampaignConfig::combined_storm(trials, 0x5EA1_2006);
    config.threads = threads;
    run_value_domain_campaign(&config)
}

fn report(result: &ValueDomainCampaignResult) -> Json {
    let frac = |n: u64| Json::Num(n as f64 / result.trials as f64);
    Json::obj([
        ("trials", Json::UInt(result.trials)),
        ("masked", frac(result.masked)),
        ("detected", frac(result.detected)),
        ("service_lost", frac(result.service_lost)),
        ("undetected", frac(result.undetected)),
        ("detection_coverage", Json::Num(result.detection_coverage())),
        (
            "worst_total_force_deficit",
            Json::UInt(result.worst_total_force_deficit),
        ),
        (
            "worst_left_right_imbalance",
            Json::UInt(result.worst_left_right_imbalance),
        ),
        ("seal_rejects", Json::UInt(result.seal_rejects)),
        ("stale_rejects", Json::UInt(result.stale_rejects)),
        (
            "held_setpoint_cycles",
            Json::UInt(result.held_setpoint_cycles),
        ),
        ("sensor_demotions", Json::UInt(result.sensor_demotions)),
        ("actuator_trips", Json::UInt(result.actuator_trips)),
        (
            "undetected_value_failures",
            Json::UInt(result.undetected_value_failures),
        ),
    ])
}

fn main() {
    let mut b = Bench::new("value_domain");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("single_fault_20_trials_1_thread", || {
        black_box(single_fault(black_box(20), 1))
    });
    b.bench("combined_storm_20_trials_1_thread", || {
        black_box(combined_storm(black_box(20), 1))
    });
    b.bench("combined_storm_20_trials_parallel", || {
        black_box(combined_storm(black_box(20), threads))
    });

    if b.is_full() {
        let coverage = single_fault(200, threads);
        let storm = combined_storm(200, threads);
        let json = Json::obj([
            ("single_fault", report(&coverage)),
            ("combined_storm", report(&storm)),
        ]);
        let path = artifact_path("VALUE_DOMAIN.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, json.to_string()) {
            Ok(()) => println!("value-domain report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
