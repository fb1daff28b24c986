//! Blackout-survival campaign against the executable BBW cluster with
//! the TTP/C-style startup protocol enabled, benchmarked single- and
//! multi-threaded; full mode also runs a larger campaign and writes
//! `STARTUP.json` (recovery fraction, cold-start and membership
//! latencies, big-bang/clique-revert counts) under `<target>/testkit/`.

use nlft_bbw::{run_blackout_campaign, BlackoutCampaignConfig, BlackoutCampaignResult};
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize) -> BlackoutCampaignResult {
    let mut config = BlackoutCampaignConfig::new(trials, 0xB1AC_2005);
    config.threads = threads;
    run_blackout_campaign(&config)
}

fn report(result: &BlackoutCampaignResult) -> Json {
    let membership = |pct: u32| {
        result
            .membership_percentile(pct)
            .map_or(Json::Null, |v| Json::UInt(u64::from(v)))
    };
    let c = &result.counts;
    Json::obj([
        ("trials", Json::UInt(c.trials)),
        ("recovery_fraction", Json::Num(result.recovery_fraction())),
        (
            "cold_start_fraction",
            Json::Num(c.cold_start_trials as f64 / c.trials as f64),
        ),
        ("big_bangs", Json::UInt(c.big_bangs)),
        ("clique_reverts", Json::UInt(c.clique_reverts)),
        ("guardian_blocks", Json::UInt(c.guardian_blocks)),
        ("held_setpoint_cycles", Json::UInt(c.held_setpoint_cycles)),
        ("membership_p50_cycles", membership(50)),
        ("membership_p95_cycles", membership(95)),
        (
            "integration_latency_mean_cycles",
            Json::Num(result.integration_latency_mean()),
        ),
    ])
}

fn main() {
    let mut b = Bench::new("startup");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("blackout_20_trials_1_thread", || {
        black_box(campaign(black_box(20), 1))
    });
    b.bench("blackout_20_trials_parallel", || {
        black_box(campaign(black_box(20), threads))
    });

    if b.is_full() {
        let result = campaign(200, threads);
        let path = artifact_path("STARTUP.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report(&result).to_string()) {
            Ok(()) => println!("startup report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
