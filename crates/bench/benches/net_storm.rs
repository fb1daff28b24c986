//! Network fault-storm campaign against the executable BBW cluster,
//! benchmarked single- and multi-threaded; full mode also runs a larger
//! campaign and writes `NET_STORM.json` (outcome fractions, measured
//! coverage parameters, reintegration latency percentiles) under
//! `<target>/testkit/`.

use nlft_bbw::{run_net_storm_campaign, NetStormCampaignConfig, NetStormCampaignResult};
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize) -> NetStormCampaignResult {
    let mut config = NetStormCampaignConfig::new(trials, 0x5702_2005);
    config.threads = threads;
    run_net_storm_campaign(&config)
}

fn report(result: &NetStormCampaignResult) -> Json {
    let o = &result.counts;
    let frac = |n: u64| Json::Num(n as f64 / o.trials as f64);
    let latency = |pct: u32| {
        result
            .reintegration_percentile(pct)
            .map_or(Json::Null, |v| Json::UInt(u64::from(v)))
    };
    Json::obj([
        ("trials", Json::UInt(o.trials)),
        ("unaffected", frac(o.unaffected)),
        ("omission_only", frac(o.omission_only)),
        ("degraded_episode", frac(o.degraded_episode)),
        ("service_lost", frac(o.service_lost)),
        ("split_membership", frac(o.split_membership)),
        ("injected_faults", Json::UInt(result.injected.total())),
        ("crc_reject_rate", Json::Num(result.crc_reject_rate())),
        (
            "guardian_block_rate",
            Json::Num(result.guardian_block_rate()),
        ),
        (
            "masquerade_reject_rate",
            Json::Num(result.masquerade_reject_rate()),
        ),
        ("reintegration_p50_cycles", latency(50)),
        ("reintegration_p95_cycles", latency(95)),
    ])
}

fn main() {
    let mut b = Bench::new("net_storm");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("campaign_20_trials_1_thread", || {
        black_box(campaign(black_box(20), 1))
    });
    b.bench("campaign_20_trials_parallel", || {
        black_box(campaign(black_box(20), threads))
    });

    if b.is_full() {
        let result = campaign(200, threads);
        let path = artifact_path("NET_STORM.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report(&result).to_string()) {
            Ok(()) => println!("storm report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
