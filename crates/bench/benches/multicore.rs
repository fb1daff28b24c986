//! Multicore resource-sharing machinery benchmarked end to end: the SRP
//! ceiling/blocking analysis, a 2-core executive run under both
//! protocols, and the core-death campaign single- and multi-threaded;
//! full mode also runs a larger campaign and writes `MULTICORE.json`
//! (protocol contrast, retry-cost tightness, certification) under
//! `<target>/testkit/`.

use nlft_core::{run_multicore_campaign, MulticoreCampaignConfig, MulticoreCampaignResult};
use nlft_kernel::multicore::MulticoreExecutive;
use nlft_kernel::resources::{certify, ProtocolKind};
use nlft_machine::fault::CoreDeathFault;
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize) -> MulticoreCampaignResult {
    let mut config = MulticoreCampaignConfig::new(trials, 0x2005_0a08);
    config.threads = threads;
    run_multicore_campaign(&config)
}

/// One adversarial mid-section core death played against a protocol.
fn executive_run(kind: ProtocolKind) -> (u64, u64) {
    let mut exec = MulticoreExecutive::reference(2, kind);
    exec.inject(CoreDeathFault {
        core: 0,
        at_tick: 100,
        in_section: true,
        escalated: false,
    });
    let report = exec.run(2_000);
    (report.missed, report.deadlocks)
}

/// Certify the reference workload under both protocols at 2 and 5 cores.
fn certify_sweep() -> usize {
    let mut certified = 0usize;
    for cores in [2usize, 5] {
        let (set, map) = MulticoreExecutive::reference_workload(cores);
        for kind in [ProtocolKind::LockBased, ProtocolKind::LeftRs] {
            certified += certify(&set, &map, kind, cores as u32, 1)
                .iter()
                .filter(|c| c.response.is_some())
                .count();
        }
    }
    certified
}

fn report(result: &MulticoreCampaignResult) -> Json {
    let c = &result.counts;
    Json::obj(vec![
        ("trials", Json::UInt(c.trials)),
        ("crash_trials", Json::UInt(c.crash)),
        ("escalated_trials", Json::UInt(c.escalated)),
        ("lock_failed_crash_trials", Json::UInt(c.lock_failed_crash)),
        ("lock_deadlocks", Json::UInt(c.lock_deadlocks)),
        ("lock_misses", Json::UInt(c.lock_misses)),
        ("leftrs_clean_trials", Json::UInt(c.leftrs_clean)),
        (
            "leftrs_max_retry_cost_us",
            Json::UInt(result.leftrs_max_retry_cost_us),
        ),
        (
            "certified_retry_term_us",
            Json::UInt(result.certified_retry_term_us),
        ),
        ("retry_bound_breaches", Json::UInt(c.retry_bound_breaches)),
        ("certified_tasks", Json::UInt(result.certified_tasks)),
        ("uncertified_tasks", Json::UInt(c.uncertified_tasks)),
        ("claims_hold", Json::Bool(result.claims_hold())),
    ])
}

fn main() {
    let mut b = Bench::new("multicore");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("executive_core_death_lock_based", || {
        black_box(executive_run(black_box(ProtocolKind::LockBased)))
    });
    b.bench("executive_core_death_left_rs", || {
        black_box(executive_run(black_box(ProtocolKind::LeftRs)))
    });
    b.bench("certify_sweep_2_and_5_cores", || black_box(certify_sweep()));
    b.bench("campaign_20_trials_1_thread", || {
        black_box(campaign(black_box(20), 1))
    });
    b.bench("campaign_20_trials_parallel", || {
        black_box(campaign(black_box(20), threads))
    });

    if b.is_full() {
        let result = campaign(200, threads);
        assert!(result.claims_hold(), "campaign claims must hold");
        assert!(
            result.leftrs_max_retry_cost_us <= result.certified_retry_term_us,
            "measured retry cost within the certified term"
        );
        let path = artifact_path("MULTICORE.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report(&result).to_string()) {
            Ok(()) => println!("multicore report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
