//! Diagnosis-and-recovery campaign benchmarks: the α-count node-level
//! recovery campaign single- and multi-threaded, plus the analytic
//! escalation-chain solve. Full mode runs a larger campaign and writes
//! `DIAGNOSIS.json` (verdict fractions, false-retirement Wilson interval,
//! detection/retirement latencies, analytic DTMC cross-check) under
//! `<target>/testkit/`.

use nlft_core::campaign::{run_recovery_campaign, RecoveryCampaignConfig, RecoveryCampaignResult};
use nlft_core::diagnosis::escalation_chain;
use nlft_kernel::escalation::EscalationPolicy;
use nlft_reliability::dtmc::AbsorbingDtmc;
use nlft_sim::stats::Confidence;
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize) -> RecoveryCampaignResult {
    let mut config = RecoveryCampaignConfig::new(trials, 0xD1A6_2005);
    config.threads = threads;
    run_recovery_campaign(&config)
}

fn analytic_retirement_slots(p_err: f64) -> f64 {
    let chain = escalation_chain(EscalationPolicy::default(), p_err);
    AbsorbingDtmc::new(chain.matrix.clone(), &chain.retired)
        .expect("ladder chain is absorbing")
        .expected_steps_to_absorption(chain.start)
        .expect("retirement reachable")
}

fn report(result: &RecoveryCampaignResult) -> Json {
    let c = &result.counts;
    let frac = |n: u64| Json::Num(n as f64 / c.trials as f64);
    let (fr_lo, fr_hi) = result.false_retirement.wilson_interval(Confidence::C95);
    Json::obj([
        ("trials", Json::UInt(c.trials)),
        ("masked_transient", frac(c.masked_transient)),
        ("recovered", frac(c.recovered)),
        ("retired", frac(c.retired)),
        ("false_retirement", frac(c.false_retirement)),
        ("missed_permanent", frac(c.missed_permanent)),
        ("unresolved", frac(c.unresolved)),
        (
            "false_retirement_rate",
            Json::Num(result.false_retirement.estimate()),
        ),
        ("false_retirement_wilson_lo", Json::Num(fr_lo)),
        ("false_retirement_wilson_hi", Json::Num(fr_hi)),
        (
            "detection_latency_jobs",
            Json::Num(result.detection_latency_jobs.mean()),
        ),
        (
            "retirement_latency_jobs",
            Json::Num(result.retirement_latency_jobs.mean()),
        ),
        ("restarts_total", Json::UInt(c.restarts_total)),
        ("undetected_wrong_jobs", Json::UInt(c.undetected_wrong_jobs)),
        (
            "analytic_retirement_slots_p1",
            Json::Num(analytic_retirement_slots(1.0)),
        ),
    ])
}

fn main() {
    let mut b = Bench::new("diagnosis");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("recovery_campaign_30_trials_1_thread", || {
        black_box(campaign(black_box(30), 1))
    });
    b.bench("recovery_campaign_30_trials_parallel", || {
        black_box(campaign(black_box(30), threads))
    });
    b.bench("escalation_chain_solve", || {
        black_box(analytic_retirement_slots(black_box(0.5)))
    });

    if b.is_full() {
        let result = campaign(400, threads);
        let path = artifact_path("DIAGNOSIS.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report(&result).to_string()) {
            Ok(()) => println!("diagnosis report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
