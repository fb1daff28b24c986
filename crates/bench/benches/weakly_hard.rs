//! Weakly-hard (m,k) machinery benchmarked end to end: the O(1) window
//! monitor's record loop, the fault-recovery weakly-hard analyzer, and
//! the miss-pattern storm campaign single- and multi-threaded; full
//! mode also runs a larger campaign and writes `WEAKLY_HARD.json`
//! (cross-check verdicts, worst pattern, braking degradation) under
//! `<target>/testkit/`.

use nlft_bbw::{run_miss_pattern_campaign, MissPatternCampaignConfig, MissPatternCampaignResult};
use nlft_kernel::analysis::{analyse_weakly_hard, TemCosts};
use nlft_kernel::contract::MkContract;
use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};
use nlft_sim::time::SimDuration;
use nlft_sim::weakly_hard::WeaklyHard;
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;
use std::hint::black_box;

fn campaign(trials: u64, threads: usize) -> MissPatternCampaignResult {
    let mut config = MissPatternCampaignConfig::nominal(trials, 0x5702_2005);
    config.threads = threads;
    run_miss_pattern_campaign(&config)
}

fn monitor_sweep(outcomes: u64) -> u64 {
    let mut w = WeaklyHard::new(3, 8);
    let mut violations = 0u64;
    for i in 0..outcomes {
        w.record(i % 3 == 0);
        violations += u64::from(w.is_violated());
    }
    violations
}

fn analyzer_set() -> TaskSet {
    let us = SimDuration::from_micros;
    [
        TaskSpecBuilder::new(TaskId(1), "brake-ctl")
            .period(us(100))
            .deadline(us(80))
            .wcet(us(30))
            .priority(Priority(0))
            .criticality(Criticality::Critical)
            .build()
            .unwrap(),
        TaskSpecBuilder::new(TaskId(2), "force-dist")
            .period(us(200))
            .deadline(us(160))
            .wcet(us(40))
            .priority(Priority(1))
            .criticality(Criticality::Critical)
            .build()
            .unwrap(),
    ]
    .into_iter()
    .collect()
}

fn analyzer_sweep() -> usize {
    let set = analyzer_set();
    let contracts = [
        (TaskId(1), MkContract::new(2, 8)),
        (TaskId(2), MkContract::new(1, 4)),
    ];
    let mut certified = 0usize;
    for tf in (40..200).step_by(10) {
        let bounds = analyse_weakly_hard(
            &set,
            &contracts,
            SimDuration::from_micros(tf),
            &TemCosts::nominal(),
        );
        certified += bounds.iter().filter(|b| b.satisfied).count();
    }
    certified
}

fn report(result: &MissPatternCampaignResult) -> Json {
    let c = &result.counts;
    let frac = |n: u64| Json::Num(n as f64 / c.trials as f64);
    let mut fields = vec![
        ("trials", Json::UInt(c.trials)),
        ("certified_trials", frac(c.certified)),
        ("certified_violations", Json::UInt(c.certified_violations)),
        ("bound_breaches", Json::UInt(c.bound_breaches)),
        ("bound_reached_trials", Json::UInt(c.bound_reached)),
        ("violating_trials", frac(c.violating)),
        ("total_misses", Json::UInt(c.total_misses)),
        ("worst_window_misses", Json::UInt(c.worst_window_misses)),
        ("total_excess_distance", Json::UInt(c.total_excess_distance)),
    ];
    if let Some(w) = &result.worst {
        fields.push(("worst_pattern_bits", Json::UInt(w.pattern_bits)));
        fields.push(("worst_misses", Json::UInt(u64::from(w.misses))));
        fields.push(("worst_excess_ppm", Json::UInt(w.score.excess_ppm())));
        fields.push(("worst_stopped", Json::Bool(w.score.stopped)));
    }
    Json::obj(fields)
}

fn main() {
    let mut b = Bench::new("weakly_hard");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    b.bench("monitor_1M_outcomes", || {
        black_box(monitor_sweep(black_box(1_000_000)))
    });
    b.bench("analyzer_tf_sweep", || black_box(analyzer_sweep()));
    b.bench("campaign_20_trials_1_thread", || {
        black_box(campaign(black_box(20), 1))
    });
    b.bench("campaign_20_trials_parallel", || {
        black_box(campaign(black_box(20), threads))
    });

    if b.is_full() {
        let result = campaign(200, threads);
        assert_eq!(result.counts.certified_violations, 0, "analyzer soundness");
        assert_eq!(result.counts.bound_breaches, 0, "bound exactness");
        let path = artifact_path("WEAKLY_HARD.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report(&result).to_string()) {
            Ok(()) => println!("weakly-hard report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
