//! Schedule-independence of the executor: bitwise-identical
//! accumulators at any worker count and on either path,
//! checkpoint/resume, and the streaming-memory bound.

mod common;

use std::sync::Mutex;
use std::time::Duration;

use common::ToyCampaign;
use nlft_engine::{
    auto_block_size, run_trials, run_trials_with, CampaignOptions, EngineConfig, ResumePoint,
    TrialCampaign,
};

#[test]
fn executor_matches_sequential_reference_bitwise_at_any_worker_count() {
    // A uniform-cost campaign, and the node-level shape: 600 trials,
    // auto block size 3, every sixth trial ~50× costlier, so every
    // costly trial falls in an even block.
    for campaign in [
        ToyCampaign::new(0x0E06_1E5C, 997),
        ToyCampaign::new(0x0E06_1E5C, 600).with_heavy_every(6),
    ] {
        let trials = campaign.trials;
        let reference = run_trials(campaign.clone(), &EngineConfig::default());
        assert_eq!(reference.report.workers, 0, "one worker runs in-thread");
        assert_eq!(reference.report.completed, trials);
        for workers in [1usize, 2, 3, 4, 5, 8] {
            // A budget no trial comes near puts even one worker on the
            // executor, so every count here runs the threaded path.
            let cfg = EngineConfig {
                trial_budget: Some(Duration::from_secs(3600)),
                ..EngineConfig::with_workers(workers)
            };
            let run = run_trials(campaign.clone(), &cfg);
            assert_eq!(run.report.workers, workers);
            // PartialEq on the accumulator compares every float bit.
            assert_eq!(
                run.acc, reference.acc,
                "accumulator drifted at {workers} workers ({trials} trials)"
            );
            assert_eq!(run.report.completed, trials);
            assert!(run.report.panicked.is_empty() && run.report.timed_out.is_empty());
        }
    }
}

#[test]
fn absurd_worker_count_runs_no_more_workers_than_blocks() {
    // Asking for 10 000 threads must neither abort the process on a
    // failed spawn nor change a bit: 12 trials make 12 blocks, so at
    // most 12 workers start.
    let campaign = ToyCampaign::new(0x7EAD_5000, 12);
    let reference = run_trials(campaign.clone(), &EngineConfig::default());
    let run = run_trials(campaign, &EngineConfig::with_workers(10_000));
    assert_eq!(run.report.blocks, 12);
    assert!(
        (1..=12).contains(&run.report.workers),
        "{} workers for 12 blocks",
        run.report.workers
    );
    assert_eq!(run.acc, reference.acc);
    assert_eq!(run.report.completed, 12);
}

#[test]
fn block_size_choice_is_a_function_of_trials_not_workers() {
    // Different explicit block sizes are allowed to change float
    // association, but a fixed block size must give the same bits
    // regardless of workers — and the integer parts must not move at
    // all, whatever the block size.
    let campaign = ToyCampaign::new(77, 500);
    let bs17: Vec<_> = [1usize, 4]
        .iter()
        .map(|&w| {
            let cfg = EngineConfig {
                workers: w,
                block_size: Some(17),
                ..EngineConfig::default()
            };
            run_trials(campaign.clone(), &cfg).acc
        })
        .collect();
    assert_eq!(bs17[0], bs17[1]);
    let auto = run_trials(campaign, &EngineConfig::default()).acc;
    assert_eq!(auto.checksum, bs17[0].checksum);
    assert_eq!(auto.hits, bs17[0].hits);
    assert_eq!(auto.latencies, bs17[0].latencies);
    assert_eq!(auto.survival, bs17[0].survival);
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_run_bitwise() {
    // (trials, block size, checkpoint cadence, resume point). With
    // `block_size: None` the resumed suffix must keep the block size of
    // the whole campaign (auto_block_size(2560) = 10), not re-size from
    // the 1560 remaining trials — that would change the fold tree.
    for (trials, block_size, every, resume_at) in
        [(640, Some(32), 100, 384), (2_560, None, 250, 1_000)]
    {
        let campaign = ToyCampaign::new(0xC0FFEE, trials);
        let block = block_size.unwrap_or_else(|| auto_block_size(trials));
        let cfg = EngineConfig {
            workers: 3,
            block_size,
            checkpoint_every: every,
            ..EngineConfig::default()
        };
        let checkpoints: Mutex<Vec<ResumePoint<common::ToyAcc>>> = Mutex::new(Vec::new());
        let full = run_trials_with(
            campaign.clone(),
            &cfg,
            CampaignOptions {
                resume: None,
                on_checkpoint: Some(&|done, acc: &common::ToyAcc| {
                    checkpoints.lock().unwrap().push(ResumePoint {
                        trials_done: done,
                        acc: acc.clone(),
                    });
                }),
            },
        );
        let checkpoints = checkpoints.into_inner().unwrap();
        assert!(
            checkpoints.len() >= 5,
            "expected several checkpoints, got {}",
            checkpoints.len()
        );
        // Checkpoints land on block boundaries and carry the exact prefix.
        for cp in &checkpoints {
            assert_eq!(cp.trials_done % block, 0);
            assert_eq!(cp.acc.hits.trials(), cp.trials_done);
        }
        // Resume from a mid-run checkpoint on a *different* worker
        // count and on both paths: the finished accumulator must be
        // bit-identical to the uninterrupted run.
        let mid = checkpoints
            .iter()
            .find(|cp| cp.trials_done == resume_at)
            .expect("a checkpoint at the resume point")
            .clone();
        for (workers, label) in [(5usize, "executor"), (1, "in-thread")] {
            let cfg_resume = EngineConfig {
                workers,
                block_size,
                ..EngineConfig::default()
            };
            let opts = CampaignOptions {
                resume: Some(mid.clone()),
                on_checkpoint: None,
            };
            let resumed = run_trials_with(campaign.clone(), &cfg_resume, opts);
            assert_eq!(
                resumed.acc, full.acc,
                "resume drifted on {label} path ({block_size:?})"
            );
            assert_eq!(
                resumed.report.completed,
                trials - mid.trials_done,
                "resume re-ran the folded prefix on {label} path"
            );
        }
    }
}

#[test]
fn streaming_fold_buffer_stays_bounded_by_workers() {
    let campaign = ToyCampaign::new(9, 4000);
    let cfg = EngineConfig {
        workers: 4,
        block_size: Some(4),
        ..EngineConfig::default()
    };
    let run = run_trials(campaign, &cfg);
    assert_eq!(run.report.blocks, 1000);
    let cap = 4 * 4 + 4 + 4; // pending cap + one in flight per worker
    assert!(
        run.report.max_pending_blocks <= cap,
        "fold buffer grew to {} blocks (cap {cap}) — memory is no longer O(workers)",
        run.report.max_pending_blocks
    );
}

#[test]
fn auto_block_size_is_clamped_and_trials_only() {
    assert_eq!(auto_block_size(0), 1);
    assert_eq!(auto_block_size(100), 1);
    assert_eq!(auto_block_size(2_560), 10);
    assert_eq!(auto_block_size(10_000_000), 4096);
}

#[test]
fn empty_campaign_completes() {
    let campaign = ToyCampaign::new(3, 0);
    let run = run_trials(campaign.clone(), &EngineConfig::with_workers(3));
    assert_eq!(run.report.completed, 0);
    assert_eq!(run.acc, campaign.empty());
}
