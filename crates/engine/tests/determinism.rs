//! Schedule-independence of the executor: bitwise-identical
//! accumulators at any worker count and on either path,
//! checkpoint/resume, the streaming-memory bound, and which threads
//! run trials and where they wait.

mod common;

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use common::ToyCampaign;
use nlft_engine::{
    auto_block_size, indexed_campaign, run_trials, run_trials_with, CampaignOptions,
    ClosureCampaign, EngineConfig, ResumePoint, TrialCampaign, TrialCtx,
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

/// A campaign whose accumulator is the set of threads that ran its
/// trials; each trial busy-waits `spin`, long enough that every worker
/// gets to claim blocks.
#[allow(clippy::type_complexity)]
fn thread_census(
    trials: u64,
    spin: Duration,
) -> ClosureCampaign<
    HashSet<ThreadId>,
    impl Fn() -> HashSet<ThreadId>,
    impl Fn(u64, &TrialCtx<'_>, &mut HashSet<ThreadId>),
    impl Fn(&mut HashSet<ThreadId>, HashSet<ThreadId>),
> {
    indexed_campaign(
        "thread-census",
        "unused",
        trials,
        HashSet::new,
        move |_trial, _ctx, acc: &mut HashSet<ThreadId>| {
            let started = Instant::now();
            while started.elapsed() < spin {
                std::hint::spin_loop();
            }
            acc.insert(std::thread::current().id());
        },
        |into: &mut HashSet<ThreadId>, from| into.extend(from),
    )
}

#[test]
fn the_caller_runs_trials_exactly_when_no_watchdog_is_armed() {
    let me = std::thread::current().id();
    let campaign = || thread_census(128, Duration::from_micros(200));

    let run = run_trials(campaign(), &EngineConfig::with_workers(2));
    assert_eq!(run.report.workers, 2, "the caller counts as a worker");
    assert_eq!(run.report.completed, 128);
    assert!(run.acc.contains(&me), "the caller ran no trial");
    assert_eq!(run.acc.len(), 2, "one helper and the caller");

    // A budget arms the watchdog, which may have to abandon a worker
    // stuck in a trial: the caller then only folds.
    let cfg = EngineConfig {
        trial_budget: Some(Duration::from_secs(10)),
        ..EngineConfig::with_workers(2)
    };
    let run = run_trials(campaign(), &cfg);
    assert_eq!(run.report.workers, 2);
    assert_eq!(run.report.completed, 128);
    assert!(
        !run.acc.contains(&me),
        "the caller ran trials under a watchdog"
    );
}

#[test]
fn the_report_says_where_the_threads_waited() {
    // Trial 0 sleeps; the thread not running it fills the fold buffer
    // to its cap and then blocks, waiting to claim (a helper) or to
    // fold (the caller), until trial 0 returns. The margin leaves that
    // thread 100 ms to fill the buffer, even on a loaded host.
    let campaign = || {
        indexed_campaign(
            "wait-census",
            "unused",
            64,
            || 0u64,
            |trial, _ctx, acc: &mut u64| {
                if trial == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                *acc += trial;
            },
            |into: &mut u64, from| *into += from,
        )
    };
    let cfg = EngineConfig {
        workers: 2,
        block_size: Some(1),
        ..EngineConfig::default()
    };
    let run = run_trials(campaign(), &cfg);
    assert_eq!(run.acc, (0..64).sum::<u64>());
    let waited = run.report.claim_wait + run.report.fold_wait;
    assert!(
        waited >= Duration::from_millis(100),
        "waits of {waited:?} while one thread slept 200 ms"
    );

    let run = run_trials(campaign(), &EngineConfig::default());
    assert_eq!(run.report.workers, 0);
    assert_eq!(run.report.claim_wait, Duration::ZERO);
    assert_eq!(run.report.fold_wait, Duration::ZERO);
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
