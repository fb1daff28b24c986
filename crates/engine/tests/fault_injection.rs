//! Fault-injecting the campaign engine itself: panicking trials,
//! deadline-blown trials, and workers killed mid-campaign. In every
//! case the campaign must complete, label the outcome with a
//! reproducer triple, and leave the surviving-trial accumulator
//! bit-identical to a clean run over the surviving trials.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{Fault, ToyCampaign};
use nlft_engine::{run_trials, ChaosKill, EngineConfig};

const TRIALS: u64 = 300;
const SEED: u64 = 0xFA_17;

/// The bitwise expectation for "every trial except `fault` survived":
/// the same campaign with the faulty trial as a no-op, run in-thread
/// (merging an empty trial accumulator is an exact identity for every
/// `sim::stats` type).
fn surviving_acc(campaign: &ToyCampaign) -> common::ToyAcc {
    run_trials(campaign.clone().excluding_fault(), &EngineConfig::default()).acc
}

/// Runs `f` with panic output silenced (the injected trial panic would
/// otherwise spew a backtrace into the test log), restoring the
/// previous hook afterwards.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn panicking_trial_is_recorded_not_fatal() {
    let faulty = 137u64;
    let campaign = ToyCampaign::new(SEED, TRIALS).with_fault(Fault::Panic(faulty));
    let expected = surviving_acc(&campaign);
    for workers in [1usize, 3] {
        let run = with_quiet_panics(|| {
            run_trials(campaign.clone(), &EngineConfig::with_workers(workers))
        });
        assert_eq!(run.report.completed, TRIALS - 1);
        assert_eq!(run.report.panicked.len(), 1);
        let rep = &run.report.panicked[0];
        assert_eq!(rep.trial, faulty);
        assert_eq!(rep.campaign, "toy-campaign");
        assert_eq!(rep.rng_label, "toy-trial");
        assert!(
            rep.detail.contains("injected trial panic"),
            "{}",
            rep.detail
        );
        assert_eq!(
            run.acc, expected,
            "surviving-trial accumulator drifted at {workers} workers"
        );
    }
}

#[test]
fn panicking_trial_is_isolated_on_the_sequential_path_too() {
    let campaign = ToyCampaign::new(SEED, TRIALS).with_fault(Fault::Panic(7));
    let expected = surviving_acc(&campaign);
    let run = with_quiet_panics(|| run_trials(campaign, &EngineConfig::default()));
    assert_eq!(run.report.workers, 0, "one worker runs in-thread");
    assert_eq!(run.report.panicked.len(), 1);
    assert_eq!(run.report.panicked[0].trial, 7);
    assert_eq!(run.acc, expected);
}

#[test]
fn deadline_blown_trial_is_cancelled_and_quarantined() {
    let faulty = 42u64;
    let campaign = ToyCampaign::new(SEED, TRIALS).with_fault(Fault::SpinUntilCancelled(faulty));
    let expected = surviving_acc(&campaign);
    // A budget arms the watchdog at any worker count, one included.
    for workers in [1usize, 2] {
        let cfg = EngineConfig {
            workers,
            trial_budget: Some(Duration::from_millis(40)),
            ..EngineConfig::default()
        };
        let run = run_trials(campaign.clone(), &cfg);
        assert_eq!(run.report.completed, TRIALS - 1);
        assert_eq!(run.report.timed_out.len(), 1);
        let rep = &run.report.timed_out[0];
        assert_eq!(rep.trial, faulty);
        assert_eq!(
            (rep.campaign.as_str(), rep.rng_label.as_str()),
            ("toy-campaign", "toy-trial")
        );
        assert!(rep.detail.contains("budget"), "{}", rep.detail);
        assert_eq!(
            run.report.lost_workers, 0,
            "cooperative cancel must not cost a worker"
        );
        assert_eq!(run.acc, expected, "drifted at {workers} workers");
    }
}

#[test]
fn stuck_trial_costs_its_worker_but_not_the_campaign() {
    let faulty = 99u64;
    // At one worker the lone worker is the one declared lost, so the
    // campaign drains only because the watchdog spawns a replacement.
    for workers in [1usize, 2] {
        let latch = Arc::new(AtomicBool::new(false));
        let campaign = ToyCampaign::new(SEED, TRIALS)
            .with_fault(Fault::StickOnLatch(faulty, Arc::clone(&latch)));
        let expected = surviving_acc(&campaign);
        let cfg = EngineConfig {
            workers,
            trial_budget: Some(Duration::from_millis(20)),
            lost_worker_grace: Duration::from_millis(40),
            ..EngineConfig::default()
        };
        let run = run_trials(campaign, &cfg);
        // Let the abandoned worker thread exit before the test ends.
        latch.store(true, Ordering::Relaxed);
        assert_eq!(
            run.report.lost_workers, 1,
            "stuck worker must be declared lost at {workers} workers"
        );
        if workers == 1 {
            assert!(
                run.report.respawned_workers >= 1,
                "losing the only worker must spawn a replacement"
            );
        }
        assert_eq!(run.report.completed, TRIALS - 1);
        assert_eq!(run.report.timed_out.len(), 1);
        let rep = &run.report.timed_out[0];
        assert_eq!(rep.trial, faulty);
        assert!(rep.detail.contains("lost"), "{}", rep.detail);
        assert!(
            run.report.skipped >= 1,
            "quarantined trial must be skipped on re-execution"
        );
        assert_eq!(
            run.acc, expected,
            "survivors must re-execute the rescued block bit-identically at {workers} workers"
        );
    }
}

#[test]
fn chaos_killed_worker_degrades_gracefully() {
    // The uniform campaign, and the node-level shape (600 trials, auto
    // block size 3, every sixth trial ~50× costlier). Either way the
    // worker dies partway through a block, which is rescued and re-run
    // by the survivors. The lock-step gate makes the kill certain: no
    // peer can drain the campaign before worker 1 reaches its kill
    // point, however the threads are scheduled.
    for (campaign, after_trials) in [
        (ToyCampaign::new(SEED, TRIALS), 25),
        (ToyCampaign::new(SEED, 600).with_heavy_every(6), 4),
    ] {
        let clean = run_trials(campaign.clone(), &EngineConfig::default());
        let cfg = EngineConfig {
            workers: 3,
            chaos_kill: Some(ChaosKill {
                worker: 1,
                after_trials,
            }),
            ..EngineConfig::default()
        };
        let trials = campaign.trials;
        let gated = campaign.with_lock_step(common::LockStep::new(3, after_trials));
        let run = run_trials(gated, &cfg);
        assert_eq!(run.report.lost_workers, 1, "{trials} trials");
        assert_eq!(
            run.acc, clean.acc,
            "worker death must be invisible in the campaign result ({trials} trials)"
        );
    }
}

#[test]
fn last_worker_death_respawns_a_replacement() {
    let campaign = ToyCampaign::new(SEED, TRIALS);
    let clean = run_trials(campaign.clone(), &EngineConfig::default());
    let cfg = EngineConfig {
        workers: 1,
        chaos_kill: Some(ChaosKill {
            worker: 0,
            after_trials: 10,
        }),
        ..EngineConfig::default()
    };
    let run = run_trials(campaign, &cfg);
    assert_eq!(run.report.lost_workers, 1);
    assert!(
        run.report.respawned_workers >= 1,
        "with every worker dead the watchdog must spawn a replacement"
    );
    assert_eq!(run.acc, clean.acc);
}
