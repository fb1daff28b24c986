//! Fault-tolerant fleet-scale campaign engine.
//!
//! Every fault-injection campaign in this workspace is, at heart, "run
//! `N` independent trials and fold their outcomes". This crate owns
//! that loop and applies the paper's own node-level fault-tolerance
//! discipline — detect, isolate, degrade gracefully, keep going — to
//! the harness itself:
//!
//! * **One entry point.** [`run_trials`] / [`run_trials_with`] run a
//!   campaign in-thread at one worker with no trial budget and no chaos
//!   injection, and on the work-stealing executor otherwise — the
//!   configuration alone picks the path, and both give the same bits.
//! * **Work stealing.** Trials are grouped into fixed-size blocks dealt
//!   across per-worker deques; idle workers steal from the back of the
//!   most-loaded victim, so skewed trial costs cannot leave cores idle.
//! * **Panic isolation.** Each trial runs under
//!   `std::panic::catch_unwind`; a panicking trial becomes a
//!   [`Reproducer`] record in the [`EngineReport`], not a dead
//!   campaign.
//! * **Trial watchdog.** Over-budget trials are asked to cancel
//!   cooperatively ([`TrialCtx::cancelled`]); trials that ignore the
//!   request get their worker declared lost after a grace period — the
//!   worker's queue is redistributed, the stuck trial is quarantined
//!   with its `(campaign, trial, rng-label)` reproducer triple, and
//!   the interrupted block is re-executed by the survivors.
//! * **Streaming statistics.** Workers fold trial outcomes into
//!   `sim::stats` accumulators per block; completed blocks merge into
//!   the campaign accumulator strictly in block-index order, so memory
//!   stays O(workers) and — because the block partition is a pure
//!   function of the trial count — every accumulator bit is identical
//!   at any worker count. Periodic [`Checkpoint`] snapshots let a
//!   10M-trial run resume after interruption.
//!
//! The determinism argument in one line: trial randomness is addressed
//! by `(seed, label, trial-index)` and the fold tree is fixed by
//! `(trials, block_size)`, so the schedule — stealing, worker loss,
//! re-execution, a checkpoint/resume split — has no channel through
//! which to reach the result.

#![warn(missing_docs)]

mod adapter;
mod campaign;
pub mod checkpoint;
mod executor;

pub use adapter::{indexed_campaign, ClosureCampaign};
pub use campaign::{
    CampaignOptions, CampaignRun, ChaosKill, EngineConfig, EngineReport, Reproducer, ResumePoint,
    TrialCampaign, TrialCtx,
};
pub use checkpoint::Checkpoint;
pub use executor::{auto_block_size, run_trials, run_trials_with};
