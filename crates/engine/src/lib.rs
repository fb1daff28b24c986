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
//!   injection, and on the threaded executor otherwise — the
//!   configuration alone picks the path, and both give the same bits.
//! * **In-order claiming.** Trials are grouped into fixed-size blocks,
//!   and every worker claims the lowest-indexed block not yet claimed,
//!   so the blocks in flight sit next to the fold cursor and a costly
//!   block cannot strand the other workers behind the fold buffer's
//!   cap.
//! * **The caller is a worker.** At `n` workers the executor starts
//!   `n − 1` helper threads; the calling thread claims blocks too and
//!   folds between them, so no thread sits idle waiting to fold. Under
//!   a watchdog the calling thread only folds, since a worker stuck in
//!   a trial may have to be abandoned and the caller cannot be.
//! * **Panic isolation.** Each trial runs under
//!   `std::panic::catch_unwind`; a panicking trial becomes a
//!   [`Reproducer`] record in the [`EngineReport`], not a dead
//!   campaign.
//! * **Trial watchdog.** Over-budget trials are asked to cancel
//!   cooperatively ([`TrialCtx::cancelled`]); trials that ignore the
//!   request get their worker declared lost after a grace period — the
//!   worker's in-flight block is rescued, the stuck trial is quarantined
//!   with its `(campaign, trial, rng-label)` reproducer triple, and
//!   the interrupted block is re-executed by the survivors.
//! * **Streaming statistics.** Workers fold trial outcomes into
//!   `sim::stats` accumulators per block; completed blocks merge into
//!   the campaign accumulator strictly in block-index order, so memory
//!   stays O(workers) and — because the block partition is a pure
//!   function of the trial count — every accumulator bit is identical
//!   at any worker count. Periodic [`Checkpoint`] snapshots let a
//!   10M-trial run resume after interruption.
//! * **Named counters.** A family declares its verdict and metric
//!   counters once with [`tally!`]; the fold, the checkpoint codec and
//!   the named iteration are generated ([`Tally`]).
//! * **One observation per trial.** A family's trial body returns one
//!   observation, and its counters and its public result each
//!   [`Absorb`] it; [`absorbing_campaign`] builds the campaign for
//!   either.
//!
//! The determinism argument in one line: trial randomness is addressed
//! by `(seed, label, trial-index)` and the fold tree is fixed by
//! `(trials, block_size)`, so the schedule — claim interleaving,
//! worker loss, re-execution, a checkpoint/resume split — has no
//! channel through which to reach the result.

#![warn(missing_docs)]

mod adapter;
mod campaign;
pub mod checkpoint;
mod executor;
mod tally;

pub use adapter::{absorbing_campaign, indexed_campaign, Absorb, ClosureCampaign};
pub use campaign::{
    CampaignOptions, CampaignRun, ChaosKill, EngineConfig, EngineReport, Reproducer, ResumePoint,
    TrialCampaign, TrialCtx,
};
pub use checkpoint::Checkpoint;
pub use executor::{auto_block_size, run_trials, run_trials_with};
pub use tally::Tally;
