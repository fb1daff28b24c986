//! The campaign-facing API: the [`TrialCampaign`] trait, engine
//! configuration, and the run report types.
//!
//! A campaign is a pure function from a trial index to an accumulator
//! delta: `run_trial(trial)` must depend only on the campaign
//! configuration and the trial index (the labelled-RngStream rule —
//! every trial forks its randomness as `root.fork_indexed(label,
//! trial)`), never on which worker runs it or when. Under that
//! contract the executor is free to steal, reorder and even re-execute
//! trials after a worker is lost without changing the campaign result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-trial execution context handed to [`TrialCampaign::run_trial`].
///
/// Long-running trials should poll [`TrialCtx::cancelled`] at natural
/// checkpoints (e.g. once per simulated cycle batch) and return early
/// when it fires: the trial watchdog can only *request* cancellation
/// cooperatively. A trial that never polls and never returns is
/// eventually handled by declaring its worker lost (see
/// [`EngineConfig::lost_worker_grace`]).
#[derive(Debug)]
pub struct TrialCtx<'a> {
    cancel: &'a AtomicBool,
    started: Instant,
    budget: Option<Duration>,
    trial: u64,
}

impl<'a> TrialCtx<'a> {
    pub(crate) fn new(cancel: &'a AtomicBool, budget: Option<Duration>, trial: u64) -> Self {
        TrialCtx {
            cancel,
            started: Instant::now(),
            budget,
            trial,
        }
    }

    /// The trial index being executed.
    pub fn trial(&self) -> u64 {
        self.trial
    }

    /// Wall-clock time this trial has been running.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// True once the watchdog has requested cancellation or the trial
    /// has exceeded its own budget; the trial should return as soon as
    /// practical. Whatever it accumulated is discarded either way.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
            || self.budget.is_some_and(|b| self.started.elapsed() > b)
    }

    pub(crate) fn started(&self) -> Instant {
        self.started
    }
}

/// A fault-injection campaign the engine can execute: a trial count, a
/// per-trial body, and a mergeable accumulator.
///
/// # Contract
///
/// * `run_trial(trial, …)` is a pure function of the campaign value and
///   `trial` — all randomness must come from a labelled fork such as
///   `root.fork_indexed(rng_label, trial)`.
/// * `merge` must be exact for the integer parts of the accumulator
///   (counter merges commute and associate); floating-point moments may
///   differ from a sequential fold only by association order. The
///   engine folds trial accumulators into fixed-size blocks and merges
///   the blocks strictly in index order, so for a given trial count the
///   full fold tree — and therefore every accumulator bit — is
///   identical at any worker count.
pub trait TrialCampaign {
    /// Streaming accumulator the campaign folds trial outcomes into.
    type Acc: Send + 'static;

    /// Total number of trials in the campaign.
    fn trials(&self) -> u64;

    /// Human-readable campaign label used in reproducer records.
    fn label(&self) -> String;

    /// The RNG fork label used per trial (`root.fork_indexed(label,
    /// trial)`), recorded in reproducers so a quarantined trial can be
    /// re-run in isolation.
    fn rng_label(&self) -> String;

    /// A fresh, empty accumulator.
    fn empty(&self) -> Self::Acc;

    /// Executes one trial, folding its outcome into `acc` (a fresh
    /// accumulator owned by the engine; it is merged into the campaign
    /// result only if the trial returns normally within budget).
    fn run_trial(&self, trial: u64, ctx: &TrialCtx<'_>, acc: &mut Self::Acc);

    /// Merges a later accumulator into an earlier one.
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);
}

/// Deterministic mid-campaign worker-death injection, for testing the
/// engine's own fault tolerance: worker `worker` abandons its queue and
/// exits after it has executed `after_trials` trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Index of the worker to kill (0-based).
    pub worker: usize,
    /// Number of trials the worker executes before dying.
    pub after_trials: u64,
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of worker threads (clamped to at least 1). At most one
    /// worker, with no `trial_budget` and no `chaos_kill`, runs the
    /// campaign in-thread instead.
    pub workers: usize,
    /// Trials per scheduling block; `None` picks
    /// [`auto_block_size`](crate::auto_block_size). The block partition
    /// is a function of the trial count alone — never of `workers` — so
    /// the merged result is bit-identical at any worker count.
    pub block_size: Option<u64>,
    /// Per-trial wall-clock budget. A trial still running past it is
    /// asked to cancel; when it finishes (or is abandoned with its
    /// worker) it is recorded as timed out and excluded from the
    /// accumulator stream. `None` disables the watchdog; `Some` runs
    /// the work-stealing executor even at one worker, since only it
    /// has a watchdog.
    pub trial_budget: Option<Duration>,
    /// Extra grace past the budget before a non-cooperating trial's
    /// worker is declared lost and its queue redistributed.
    pub lost_worker_grace: Duration,
    /// Fire the checkpoint callback every this many folded trials
    /// (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Optional deterministic worker-death injection (runs the
    /// work-stealing executor even at one worker).
    pub chaos_kill: Option<ChaosKill>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            block_size: None,
            trial_budget: None,
            lost_worker_grace: Duration::from_millis(200),
            checkpoint_every: 0,
            chaos_kill: None,
        }
    }
}

impl EngineConfig {
    /// A default configuration with the given worker count.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }
}

/// The reproducer triple for a quarantined trial: enough to re-run the
/// offending trial in isolation (`root.fork_indexed(rng_label, trial)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// Campaign label ([`TrialCampaign::label`]).
    pub campaign: String,
    /// RNG fork label ([`TrialCampaign::rng_label`]).
    pub rng_label: String,
    /// Trial index.
    pub trial: u64,
    /// What happened (panic payload or budget overrun).
    pub detail: String,
}

impl std::fmt::Display for Reproducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign={} rng-label={} trial={}: {}",
            self.campaign, self.rng_label, self.trial, self.detail
        )
    }
}

/// What the executor observed while running a campaign.
///
/// The accumulator in [`CampaignRun`] is deterministic; the scheduling
/// counters here (steals, pending high-water) are not, and must never
/// be golden-pinned.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Total trials in the campaign (including any resumed prefix).
    pub trials: u64,
    /// Trials whose outcome was merged into the accumulator this run.
    pub completed: u64,
    /// Trials skipped because they were quarantined after a worker
    /// loss (their block was re-executed without them).
    pub skipped: u64,
    /// Trials that panicked, in trial order.
    pub panicked: Vec<Reproducer>,
    /// Trials that blew their budget (cooperatively cancelled, caught
    /// over budget on return, or abandoned with a lost worker), in
    /// trial order.
    pub timed_out: Vec<Reproducer>,
    /// Scheduling blocks the campaign was partitioned into.
    pub blocks: u64,
    /// Blocks claimed from another worker's deque.
    pub steals: u64,
    /// Worker threads the run started with (0 on the in-thread path).
    pub workers: usize,
    /// Workers declared lost (watchdog or chaos injection).
    pub lost_workers: usize,
    /// Replacement workers spawned after every original worker died.
    pub respawned_workers: usize,
    /// High-water mark of completed-but-not-yet-folded blocks — the
    /// engine's only trial-count-independent buffering, bounded by
    /// O(workers).
    pub max_pending_blocks: usize,
}

/// A finished campaign: the merged accumulator plus the engine report.
#[derive(Debug, Clone)]
pub struct CampaignRun<A> {
    /// The streaming accumulator, folded in block order.
    pub acc: A,
    /// Scheduling and robustness telemetry.
    pub report: EngineReport,
}

/// A resumable prefix of a campaign: the first `trials_done` trials
/// have been folded into `acc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumePoint<A> {
    /// Number of leading trials already folded.
    pub trials_done: u64,
    /// Accumulator state over that prefix.
    pub acc: A,
}

/// Optional run inputs: resume state and a checkpoint callback.
///
/// The callback is invoked on the coordinating thread every
/// [`EngineConfig::checkpoint_every`] folded trials with the absolute
/// folded-prefix length and the accumulator over exactly that prefix.
pub struct CampaignOptions<'cb, A> {
    /// Resume from a previously checkpointed prefix.
    pub resume: Option<ResumePoint<A>>,
    /// Checkpoint callback `(trials_done, accumulator_prefix)`.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<&'cb dyn Fn(u64, &A)>,
}

impl<A> Default for CampaignOptions<'_, A> {
    fn default() -> Self {
        CampaignOptions {
            resume: None,
            on_checkpoint: None,
        }
    }
}

impl<A> std::fmt::Debug for CampaignOptions<'_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("resume", &self.resume.is_some())
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .finish()
    }
}
