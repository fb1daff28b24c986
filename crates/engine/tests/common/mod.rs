//! A miniature campaign exercising all four `sim::stats` accumulators,
//! shared by the engine integration tests.

// Each integration-test binary compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use nlft_engine::{TrialCampaign, TrialCtx};
use nlft_sim::rng::RngStream;
use nlft_sim::stats::{Histogram, OnlineStats, Proportion, SurvivalCurve};

/// Composite accumulator: one of each `sim::stats` type plus an exact
/// integer checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct ToyAcc {
    pub moments: OnlineStats,
    pub hits: Proportion,
    pub latencies: Histogram,
    pub survival: SurvivalCurve,
    pub checksum: u64,
}

/// What a designated trial does wrong.
#[derive(Clone, Default)]
pub enum Fault {
    /// All trials behave.
    #[default]
    None,
    /// The trial panics halfway through.
    Panic(u64),
    /// The trial spins until the watchdog asks it to cancel.
    SpinUntilCancelled(u64),
    /// The trial ignores cancellation and blocks on the latch — only a
    /// lost-worker declaration gets past it. Release the latch when the
    /// test ends so the abandoned thread exits.
    StickOnLatch(u64, Arc<AtomicBool>),
}

/// A deterministic labelled-RNG campaign with an optional faulty trial.
#[derive(Clone)]
pub struct ToyCampaign {
    pub seed: u64,
    pub trials: u64,
    pub fault: Fault,
    /// When true, the faulty trial contributes nothing but does not
    /// misbehave — the bitwise reference for "clean run minus the
    /// quarantined trial".
    pub fault_as_noop: bool,
    /// When set, every trial whose index is a multiple of it costs
    /// ~50× the rest — the shape of the node-level SWIFI campaigns,
    /// whose `trial % 6 == 0` workload dominates.
    pub heavy_every: Option<u64>,
    /// When set, every trial first passes this gate.
    pub lock_step: Option<Arc<LockStep>>,
}

/// Holds the worker threads to the same trial count until each has
/// started `until` trials: a thread that has started `n` may start
/// another only once every thread has started at least `min(n, until)`.
///
/// A chaos kill after `until` trials then always fires, whatever the OS
/// scheduler does: no peer gets past the victim's count, so none can
/// drain the campaign before the victim starts its last trial, and a
/// worker always finishes the trial it started. Waiting changes no
/// trial's result.
pub struct LockStep {
    threads: usize,
    until: u64,
    started: Mutex<HashMap<ThreadId, u64>>,
    turn: Condvar,
}

impl LockStep {
    pub fn new(threads: usize, until: u64) -> Arc<Self> {
        Arc::new(LockStep {
            threads,
            until,
            started: Mutex::new(HashMap::new()),
            turn: Condvar::new(),
        })
    }

    /// Blocks until the calling thread may start a trial, then counts it.
    ///
    /// # Panics
    ///
    /// After 30 s without a turn, so a scheduling bug fails the test
    /// instead of hanging it.
    fn enter(&self) {
        let me = std::thread::current().id();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut started = self.started.lock().unwrap();
        started.entry(me).or_insert(0);
        self.turn.notify_all();
        loop {
            let need = started[&me].min(self.until);
            if started.len() >= self.threads && started.values().all(|&n| n >= need) {
                break;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "lock-step gate: no turn within 30 s");
            started = self.turn.wait_timeout(started, left).unwrap().0;
        }
        *started.get_mut(&me).unwrap() += 1;
        self.turn.notify_all();
    }
}

/// Extra RNG draws a heavy trial folds into its checksum: ~50× the
/// cost of a plain trial in a release build.
const HEAVY_DRAWS: u32 = 12_000;

impl ToyCampaign {
    pub fn new(seed: u64, trials: u64) -> Self {
        ToyCampaign {
            seed,
            trials,
            fault: Fault::None,
            fault_as_noop: false,
            heavy_every: None,
            lock_step: None,
        }
    }

    /// The same campaign run through `gate` (see [`LockStep`]).
    pub fn with_lock_step(mut self, gate: Arc<LockStep>) -> Self {
        self.lock_step = Some(gate);
        self
    }

    /// The same campaign with every `period`-th trial ~50× costlier.
    pub fn with_heavy_every(mut self, period: u64) -> Self {
        self.heavy_every = Some(period);
        self
    }

    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = fault;
        self
    }

    /// The same campaign with the faulty trial replaced by a no-op —
    /// merging an empty accumulator is a bitwise identity for every
    /// `sim::stats` type, so this is the exact expected survivor fold.
    pub fn excluding_fault(mut self) -> Self {
        self.fault_as_noop = true;
        self
    }

    fn faulty_trial(&self) -> Option<u64> {
        match &self.fault {
            Fault::None => None,
            Fault::Panic(t) | Fault::SpinUntilCancelled(t) => Some(*t),
            Fault::StickOnLatch(t, _) => Some(*t),
        }
    }
}

impl TrialCampaign for ToyCampaign {
    type Acc = ToyAcc;

    fn trials(&self) -> u64 {
        self.trials
    }

    fn label(&self) -> String {
        "toy-campaign".to_string()
    }

    fn rng_label(&self) -> String {
        "toy-trial".to_string()
    }

    fn empty(&self) -> ToyAcc {
        ToyAcc {
            moments: OnlineStats::new(),
            hits: Proportion::new(),
            latencies: Histogram::new(0.0, 100.0, 20),
            survival: SurvivalCurve::new(vec![2.0, 5.0, 9.0]),
            checksum: 0,
        }
    }

    fn run_trial(&self, trial: u64, ctx: &TrialCtx<'_>, acc: &mut ToyAcc) {
        if let Some(gate) = &self.lock_step {
            gate.enter();
        }
        if self.faulty_trial() == Some(trial) {
            if self.fault_as_noop {
                return;
            }
            match &self.fault {
                Fault::Panic(_) => panic!("injected trial panic"),
                Fault::SpinUntilCancelled(_) => {
                    while !ctx.cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return;
                }
                Fault::StickOnLatch(_, latch) => {
                    while !latch.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return;
                }
                Fault::None => unreachable!(),
            }
        }
        let mut rng = RngStream::new(self.seed).fork_indexed("toy-trial", trial);
        let x = rng.uniform_f64() * 100.0;
        acc.moments.record(x);
        acc.hits.record(x < 40.0);
        acc.latencies.record(x);
        if x < 90.0 {
            acc.survival.record_failure(x / 10.0);
        } else {
            acc.survival.record_survivor();
        }
        acc.checksum = acc.checksum.wrapping_add(rng.next_u64() | 1);
        if self.heavy_every.is_some_and(|p| trial.is_multiple_of(p)) {
            for _ in 0..HEAVY_DRAWS {
                acc.checksum = acc.checksum.wrapping_add(rng.next_u64());
            }
        }
    }

    fn merge(&self, into: &mut ToyAcc, from: ToyAcc) {
        into.moments.merge(&from.moments);
        into.hits.merge(&from.hits);
        into.latencies.merge(&from.latencies);
        into.survival.merge(&from.survival);
        into.checksum = into.checksum.wrapping_add(from.checksum);
    }
}
