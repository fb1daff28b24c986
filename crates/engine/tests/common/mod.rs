//! A miniature campaign exercising all four `sim::stats` accumulators,
//! shared by the engine integration tests.

// Each integration-test binary compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
}

impl ToyCampaign {
    pub fn new(seed: u64, trials: u64) -> Self {
        ToyCampaign {
            seed,
            trials,
            fault: Fault::None,
            fault_as_noop: false,
        }
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
    }

    fn merge(&self, into: &mut ToyAcc, from: ToyAcc) {
        into.moments.merge(&from.moments);
        into.hits.merge(&from.hits);
        into.latencies.merge(&from.latencies);
        into.survival.merge(&from.survival);
        into.checksum = into.checksum.wrapping_add(from.checksum);
    }
}
