//! Closure-based [`TrialCampaign`] adapter.
//!
//! Every campaign family in this workspace follows the same shape: a
//! config struct, a per-trial function forking a labelled RNG stream
//! from `(seed, label, trial)`, and an associative result merge. The
//! [`indexed_campaign`] constructor lifts that shape onto the engine
//! without a bespoke adapter type per family. The integer counters a
//! family folds are declared once with [`tally!`](crate::tally), which
//! generates their merge; a family's result merges that plus its typed
//! non-counter fields (latency samples, proportions, a worst case).

use std::marker::PhantomData;

use crate::campaign::{TrialCampaign, TrialCtx};

/// A [`TrialCampaign`] assembled from closures; build one with
/// [`indexed_campaign`].
pub struct ClosureCampaign<A, E, R, M> {
    label: String,
    rng_label: String,
    trials: u64,
    empty: E,
    run: R,
    merge: M,
    _acc: PhantomData<fn() -> A>,
}

/// Builds a campaign over `trials` indexed trials from an empty-result
/// constructor, a per-trial body and a merge function.
///
/// `rng_label` must name the label the trial body actually forks its
/// stream with — it is quoted in quarantine reproducer triples, and a
/// wrong label would make them irreproducible.
pub fn indexed_campaign<A, E, R, M>(
    label: &str,
    rng_label: &str,
    trials: u64,
    empty: E,
    run: R,
    merge: M,
) -> ClosureCampaign<A, E, R, M>
where
    A: Send + 'static,
    E: Fn() -> A,
    R: Fn(u64, &TrialCtx<'_>, &mut A),
    M: Fn(&mut A, A),
{
    ClosureCampaign {
        label: label.to_string(),
        rng_label: rng_label.to_string(),
        trials,
        empty,
        run,
        merge,
        _acc: PhantomData,
    }
}

impl<A, E, R, M> TrialCampaign for ClosureCampaign<A, E, R, M>
where
    A: Send + 'static,
    E: Fn() -> A,
    R: Fn(u64, &TrialCtx<'_>, &mut A),
    M: Fn(&mut A, A),
{
    type Acc = A;

    fn trials(&self) -> u64 {
        self.trials
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn rng_label(&self) -> String {
        self.rng_label.clone()
    }

    fn empty(&self) -> A {
        (self.empty)()
    }

    fn run_trial(&self, trial: u64, ctx: &TrialCtx<'_>, acc: &mut A) {
        (self.run)(trial, ctx, acc);
    }

    fn merge(&self, into: &mut A, from: A) {
        (self.merge)(into, from);
    }
}
