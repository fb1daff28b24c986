//! Closure-based [`TrialCampaign`] adapter.
//!
//! Every campaign family in this workspace follows the same shape: a
//! config struct, a per-trial function forking a labelled RNG stream
//! from `(seed, label, trial)`, and an associative result merge. The
//! [`indexed_campaign`] constructor lifts that shape onto the engine
//! without a bespoke adapter type per family.
//!
//! Most families go one step further: the trial body returns one
//! observation — everything the trial saw — and each accumulator the
//! family offers [`Absorb`]s that same value, so
//! [`absorbing_campaign`] builds the family's campaign for any of them.
//! The integer counters a family folds are declared once with
//! [`tally!`](crate::tally), which generates their merge; a family's
//! result merges that plus its typed non-counter fields (latency
//! samples, proportions, a worst case).

use std::marker::PhantomData;

use nlft_sim::rng::RngStream;

use crate::campaign::{TrialCampaign, TrialCtx};
use crate::tally::Tally;

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

/// An accumulator that folds one observation `O` per trial.
///
/// A family's counters and its public result both absorb the same
/// observation, so the two cannot judge a trial differently. Whatever
/// an absorb needs beyond the trial index travels in the observation.
pub trait Absorb<O>: Default + Send + 'static {
    /// Folds the observation of trial `trial`.
    fn absorb(&mut self, trial: u64, observed: &O);

    /// Folds a later accumulator into this one, under the merge
    /// contract of [`TrialCampaign`].
    fn merge(&mut self, later: Self);
}

/// A family whose trial judges itself observes its own counters: each
/// trial returns a one-trial tally, and the campaign's tally sums them.
impl<T: Tally + Send + 'static> Absorb<T> for T {
    fn absorb(&mut self, _: u64, one: &T) {
        Tally::merge(self, one);
    }

    fn merge(&mut self, later: T) {
        Tally::merge(self, &later);
    }
}

/// Builds a campaign over `trials` indexed trials whose body `observe`
/// returns trial `trial`'s observation, folded into an `A` by
/// [`Absorb`].
///
/// The engine hands `observe` the trial's stream, forked as
/// `RngStream::new(seed).fork_indexed(rng_label, trial)`, so the label a
/// quarantine reproducer quotes is the one the trial drew from.
pub fn absorbing_campaign<O, A: Absorb<O>>(
    label: &str,
    rng_label: &str,
    trials: u64,
    seed: u64,
    observe: impl Fn(u64, RngStream) -> O,
) -> impl TrialCampaign<Acc = A> {
    let forks = RngStream::new(seed).indexed_forks(rng_label);
    let run = move |trial, _: &TrialCtx<'_>, acc: &mut A| {
        acc.absorb(trial, &observe(trial, forks.at(trial)));
    };
    indexed_campaign(label, rng_label, trials, A::default, run, A::merge)
}
