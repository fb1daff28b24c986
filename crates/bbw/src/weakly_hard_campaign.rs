//! Miss-pattern storm campaign: worst-case *patterns*, not just rates.
//!
//! The fault-rate campaigns ask "how many jobs miss under this storm";
//! this campaign asks the weakly-hard question: **which miss patterns
//! can a fault mix produce, and what do they cost in stopping
//! distance?** Every trial draws a fault inter-arrival time and a
//! placement strategy (random jitter, bursts, periodic trains, or the
//! analyzer's own adversarial placement), lays the faults over a
//! horizon of brake-controller jobs, derives the job-level miss pattern
//! from the fault-recovery model, and then
//!
//! * feeds the pattern through an online
//!   [`nlft_sim::weakly_hard::WeaklyHard`] monitor for the task's
//!   (m,k) contract,
//! * compares the worst observed window against the offline
//!   [`analyse_weakly_hard`] bound for that trial's fault interval —
//!   **no trial may ever beat the bound, and no certified contract may
//!   ever be violated** (the cross-check this campaign exists for), and
//! * scores the pattern's braking-distance degradation against the
//!   clean twin with [`BrakingModel`], so the worst pattern is reported
//!   in metres lost, not just misses counted.
//!
//! Including the adversarial strategy makes the bound's *tightness*
//! observable too: some trial always reaches it exactly.
//!
//! Like every campaign in this workspace the result is deterministic in
//! the seed and invariant in the thread count: per-trial forked
//! streams, block merges by sums and strictly-greater maxima, golden
//! pins at 1/2/5 threads.

use nlft_kernel::analysis::{analyse_weakly_hard, MissModel, TemCosts};
use nlft_kernel::contract::MkContract;
use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};
use nlft_sim::rng::RngStream;
use nlft_sim::time::SimDuration;

use crate::braking::{BrakingModel, BrakingScore, MissPolicy};

/// Brake-controller period in microseconds.
const PERIOD_US: u64 = 100;
/// Relative deadline in microseconds.
const DEADLINE_US: u64 = 80;
/// Single-copy WCET in microseconds.
const WCET_US: u64 = 30;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// The campaign's task under contract: the critical brake controller.
/// With nominal TEM costs one job absorbs exactly one fault
/// (R(f) = 30 + 41·f ≤ 80).
fn brake_task_set() -> TaskSet {
    [TaskSpecBuilder::new(TaskId(1), "brake-ctl")
        .period(us(PERIOD_US))
        .deadline(us(DEADLINE_US))
        .wcet(us(WCET_US))
        .priority(Priority(0))
        .criticality(Criticality::Critical)
        .build()
        .expect("valid brake controller spec")]
    .into_iter()
    .collect()
}

/// How a trial places its faults over the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Faults separated by `T_F` plus a uniform jitter in `[0, T_F)`.
    RandomJitter,
    /// A quiet prefix, then a dense burst at exactly `T_F` separation.
    Burst,
    /// A strict periodic train with a random phase and stride.
    Periodic,
    /// The analyzer's greedy worst-case placement — guarantees the
    /// offline bound is *reached*, not only respected.
    Adversarial,
}

const STRATEGIES: [PlacementStrategy; 4] = [
    PlacementStrategy::RandomJitter,
    PlacementStrategy::Burst,
    PlacementStrategy::Periodic,
    PlacementStrategy::Adversarial,
];

/// Configuration of a miss-pattern storm campaign.
#[derive(Debug, Clone)]
pub struct MissPatternCampaignConfig {
    /// Number of independent trials.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads; results are identical for any value.
    pub threads: usize,
    /// Brake-controller jobs per trial (≤ 64 so patterns pack into one
    /// word, ≥ the contract window).
    pub horizon_jobs: u32,
    /// The (m,k) contract under test.
    pub contract: MkContract,
    /// Fault inter-arrival time drawn uniformly from this µs range
    /// (inclusive lower, exclusive upper).
    pub fault_interval_us: (u64, u64),
    /// What a wheel does on a missed control job.
    pub policy: MissPolicy,
}

impl MissPatternCampaignConfig {
    /// The nominal storm: (2,8) contract, fault intervals sweeping from
    /// "kills every job" to "kills none".
    pub fn nominal(trials: u64, seed: u64) -> Self {
        MissPatternCampaignConfig {
            trials,
            seed,
            threads: 1,
            horizon_jobs: 64,
            contract: MkContract::new(2, 8),
            fault_interval_us: (40, 160),
            policy: MissPolicy::HoldLast,
        }
    }
}

/// The single worst pattern found, by excess stopping distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorstPattern {
    /// Trial that produced it (earliest wins ties).
    pub trial: u64,
    /// The trial's fault inter-arrival time in µs.
    pub fault_interval_us: u64,
    /// The trial's placement strategy.
    pub strategy: PlacementStrategy,
    /// The miss pattern, bit `j` = job `j` missed.
    pub pattern_bits: u64,
    /// Misses over the whole horizon.
    pub misses: u32,
    /// The functional verdict: what the pattern costs in distance.
    pub score: BrakingScore,
}

/// Everything the campaign measures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissPatternCampaignResult {
    /// Trials run.
    pub trials: u64,
    /// Trials whose fault interval the analyzer certified for the
    /// contract.
    pub certified_trials: u64,
    /// Certified trials whose online monitor still violated — **must
    /// be zero**: a nonzero value is an analyzer unsoundness.
    pub certified_violations: u64,
    /// Trials whose observed worst window exceeded the analyzer's
    /// bound for their fault interval — **must be zero** for certified
    /// *and* uncertified trials alike.
    pub bound_breaches: u64,
    /// Trials whose observed worst window reached the bound exactly
    /// (the adversarial strategy makes this nonzero: tightness).
    pub bound_reached_trials: u64,
    /// Trials whose online monitor violated the contract (all of them
    /// uncertified, or `certified_violations` would be nonzero).
    pub violating_trials: u64,
    /// Deadline misses summed over all trials.
    pub total_misses: u64,
    /// Worst misses-in-window observed by any online monitor.
    pub worst_window_misses: u32,
    /// Excess stopping distance summed over all trials (for means).
    pub total_excess_distance: u64,
    /// The worst pattern found, with its braking score.
    pub worst: Option<WorstPattern>,
}

impl MissPatternCampaignResult {
    fn merge(&mut self, other: MissPatternCampaignResult) {
        self.trials += other.trials;
        self.certified_trials += other.certified_trials;
        self.certified_violations += other.certified_violations;
        self.bound_breaches += other.bound_breaches;
        self.bound_reached_trials += other.bound_reached_trials;
        self.violating_trials += other.violating_trials;
        self.total_misses += other.total_misses;
        self.worst_window_misses = self.worst_window_misses.max(other.worst_window_misses);
        self.total_excess_distance += other.total_excess_distance;
        // Strictly-greater replacement + blocks merged in trial order ⇒
        // the earliest trial wins ties, so the winner is independent of
        // the thread count.
        if let Some(w) = other.worst {
            if self
                .worst
                .is_none_or(|cur| w.score.excess_distance > cur.score.excess_distance)
            {
                self.worst = Some(w);
            }
        }
    }
}

/// Lays a trial's faults over the horizon. All strategies respect the
/// minimum separation, so every placement is admissible for the bound.
fn place_faults(
    rng: &mut RngStream,
    strategy: PlacementStrategy,
    tf_us: u64,
    model: &MissModel,
    horizon_jobs: u32,
) -> Vec<SimDuration> {
    let horizon_us = u64::from(horizon_jobs) * PERIOD_US;
    let mut times = Vec::new();
    match strategy {
        PlacementStrategy::RandomJitter => {
            let mut t = rng.uniform_range(0, tf_us);
            while t < horizon_us {
                times.push(us(t));
                t += tf_us + rng.uniform_range(0, tf_us);
            }
        }
        PlacementStrategy::Burst => {
            let mut t = rng.uniform_range(0, horizon_us / 2);
            let count = rng.uniform_range(2, 13);
            for _ in 0..count {
                if t < horizon_us {
                    times.push(us(t));
                }
                t += tf_us;
            }
        }
        PlacementStrategy::Periodic => {
            let stride = tf_us * rng.uniform_range(1, 4);
            let mut t = rng.uniform_range(0, PERIOD_US);
            while t < horizon_us {
                times.push(us(t));
                t += stride;
            }
        }
        PlacementStrategy::Adversarial => {
            let (_, faults) = model.worst_pattern(horizon_jobs);
            times = faults;
        }
    }
    times
}

/// Runs the miss-pattern storm campaign. Deterministic in the seed and
/// invariant in the thread count.
///
/// # Panics
///
/// Panics if `trials` is zero, the horizon does not fit `[window, 64]`
/// jobs, or the fault-interval range is empty.
pub fn run_miss_pattern_campaign(config: &MissPatternCampaignConfig) -> MissPatternCampaignResult {
    assert!(config.trials > 0, "need trials");
    assert!(
        config.horizon_jobs <= 64 && config.horizon_jobs >= config.contract.window,
        "horizon must fit [window, 64] jobs"
    );
    let (lo, hi) = config.fault_interval_us;
    assert!(lo > 0 && lo < hi, "fault-interval range must be non-empty");
    let c = config.clone();
    let root = RngStream::new(config.seed);
    let set = brake_task_set();
    let costs = TemCosts::nominal();
    let braking = BrakingModel::nominal();
    let campaign = nlft_engine::indexed_campaign(
        "bbw-miss-pattern",
        "miss-pattern-trial",
        config.trials,
        MissPatternCampaignResult::default,
        move |trial, _ctx, result: &mut MissPatternCampaignResult| {
            run_miss_pattern_trial(&c, &set, &costs, &braking, &root, trial, result);
        },
        |into, from| into.merge(from),
    );
    let engine = nlft_engine::EngineConfig::with_workers(config.threads.max(1));
    nlft_engine::run_trials(campaign, &engine).acc
}

fn run_miss_pattern_trial(
    config: &MissPatternCampaignConfig,
    set: &TaskSet,
    costs: &TemCosts,
    braking: &BrakingModel,
    root: &RngStream,
    trial: u64,
    result: &mut MissPatternCampaignResult,
) {
    let (lo, hi) = config.fault_interval_us;
    let mut rng = root.fork_indexed("miss-pattern-trial", trial);
    let tf_us = rng.uniform_range(lo, hi);
    let strategy = STRATEGIES[rng.uniform_range(0, STRATEGIES.len() as u64) as usize];

    // The offline certificate for this trial's fault interval.
    let bound = &analyse_weakly_hard(set, &[(TaskId(1), config.contract)], us(tf_us), costs)[0];
    let model = MissModel {
        period: us(PERIOD_US),
        deadline: us(DEADLINE_US),
        fault_interval: us(tf_us),
        tolerated: bound
            .tolerated_faults
            .expect("brake controller schedulable"),
    };

    let faults = place_faults(&mut rng, strategy, tf_us, &model, config.horizon_jobs);
    let pattern = model.misses(&faults, config.horizon_jobs);

    // Online enforcement view of the same stream.
    let mut monitor = config.contract.monitor();
    let mut violated = false;
    let mut observed_worst = 0u32;
    let mut pattern_bits = 0u64;
    let mut misses = 0u32;
    for (j, &miss) in pattern.iter().enumerate() {
        let v = monitor.record(miss);
        violated |= v.violated;
        observed_worst = observed_worst.max(v.misses_in_window);
        if miss {
            pattern_bits |= 1 << j;
            misses += 1;
        }
    }

    result.trials += 1;
    result.total_misses += u64::from(misses);
    result.worst_window_misses = result.worst_window_misses.max(observed_worst);
    if bound.satisfied {
        result.certified_trials += 1;
        if violated {
            result.certified_violations += 1;
        }
    } else if violated {
        result.violating_trials += 1;
    }
    if observed_worst > bound.worst_misses {
        result.bound_breaches += 1;
    } else if observed_worst == bound.worst_misses && bound.worst_misses > 0 {
        result.bound_reached_trials += 1;
    }

    // The functional metric: what this pattern costs in distance.
    let score = braking.score(&pattern, config.policy);
    result.total_excess_distance += score.excess_distance;
    let candidate = WorstPattern {
        trial,
        fault_interval_us: tf_us,
        strategy,
        pattern_bits,
        misses,
        score,
    };
    if result
        .worst
        .is_none_or(|cur| candidate.score.excess_distance > cur.score.excess_distance)
    {
        result.worst = Some(candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzer_is_never_beaten_and_bound_is_reached() {
        let cfg = MissPatternCampaignConfig::nominal(60, 0x3A5E);
        let r = run_miss_pattern_campaign(&cfg);
        assert_eq!(r.trials, 60);
        // The tentpole cross-check: simulation never violates a
        // certified contract, never beats the bound, and the
        // adversarial strategy reaches it.
        assert_eq!(r.certified_violations, 0, "analyzer unsound: {r:?}");
        assert_eq!(r.bound_breaches, 0, "bound beaten: {r:?}");
        assert!(r.bound_reached_trials > 0, "bound never reached: {r:?}");
        assert!(r.certified_trials > 0, "sweep must cover calm intervals");
        assert!(r.violating_trials > 0, "sweep must cover storms");
        // The functional metric is live: the worst pattern costs
        // distance and is reported with its score.
        let worst = r.worst.expect("some pattern found");
        assert!(worst.score.excess_distance > 0);
        assert!(worst.misses > 0);
    }

    #[test]
    fn campaign_identical_across_thread_counts() {
        let mut cfg = MissPatternCampaignConfig::nominal(24, 0x5EED);
        cfg.threads = 1;
        let one = run_miss_pattern_campaign(&cfg);
        cfg.threads = 2;
        let two = run_miss_pattern_campaign(&cfg);
        cfg.threads = 5;
        let five = run_miss_pattern_campaign(&cfg);
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to fork labels, draw order, the miss
        // model, the analyzer or the braking scorer shows up here.
        assert_eq!(
            (
                one.trials,
                one.certified_trials,
                one.certified_violations,
                one.bound_breaches,
                one.bound_reached_trials,
                one.violating_trials,
            ),
            (24, 13, 0, 0, 1, 2),
            "golden verdict counters moved: {one:?}"
        );
        assert_eq!(
            (
                one.total_misses,
                one.worst_window_misses,
                one.total_excess_distance
            ),
            (83, 8, 58_322_608),
            "golden aggregate metrics moved: {one:?}"
        );
        // The worst pattern: an adversarial T_F = 50µs placement that
        // kills every job (its cluster tail lands exactly on each next
        // release) — the vehicle never stops within the horizon.
        let w = one.worst.expect("worst pattern pinned");
        assert_eq!(
            (w.trial, w.fault_interval_us, w.pattern_bits, w.misses),
            (20, 50, u64::MAX, 64),
            "golden worst pattern moved: {w:?}"
        );
        assert_eq!(w.strategy, PlacementStrategy::Adversarial);
        assert!(!w.score.stopped);
        assert_eq!(
            (w.score.distance, w.score.stop_cycles),
            (60_000_000, 2_000),
            "golden worst score moved: {:?}",
            w.score
        );
    }

    #[test]
    fn zero_force_policy_costs_more_than_hold() {
        let mut cfg = MissPatternCampaignConfig::nominal(20, 0xF0CE);
        let hold = run_miss_pattern_campaign(&cfg);
        cfg.policy = MissPolicy::ZeroForce;
        let zero = run_miss_pattern_campaign(&cfg);
        // Same seeds ⇒ same patterns; only the wheel's miss behaviour
        // differs, so the functional cost ordering is deterministic.
        assert_eq!(hold.total_misses, zero.total_misses);
        assert!(zero.total_excess_distance > hold.total_excess_distance);
    }
}
