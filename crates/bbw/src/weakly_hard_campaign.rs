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
//!   [`nlft_kernel::analysis::weakly_hard_bound`] for that trial's fault
//!   interval — **no trial may ever beat the bound, and no certified
//!   contract may ever be violated** (the cross-check this campaign
//!   exists for), and
//! * scores the pattern's braking-distance degradation against the
//!   clean twin with the braking model, so the worst pattern is reported
//!   in metres lost, not just misses counted.
//!
//! Including the adversarial strategy makes the bound's *tightness*
//! observable too: some trial always reaches it exactly.
//!
//! Like every campaign in this workspace the result is deterministic in
//! the seed and invariant in the thread count: per-trial forked
//! streams, block merges by sums and strictly-greater maxima, golden
//! pins at 1/2/5 threads.

use nlft_engine::{Absorb, EngineConfig, Tally, TrialCampaign};
use nlft_kernel::analysis::{
    faults_tolerated, tem_recovery_cost, weakly_hard_bound, MissModel, TemCosts,
};
use nlft_kernel::contract::MkContract;
use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpec, TaskSpecBuilder};
use nlft_sim::rng::RngStream;
use nlft_sim::time::SimDuration;

use crate::braking::{BrakingModel, BrakingScore, MissPolicy};

/// Brake-controller period in microseconds.
const PERIOD_US: u64 = 100;
/// Relative deadline in microseconds.
const DEADLINE_US: u64 = 80;
/// Longest fault inter-arrival time, in µs, a campaign may draw. A trial
/// spans at most 64 periods (6.4 ms), so a longer interval places at most
/// one fault anyway; one second leaves room for 150 horizons while the
/// placement sums (up to four intervals) and the µs→ns conversion stay
/// far from `u64` overflow.
pub const MAX_FAULT_INTERVAL_US: u64 = 1_000_000;
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
            horizon_jobs: 64,
            contract: MkContract::new(2, 8),
            fault_interval_us: (40, 160),
            policy: MissPolicy::HoldLast,
        }
    }

    /// Checks that the campaign can run: trials, a horizon within
    /// `[window, 64]` jobs, and a non-empty fault-interval range above
    /// zero ending at most at [`MAX_FAULT_INTERVAL_US`].
    pub fn check(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("need trials".into());
        }
        let window = self.contract.window;
        if !(window..=64).contains(&self.horizon_jobs) {
            return Err(format!(
                "weakly_hard horizon of {} jobs must lie in [window {window}, 64]",
                self.horizon_jobs
            ));
        }
        let (lo, hi) = self.fault_interval_us;
        if lo == 0 || lo >= hi {
            return Err("weakly_hard interval must be a non-empty range above 0".into());
        }
        if hi > MAX_FAULT_INTERVAL_US {
            return Err(format!(
                "weakly_hard interval ends at {hi} µs; at most {MAX_FAULT_INTERVAL_US} µs is allowed"
            ));
        }
        Ok(())
    }
}

/// One trial's miss pattern and what it costs. A campaign reports the
/// worst one found, by excess stopping distance.
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

nlft_engine::tally! {
    /// Counters of a miss-pattern campaign. Every trial is `certified`
    /// or `uncertified`; `violating` and `bound_reached` are `extra`:
    /// they count further trial properties on top of that ladder.
    pub struct MissPatternCounts: "miss-pattern-counts" {
        verdicts {
            /// Trials whose fault interval the analyzer certified for the
            /// contract.
            certified,
            /// Trials whose fault interval the analyzer did not certify.
            uncertified,
            /// Trials whose online monitor violated the contract (all of
            /// them uncertified, or `certified_violations` would be
            /// nonzero).
            violating: extra,
            /// Trials whose observed worst window reached the bound
            /// exactly (the adversarial strategy makes this nonzero:
            /// tightness).
            bound_reached: extra,
        }
        metrics {
            /// Certified trials whose online monitor still violated —
            /// **must be zero**: a nonzero value is an analyzer
            /// unsoundness.
            certified_violations,
            /// Trials whose observed worst window exceeded the analyzer's
            /// bound for their fault interval — **must be zero** for
            /// certified *and* uncertified trials alike.
            bound_breaches,
            /// Deadline misses summed over all trials.
            total_misses,
            /// Worst misses-in-window observed by any online monitor.
            worst_window_misses: max,
            /// Excess stopping distance summed over all trials (for
            /// means).
            total_excess_distance,
        }
    }
}

/// Everything the campaign measures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MissPatternCampaignResult {
    /// Verdict and metric counters.
    pub counts: MissPatternCounts,
    /// The worst pattern found, with its braking score.
    pub worst: Option<WorstPattern>,
}

impl Absorb<PatternTrial> for MissPatternCampaignResult {
    fn absorb(&mut self, trial: u64, t: &PatternTrial) {
        self.counts.absorb(trial, t);
        self.keep_worse(t.pattern);
    }

    fn merge(&mut self, later: MissPatternCampaignResult) {
        Tally::merge(&mut self.counts, &later.counts);
        if let Some(w) = later.worst {
            self.keep_worse(w);
        }
    }
}

impl MissPatternCampaignResult {
    /// Keeps `w` if it costs strictly more distance than the worst so
    /// far. Trials and blocks fold in trial order, so the earliest trial
    /// wins ties and the winner is independent of the thread count.
    fn keep_worse(&mut self, w: WorstPattern) {
        if self
            .worst
            .is_none_or(|cur| w.score.excess_distance > cur.score.excess_distance)
        {
            self.worst = Some(w);
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
    // An upper bound for the first three strategies: jitter and periodic
    // trains space faults at least `T_F` apart, and a burst places at most
    // 12 faults `T_F` apart, all inside the horizon.
    let mut times = Vec::with_capacity((horizon_us / tf_us + 2) as usize);
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
            return faults;
        }
    }
    times
}

/// Runs the miss-pattern storm campaign. Deterministic in the seed and
/// invariant in the thread count.
///
/// # Panics
///
/// Panics if [`MissPatternCampaignConfig::check`] rejects the config.
pub fn run_miss_pattern_campaign(
    config: &MissPatternCampaignConfig,
    engine: &EngineConfig,
) -> MissPatternCampaignResult {
    nlft_engine::run_trials(miss_pattern_campaign(config), engine).acc
}

/// The miss-pattern campaign, folding each trial's observation into an
/// `A`: the counters alone for a scenario, the full result for
/// [`run_miss_pattern_campaign`].
///
/// # Panics
///
/// Panics if [`MissPatternCampaignConfig::check`] rejects the config.
pub(crate) fn miss_pattern_campaign<A: Absorb<PatternTrial>>(
    config: &MissPatternCampaignConfig,
) -> impl TrialCampaign<Acc = A> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let c = config.clone();
    let invariants = CampaignInvariants::new(config.policy);
    nlft_engine::absorbing_campaign(
        "bbw-miss-pattern",
        "miss-pattern-trial",
        config.trials,
        config.seed,
        move |trial, rng| run_miss_pattern_trial(&c, &invariants, trial, rng),
    )
}

/// What every trial of a campaign shares, built once per campaign.
struct CampaignInvariants {
    /// The brake controller under contract.
    controller: TaskSpec,
    /// Faults one controller job absorbs under TEM recovery: the
    /// fault-recovery RTA, which no trial's fault interval changes.
    tolerated: Option<u32>,
    /// The vehicle each pattern brakes.
    braking: BrakingModel,
    /// `braking.brake(&[], policy)`: the all-hit clean twin every score
    /// is measured against.
    clean: (u64, u32, bool),
}

impl CampaignInvariants {
    fn new(policy: MissPolicy) -> Self {
        let braking = BrakingModel::nominal();
        let set = brake_task_set();
        let costs = TemCosts::nominal();
        let controller = set.get(TaskId(1)).expect("brake controller").clone();
        CampaignInvariants {
            tolerated: faults_tolerated(&set, &controller, |k| tem_recovery_cost(k, &costs)),
            controller,
            braking,
            clean: braking.brake(&[], policy),
        }
    }
}

/// What one miss-pattern trial observed.
pub(crate) struct PatternTrial {
    /// The trial's miss pattern and what it costs in distance.
    pattern: WorstPattern,
    /// Worst misses-in-window the online monitor saw.
    observed_worst: u32,
    /// Whether the online monitor saw the contract violated.
    violated: bool,
    /// Whether the analyzer certified the fault interval.
    certified: bool,
    /// The analyzer's worst misses-in-window for the fault interval.
    bound_misses: u32,
}

fn run_miss_pattern_trial(
    config: &MissPatternCampaignConfig,
    inv: &CampaignInvariants,
    trial: u64,
    mut rng: RngStream,
) -> PatternTrial {
    let (lo, hi) = config.fault_interval_us;
    let tf_us = rng.uniform_range(lo, hi);
    let strategy = STRATEGIES[rng.uniform_range(0, STRATEGIES.len() as u64) as usize];

    // The offline certificate for this trial's fault interval.
    let bound = weakly_hard_bound(&inv.controller, config.contract, inv.tolerated, us(tf_us));
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
    for (j, &miss) in pattern.iter().enumerate() {
        let v = monitor.record(miss);
        violated |= v.violated;
        observed_worst = observed_worst.max(v.misses_in_window);
        pattern_bits |= u64::from(miss) << j;
    }

    PatternTrial {
        pattern: WorstPattern {
            trial,
            fault_interval_us: tf_us,
            strategy,
            pattern_bits,
            // The horizon is at most 64 jobs, so every miss has its bit.
            misses: pattern_bits.count_ones(),
            // The functional metric: what this pattern costs in distance.
            score: inv.braking.score(&pattern, config.policy, inv.clean),
        },
        observed_worst,
        violated,
        certified: bound.satisfied,
        bound_misses: bound.worst_misses,
    }
}

impl Absorb<PatternTrial> for MissPatternCounts {
    fn absorb(&mut self, _: u64, t: &PatternTrial) {
        self.trials += 1;
        self.total_misses += u64::from(t.pattern.misses);
        self.worst_window_misses = self.worst_window_misses.max(u64::from(t.observed_worst));
        if t.certified {
            self.certified += 1;
            if t.violated {
                self.certified_violations += 1;
            }
        } else {
            self.uncertified += 1;
            if t.violated {
                self.violating += 1;
            }
        }
        if t.observed_worst > t.bound_misses {
            self.bound_breaches += 1;
        } else if t.observed_worst == t.bound_misses && t.bound_misses > 0 {
            self.bound_reached += 1;
        }
        self.total_excess_distance += t.pattern.score.excess_distance;
    }

    fn merge(&mut self, later: MissPatternCounts) {
        Tally::merge(self, &later)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzer_is_never_beaten_and_bound_is_reached() {
        let cfg = MissPatternCampaignConfig::nominal(60, 0x3A5E);
        let r = run_miss_pattern_campaign(&cfg, &EngineConfig::default());
        let c = &r.counts;
        assert_eq!(c.trials, 60);
        // The tentpole cross-check: simulation never violates a
        // certified contract, never beats the bound, and the
        // adversarial strategy reaches it.
        assert_eq!(c.certified_violations, 0, "analyzer unsound: {r:?}");
        assert_eq!(c.bound_breaches, 0, "bound beaten: {r:?}");
        assert!(c.bound_reached > 0, "bound never reached: {r:?}");
        assert!(c.certified > 0, "sweep must cover calm intervals");
        assert!(c.violating > 0, "sweep must cover storms");
        // The functional metric is live: the worst pattern costs
        // distance and is reported with its score.
        let worst = r.worst.expect("some pattern found");
        assert!(worst.score.excess_distance > 0);
        assert!(worst.misses > 0);
    }

    #[test]
    fn campaign_identical_across_thread_counts() {
        let cfg = MissPatternCampaignConfig::nominal(24, 0x5EED);
        let one = run_miss_pattern_campaign(&cfg, &EngineConfig::with_workers(1));
        let two = run_miss_pattern_campaign(&cfg, &EngineConfig::with_workers(2));
        let five = run_miss_pattern_campaign(&cfg, &EngineConfig::with_workers(5));
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to fork labels, draw order, the miss
        // model, the analyzer or the braking scorer shows up here.
        let c = &one.counts;
        assert_eq!(
            (
                c.trials,
                c.certified,
                c.certified_violations,
                c.bound_breaches,
                c.bound_reached,
                c.violating,
            ),
            (24, 13, 0, 0, 1, 2),
            "golden verdict counters moved: {one:?}"
        );
        assert_eq!(
            (
                c.total_misses,
                c.worst_window_misses,
                c.total_excess_distance
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
        let hold = run_miss_pattern_campaign(&cfg, &EngineConfig::default());
        cfg.policy = MissPolicy::ZeroForce;
        let zero = run_miss_pattern_campaign(&cfg, &EngineConfig::default());
        // Same seeds ⇒ same patterns; only the wheel's miss behaviour
        // differs, so the functional cost ordering is deterministic.
        assert_eq!(hold.counts.total_misses, zero.counts.total_misses);
        assert!(zero.counts.total_excess_distance > hold.counts.total_excess_distance);
    }
}
