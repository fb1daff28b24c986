//! The core-death campaign: lock-based vs LEFT-RS resource sharing on a
//! multicore NLFT node, under adversarial in-section core-death placement.
//!
//! Every trial forks its own labelled RNG stream, samples one
//! [`CoreDeathFault`] (victim core, arming tick, crash vs escalated
//! fail-silence), and runs the *same* placement through two otherwise
//! identical 2-core executives — one sharing state through per-resource
//! locks, one through LEFT-RS lock-free retry-bounded sections. The
//! campaign demonstrates the robustness claim end to end:
//!
//! * every hard crash inside a critical section leaves the lock-based
//!   node with at least one deadlocked or deadline-missed peer job, while
//!   the LEFT-RS node records zero misses and zero deadlocks;
//! * an *escalated* death (the PR 3 ladder silences the core, revoking
//!   held resources) is survivable even by the lock-based node — the
//!   escalation/resource fix in action;
//! * the worst observed CAS retry re-execution cost never exceeds the
//!   retry term certified offline by
//!   [`nlft_kernel::analysis::response_time_with_blocking`].
//!
//! Results are bit-identical at any thread count (golden-pinned at
//! 1/2/5 threads alongside the other campaign families).

use nlft_engine::{Absorb, EngineConfig, Tally, TrialCampaign};
use nlft_kernel::multicore::{MulticoreExecutive, MulticoreReport};
use nlft_kernel::resources::{certify, left_rs_retry_term, ProtocolKind};
use nlft_kernel::EscalationPolicy;
use nlft_machine::fault::CoreDeathFault;
use nlft_sim::rng::RngStream;

/// Most cores per node a campaign may ask for. Per-core state, the
/// reference workload's extra controllers (one per core beyond two) and
/// the linear-search task assignment all grow with the count; 16 is
/// eight times the zoo's dual-core node.
pub const MAX_CORES: u32 = 16;

/// Longest executive horizon, in ticks, a campaign may ask for. A trial
/// runs the executive twice (lock-based and LEFT-RS), and a run costs
/// its events — releases, deadlines, phase ends and death strikes — not
/// its ticks. Events grow with the horizon over the task periods, so the
/// horizon still bounds a trial's run time; one million ticks (one
/// second of node time) is 250 times the zoo's 4 000.
pub const MAX_HORIZON: u64 = 1_000_000;

/// Configuration of [`run_multicore_campaign`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulticoreCampaignConfig {
    /// Monte Carlo trials.
    pub trials: u64,
    /// Root RNG seed; each trial forks `("multicore-trial", index)`.
    pub seed: u64,
    /// Cores per node (≥ 2 so sections actually contend).
    pub cores: u32,
    /// Executive horizon in ticks (µs).
    pub horizon: u64,
    /// Probability a sampled death is escalated fail-silence rather than
    /// a hard crash.
    pub escalated_p: f64,
}

impl MulticoreCampaignConfig {
    /// The nominal campaign: 2-core reference node, 4 ms horizon, one
    /// quarter of deaths escalated.
    pub fn new(trials: u64, seed: u64) -> Self {
        MulticoreCampaignConfig {
            trials,
            seed,
            cores: 2,
            horizon: 4_000,
            escalated_p: 0.25,
        }
    }

    /// Checks that the campaign can run: trials, 2 to [`MAX_CORES`] cores
    /// (at least a surviving peer) and a horizon of 4 (room to arm a
    /// death) to [`MAX_HORIZON`] ticks.
    pub fn check(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("campaign needs trials".into());
        }
        if !(2..=MAX_CORES).contains(&self.cores) {
            return Err(format!(
                "multicore needs 2 to {MAX_CORES} cores, not {}",
                self.cores
            ));
        }
        if self.horizon < 4 {
            return Err("multicore horizon must be at least 4 ticks to arm a death".into());
        }
        if self.horizon > MAX_HORIZON {
            return Err(format!(
                "multicore horizon of {} ticks exceeds the {MAX_HORIZON}-tick limit",
                self.horizon
            ));
        }
        Ok(())
    }
}

nlft_engine::tally! {
    /// Counters of the core-death campaign. All are integers so golden
    /// pins are bit-exact across platforms and thread counts.
    pub struct MulticoreCounts: "multicore-counts" {
        verdicts {
            /// Trials whose death was a hard crash.
            crash,
            /// Trials whose death was escalated fail-silence.
            escalated,
        }
        metrics {
            /// Crash trials where the lock-based node recorded ≥ 1
            /// deadlock or deadline miss — the claim requires this to
            /// equal `crash`.
            lock_failed_crash,
            /// Crash trials the lock-based node survived clean (claim:
            /// zero).
            lock_clean_crash,
            /// Escalated trials the lock-based node survived clean
            /// (claim: all — the ladder's revocation saves it).
            lock_clean_escalated,
            /// Total deadlocked jobs across all lock-based runs.
            lock_deadlocks,
            /// Total missed deadlines across all lock-based runs.
            lock_misses,
            /// Total missed deadlines across all LEFT-RS runs (claim:
            /// zero).
            leftrs_misses,
            /// Total deadlocks across all LEFT-RS runs (claim: zero).
            leftrs_deadlocks,
            /// Trials the LEFT-RS node survived clean (claim: all).
            leftrs_clean,
            /// Worst per-job CAS retry count observed in any LEFT-RS run.
            leftrs_max_retries: max,
            /// Trials whose observed retry cost exceeded the certified
            /// retry term (claim: zero — the certification is sound).
            retry_bound_breaches,
            /// Escalation-ladder events recorded across both executives.
            escalation_events,
            /// Tasks of the reference node that fail LEFT-RS
            /// certification (claim: zero on the 2-core node). No trial
            /// adds to it: the campaign fills it once after the fold.
            uncertified_tasks,
        }
    }
}

/// Aggregated campaign outcome: the counters plus the worst retry cost
/// and the reference node's offline certificate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MulticoreCampaignResult {
    /// Verdict and metric counters.
    pub counts: MulticoreCounts,
    /// Worst per-job retry re-execution cost observed, in µs.
    pub leftrs_max_retry_cost_us: u64,
    /// Tasks of the reference node that certify under LEFT-RS
    /// (`response_time_with_blocking` returns a bound). Filled once
    /// after merging, not per shard.
    pub certified_tasks: u64,
    /// The certified worst-case retry term, in µs.
    pub certified_retry_term_us: u64,
}

impl Absorb<MulticoreTrial> for MulticoreCampaignResult {
    fn absorb(&mut self, trial: u64, t: &MulticoreTrial) {
        self.counts.absorb(trial, t);
        self.leftrs_max_retry_cost_us = self
            .leftrs_max_retry_cost_us
            .max(t.cas.max_retry_cost.as_micros());
    }

    fn merge(&mut self, later: MulticoreCampaignResult) {
        Tally::merge(&mut self.counts, &later.counts);
        self.leftrs_max_retry_cost_us = self
            .leftrs_max_retry_cost_us
            .max(later.leftrs_max_retry_cost_us);
    }
}

impl MulticoreCampaignResult {
    /// `true` when every robustness claim held: all crashes broke the
    /// lock-based node, nothing broke LEFT-RS, the ladder saved the
    /// escalated lock-based runs, and the retry bound was never
    /// breached.
    pub fn claims_hold(&self) -> bool {
        let c = &self.counts;
        c.lock_failed_crash == c.crash
            && c.lock_clean_crash == 0
            && c.lock_clean_escalated == c.escalated
            && c.leftrs_clean == c.trials
            && c.leftrs_misses == 0
            && c.leftrs_deadlocks == 0
            && c.retry_bound_breaches == 0
            && c.uncertified_tasks == 0
    }
}

/// The certified worst-case LEFT-RS retry term for the reference node,
/// in µs: the maximum over tasks of `longest section × (cores − 1)`.
fn certified_retry_term_us(cores: u32) -> u64 {
    let (set, map) = MulticoreExecutive::reference_workload(cores as usize);
    set.iter()
        .map(|t| left_rs_retry_term(&map, t, cores).as_micros())
        .max()
        .unwrap_or(0)
}

/// What one trial observed: the sampled death, the lock-based and
/// LEFT-RS runs under it, and the certified retry term their retry cost
/// is judged against.
pub struct MulticoreTrial {
    death: CoreDeathFault,
    lock: MulticoreReport,
    cas: MulticoreReport,
    certified_term: u64,
}

fn run_multicore_trial(
    config: &MulticoreCampaignConfig,
    certified_term: u64,
    mut rng: RngStream,
) -> MulticoreTrial {
    let death = CoreDeathFault::sample(
        &mut rng,
        config.cores,
        (config.horizon / 2).max(2),
        config.escalated_p,
    );
    let run = |kind: ProtocolKind| {
        let mut exec = MulticoreExecutive::reference(config.cores as usize, kind);
        if death.escalated {
            exec.supervise(death.core as usize, EscalationPolicy::default());
        }
        exec.inject(death);
        exec.run(config.horizon)
    };
    MulticoreTrial {
        death,
        lock: run(ProtocolKind::LockBased),
        cas: run(ProtocolKind::LeftRs),
        certified_term,
    }
}

impl Absorb<MulticoreTrial> for MulticoreCounts {
    fn absorb(&mut self, _: u64, t: &MulticoreTrial) {
        let (lock, cas) = (&t.lock, &t.cas);
        self.trials += 1;
        if t.death.escalated {
            self.escalated += 1;
        } else {
            self.crash += 1;
        }
        self.lock_deadlocks += lock.deadlocks;
        self.lock_misses += lock.missed;
        self.escalation_events += lock.escalations.len() as u64;
        if t.death.escalated {
            if lock.clean() {
                self.lock_clean_escalated += 1;
            }
        } else if lock.clean() {
            self.lock_clean_crash += 1;
        } else {
            self.lock_failed_crash += 1;
        }
        self.leftrs_misses += cas.missed;
        self.leftrs_deadlocks += cas.deadlocks;
        self.escalation_events += cas.escalations.len() as u64;
        if cas.clean() {
            self.leftrs_clean += 1;
        }
        self.leftrs_max_retries = self.leftrs_max_retries.max(u64::from(cas.max_retries));
        if cas.max_retry_cost.as_micros() > t.certified_term {
            self.retry_bound_breaches += 1;
        }
    }

    fn merge(&mut self, later: MulticoreCounts) {
        Tally::merge(self, &later)
    }
}

impl MulticoreCounts {
    /// Certifies the reference node under LEFT-RS once, after the fold:
    /// adds the tasks that fail to `uncertified_tasks` and returns how
    /// many certify.
    pub fn certify(&mut self, cores: u32) -> u64 {
        let (set, map) = MulticoreExecutive::reference_workload(cores as usize);
        let tasks = certify(&set, &map, ProtocolKind::LeftRs, cores, 1);
        let certified = tasks.iter().filter(|c| c.response.is_some()).count() as u64;
        self.uncertified_tasks = self
            .uncertified_tasks
            .saturating_add(tasks.len() as u64 - certified);
        certified
    }
}

/// Runs the campaign on `engine`; results are a pure function of the
/// seed and invariant under the worker count.
///
/// # Panics
///
/// Panics if [`MulticoreCampaignConfig::check`] rejects the config.
pub fn run_multicore_campaign(
    config: &MulticoreCampaignConfig,
    engine: &EngineConfig,
) -> MulticoreCampaignResult {
    let mut total: MulticoreCampaignResult =
        nlft_engine::run_trials(multicore_campaign(config), engine).acc;
    total.certified_tasks = total.counts.certify(config.cores);
    total.certified_retry_term_us = certified_retry_term_us(config.cores);
    total
}

/// The campaign, folding each trial's observation into an `A`: the
/// counters alone for a scenario, the full result for
/// [`run_multicore_campaign`]. No trial adds to `uncertified_tasks`;
/// call [`MulticoreCounts::certify`] once on the folded counts. Every
/// trial forks its own stream from (seed, trial index), so the engine's
/// work distribution cannot perturb any drawn value; parallelism only
/// decides which worker runs a trial.
///
/// # Panics
///
/// Panics if [`MulticoreCampaignConfig::check`] rejects the config.
pub fn multicore_campaign<A: Absorb<MulticoreTrial>>(
    config: &MulticoreCampaignConfig,
) -> impl TrialCampaign<Acc = A> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let c = *config;
    let certified_term = certified_retry_term_us(config.cores);
    nlft_engine::absorbing_campaign(
        "core-multicore",
        "multicore-trial",
        config.trials,
        config.seed,
        move |_, rng| run_multicore_trial(&c, certified_term, rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_claims_hold_on_the_nominal_config() {
        let result = run_multicore_campaign(
            &MulticoreCampaignConfig::new(40, 0x2005_0a01),
            &EngineConfig::default(),
        );
        let c = &result.counts;
        assert_eq!(c.trials, 40);
        assert!(c.crash > 0, "{result:?}");
        assert!(c.escalated > 0, "{result:?}");
        assert!(result.claims_hold(), "{result:?}");
        assert!(c.lock_deadlocks > 0);
        assert!(c.escalation_events > 0);
        assert_eq!(result.certified_tasks, 4);
        assert_eq!(result.certified_retry_term_us, 40);
        assert!(result.leftrs_max_retry_cost_us <= result.certified_retry_term_us);
    }

    #[test]
    fn campaign_golden_pin_identical_at_1_2_5_threads() {
        let config = MulticoreCampaignConfig::new(24, 0x5708_c0de);
        let one = run_multicore_campaign(&config, &EngineConfig::default());
        let two = run_multicore_campaign(&config, &EngineConfig::with_workers(2));
        let five = run_multicore_campaign(&config, &EngineConfig::with_workers(5));
        assert_eq!(one, two, "thread count must not change results");
        assert_eq!(one, five, "thread count must not change results");
        // Golden pin: any drift in the RNG stream, the fault sampler, or
        // the executive's tick semantics moves these exact counts.
        let c = &one.counts;
        assert_eq!(
            (
                c.crash,
                c.escalated,
                c.lock_failed_crash,
                c.lock_deadlocks,
                c.lock_misses,
                c.escalation_events,
            ),
            (18, 6, 18, 122, 142, 24),
            "{one:?}"
        );
        assert_eq!(
            (
                c.leftrs_clean,
                c.leftrs_max_retries,
                one.leftrs_max_retry_cost_us,
                c.retry_bound_breaches,
            ),
            (24, 1, 40, 0),
            "{one:?}"
        );
    }

    #[test]
    fn claims_hold_rejects_any_breach() {
        let mut r = MulticoreCampaignResult {
            counts: MulticoreCounts {
                trials: 2,
                crash: 1,
                escalated: 1,
                lock_failed_crash: 1,
                lock_clean_escalated: 1,
                leftrs_clean: 2,
                ..MulticoreCounts::default()
            },
            certified_tasks: 4,
            ..MulticoreCampaignResult::default()
        };
        assert!(r.claims_hold());
        r.counts.retry_bound_breaches = 1;
        assert!(!r.claims_hold());
    }
}
