//! Distributed fault-injection campaigns over the executable cluster.
//!
//! The node-level campaigns of `nlft-core` classify outcomes at the node
//! boundary; this campaign closes the loop at the *system* boundary: inject
//! machine-level transients into random nodes of the running six-node BBW
//! cluster and observe what the vehicle sees — nothing, a degraded-mode
//! episode, or lost braking. With TEM doing its job, the overwhelming
//! majority of faults must be invisible at this level.

use nlft_engine::{Absorb, EngineConfig, Tally, TrialCampaign};
use nlft_machine::fault::FaultSpace;
use nlft_net::inject::{InjectionCounts, NetFaultPlan, NetFaultRates};
use nlft_sim::rng::RngStream;

use crate::cluster::{check_run_cycles, BbwCluster, ClusterInjection, ClusterReport, ALL_NODES};

/// Configuration of a cluster-level campaign.
#[derive(Debug, Clone)]
pub struct ClusterCampaignConfig {
    /// Number of independent cluster runs, one injection each.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Communication cycles per run.
    pub cycles: u32,
    /// Fault space sampled for each injection.
    pub space: FaultSpace,
}

impl ClusterCampaignConfig {
    /// A standard campaign: CPU-only single-bit transients.
    pub fn new(trials: u64, seed: u64) -> Self {
        ClusterCampaignConfig {
            trials,
            seed,
            cycles: 10,
            space: FaultSpace::cpu_only(),
        }
    }
}

nlft_engine::tally! {
    /// System-boundary outcome classification. Each trial gets exactly
    /// one verdict: `service_lost` beats `degraded_episode` beats
    /// `omission_only` beats `unaffected`.
    pub struct ClusterCampaignResult: "cluster-campaign" {
        verdicts {
            /// Braking service lost.
            service_lost,
            /// A degraded-mode episode (membership dropped, force
            /// redistributed).
            degraded_episode,
            /// At least one omitted slot, but full membership throughout.
            omission_only,
            /// No externally visible effect at all.
            unaffected,
        }
        metrics {}
    }
}

impl ClusterCampaignResult {
    /// Fraction of faults invisible at the vehicle boundary.
    pub fn masking_fraction(&self) -> f64 {
        ratio(self.unaffected, self.trials)
    }
}

/// Runs the campaign. Deterministic in the seed.
///
/// # Panics
///
/// Panics if `trials` is zero or `cycles` is below 3, too short to
/// place the injection in.
pub fn run_cluster_campaign(config: &ClusterCampaignConfig) -> ClusterCampaignResult {
    assert!(config.trials > 0, "need trials");
    assert!(
        config.cycles >= ClusterInjection::MIN_CYCLES,
        "need at least {} cycles",
        ClusterInjection::MIN_CYCLES
    );
    let c = config.clone();
    let campaign = nlft_engine::absorbing_campaign(
        "bbw-cluster",
        "cluster-trial",
        config.trials,
        config.seed,
        move |_, mut rng| {
            let mut cluster = BbwCluster::new();
            cluster.inject(ClusterInjection::sample(&mut rng, c.cycles, &c.space));
            let report = cluster.run(c.cycles, |_| 1200);
            let mut one = ClusterCampaignResult {
                trials: 1,
                ..ClusterCampaignResult::default()
            };
            if report.service_lost {
                one.service_lost = 1;
            } else if report.degraded_cycles > 0 {
                one.degraded_episode = 1;
            } else if report.omissions > 0 {
                one.omission_only = 1;
            } else {
                one.unaffected = 1;
            }
            one
        },
    );
    nlft_engine::run_trials(campaign, &EngineConfig::default()).acc
}

/// Configuration of a combined node + network storm campaign.
#[derive(Debug, Clone)]
pub struct NetStormCampaignConfig {
    /// Number of independent cluster runs.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Communication cycles per run.
    pub cycles: u32,
    /// Storm intensity in `[0, 1]`, scaling [`NetFaultRates::storm`] on
    /// every node.
    pub intensity: f64,
    /// Additionally inject one machine-level transient per trial (the
    /// node-level half of the combined campaign).
    pub with_node_faults: bool,
}

impl NetStormCampaignConfig {
    /// A moderate storm over the full six-node cluster.
    pub fn new(trials: u64, seed: u64) -> Self {
        NetStormCampaignConfig {
            trials,
            seed,
            cycles: 30,
            intensity: 0.3,
            with_node_faults: true,
        }
    }

    /// Checks that the campaign can run: trials, `2..=MAX_CYCLES` cycles
    /// (at least 3 with node faults on, to draw the transient's cycle in),
    /// and an intensity in `[0, 1]`.
    pub fn check(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("need trials".into());
        }
        if self.cycles < 2 {
            return Err("net_storm needs at least 2 cycles".into());
        }
        let least = ClusterInjection::MIN_CYCLES;
        if self.with_node_faults && self.cycles < least {
            return Err(format!(
                "net_storm with node faults needs cycles of at least {least}"
            ));
        }
        check_run_cycles("net_storm", u64::from(self.cycles))?;
        if !(0.0..=1.0).contains(&self.intensity) {
            return Err("intensity must be in [0, 1]".into());
        }
        Ok(())
    }
}

nlft_engine::tally! {
    /// Counters of a storm campaign. Each trial gets exactly one
    /// verdict, most severe first: `split_membership` beats
    /// `service_lost` beats `degraded_episode` beats `omission_only`
    /// beats `unaffected`. The metrics are the *measured* bus-level
    /// coverage parameters that the analytic models take as inputs
    /// (instead of assuming them).
    pub struct NetStormCounts: "net-storm-counts" {
        verdicts {
            /// Membership majority lost at some point (≤ 3 of 6 in the
            /// view).
            split_membership,
            /// Braking service lost (no CU member or < 3 wheels serving).
            service_lost,
            /// Degraded-mode episode: membership shrank, force was
            /// redistributed.
            degraded_episode,
            /// Slots were lost but membership never shrank.
            omission_only,
            /// The storm left no externally visible trace.
            unaffected,
        }
        metrics {
            /// Injection decisions, all kinds.
            injected,
            /// Frames the CRC rejected.
            crc_rejects,
            /// Corruptions that actually landed on a transmitted frame.
            corruptions_applied,
            /// Babbling transmissions the guardian blocked.
            guardian_blocks,
            /// Forged frames the receiver identity check rejected.
            masquerade_rejects,
            /// Masquerades that actually landed on a transmitted frame.
            masquerades_applied,
            /// Exclusion→readmission episodes observed.
            reintegrations,
            /// Their latencies summed, in cycles.
            reintegration_cycles,
        }
    }
}

/// Everything a storm campaign measures: the counters plus the
/// injection decisions by kind and the reintegration-latency
/// distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStormCampaignResult {
    /// Verdict and metric counters.
    pub counts: NetStormCounts,
    /// Injection decisions across all trials, by kind.
    pub injected: InjectionCounts,
    /// Every observed exclusion→readmission latency (cycles), sorted.
    pub reintegration_latencies: Vec<u32>,
}

impl NetStormCampaignResult {
    /// Measured probability that a wire corruption is caught by the frame
    /// CRC. The paper takes detection coverage as a model *input*; here it
    /// is an experiment *output* (and should be 1.0 for 1–2-bit faults).
    pub fn crc_reject_rate(&self) -> f64 {
        ratio(self.counts.crc_rejects, self.counts.corruptions_applied)
    }

    /// Measured probability that a babbling attempt is blocked.
    pub fn guardian_block_rate(&self) -> f64 {
        ratio(self.counts.guardian_blocks, self.injected.babbles)
    }

    /// Measured probability that a masqueraded frame is rejected.
    pub fn masquerade_reject_rate(&self) -> f64 {
        ratio(
            self.counts.masquerade_rejects,
            self.counts.masquerades_applied,
        )
    }

    /// Percentile of the reintegration-latency distribution (0–100).
    pub fn reintegration_percentile(&self, pct: u32) -> Option<u32> {
        percentile(&self.reintegration_latencies, pct)
    }
}

impl Absorb<StormTrial> for NetStormCampaignResult {
    fn absorb(&mut self, trial: u64, observed: &StormTrial) {
        self.counts.absorb(trial, observed);
        let (report, injected) = observed;
        self.injected.merge(injected);
        self.reintegration_latencies
            .extend(&report.reintegration_latencies);
    }

    fn merge(&mut self, later: NetStormCampaignResult) {
        Tally::merge(&mut self.counts, &later.counts);
        self.injected.merge(&later.injected);
        self.reintegration_latencies
            .extend(later.reintegration_latencies);
    }
}

/// `num / den`, or zero when `den` is.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `pct`-th percentile (0–100) of the sorted `values`, or `None`
/// when there are none.
pub(crate) fn percentile(values: &[u32], pct: u32) -> Option<u32> {
    let last = values.len().checked_sub(1)?;
    Some(values[last * pct as usize / 100])
}

/// Runs the combined node + network storm campaign. Deterministic in the
/// seed and invariant in the thread count: every trial forks its own
/// stream from `(seed, trial index)`, so shard boundaries cannot perturb
/// any drawn value, and the latency distribution is sorted before being
/// returned.
///
/// # Panics
///
/// Panics if [`NetStormCampaignConfig::check`] rejects the config.
pub fn run_net_storm_campaign(
    config: &NetStormCampaignConfig,
    engine: &EngineConfig,
) -> NetStormCampaignResult {
    let mut result: NetStormCampaignResult =
        nlft_engine::run_trials(net_storm_campaign(config), engine).acc;
    result.reintegration_latencies.sort_unstable();
    result
}

/// What one storm trial observed: the cluster report and the injection
/// decisions by kind.
pub(crate) type StormTrial = (ClusterReport, InjectionCounts);

/// The storm campaign, folding each trial's observation into an `A`:
/// the counters alone for a scenario, the full result for
/// [`run_net_storm_campaign`].
///
/// # Panics
///
/// Panics if [`NetStormCampaignConfig::check`] rejects the config.
pub(crate) fn net_storm_campaign<A: Absorb<StormTrial>>(
    config: &NetStormCampaignConfig,
) -> impl TrialCampaign<Acc = A> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let c = config.clone();
    nlft_engine::absorbing_campaign(
        "bbw-net-storm",
        "net-storm-trial",
        config.trials,
        config.seed,
        move |_, rng| run_storm_trial(&c, rng),
    )
}

fn run_storm_trial(config: &NetStormCampaignConfig, mut rng: RngStream) -> StormTrial {
    let mut cluster = BbwCluster::new();
    let plan = NetFaultPlan::quiet()
        .with_nodes(&ALL_NODES, NetFaultRates::storm(config.intensity))
        .with_dynamic(0.10 * config.intensity, 0.10 * config.intensity);
    cluster.attach_net_faults(plan, rng.fork("net-injector"));
    if config.with_node_faults {
        let space = FaultSpace::cpu_only();
        cluster.inject(ClusterInjection::sample(&mut rng, config.cycles, &space));
    }
    let report = cluster.run(config.cycles, |_| 1200);
    (report, cluster.net_injection_counts())
}

impl Absorb<StormTrial> for NetStormCounts {
    fn absorb(&mut self, _: u64, (report, injected): &StormTrial) {
        self.trials += 1;
        if report.split_membership {
            self.split_membership += 1;
        } else if report.service_lost {
            self.service_lost += 1;
        } else if report.degraded_cycles > 0 {
            self.degraded_episode += 1;
        } else if report.omissions > 0 {
            self.omission_only += 1;
        } else {
            self.unaffected += 1;
        }
        self.injected += injected.total();
        self.crc_rejects += report.crc_rejects;
        self.corruptions_applied += report.corruptions_applied;
        self.guardian_blocks += report.guardian_blocks;
        self.masquerade_rejects += report.masquerade_rejects;
        self.masquerades_applied += report.masquerades_applied;
        let latencies = &report.reintegration_latencies;
        self.reintegrations += latencies.len() as u64;
        self.reintegration_cycles += latencies.iter().map(|&l| u64::from(l)).sum::<u64>();
    }

    fn merge(&mut self, later: NetStormCounts) {
        Tally::merge(self, &later)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let cfg = ClusterCampaignConfig::new(40, 0xC1A5);
        assert_eq!(run_cluster_campaign(&cfg), run_cluster_campaign(&cfg));
    }

    #[test]
    fn single_transients_never_lose_braking() {
        let cfg = ClusterCampaignConfig::new(150, 0xC1A5);
        let r = run_cluster_campaign(&cfg);
        assert_eq!(
            r.service_lost, 0,
            "a single CPU transient must never take the brakes out"
        );
        assert_eq!(
            r.trials,
            r.unaffected + r.omission_only + r.degraded_episode + r.service_lost
        );
    }

    #[test]
    fn vast_majority_of_faults_are_invisible() {
        let cfg = ClusterCampaignConfig::new(150, 0x600D);
        let r = run_cluster_campaign(&cfg);
        assert!(
            r.masking_fraction() > 0.9,
            "TEM should hide almost everything at the vehicle boundary: {r:?}"
        );
    }

    #[test]
    fn storm_campaign_identical_across_thread_counts() {
        let mut cfg = NetStormCampaignConfig::new(10, 0x5708);
        cfg.cycles = 20;
        let one = run_net_storm_campaign(&cfg, &EngineConfig::with_workers(1));
        let two = run_net_storm_campaign(&cfg, &EngineConfig::with_workers(2));
        let five = run_net_storm_campaign(&cfg, &EngineConfig::with_workers(5));
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to the RNG fork labels, the injector's
        // draw order or the cluster's cycle structure shows up here.
        // (Re-pinned in 0.2.0: CU set-points are now 6-word sealed fresh
        // commands and wheels hold-last-safe through short CU outages,
        // which moves corruption byte draws and outcome verdicts.)
        let o = &one.counts;
        assert_eq!(
            (
                o.trials,
                o.split_membership,
                o.service_lost,
                o.degraded_episode,
                o.omission_only,
                o.unaffected
            ),
            (10, 1, 5, 4, 0, 0),
            "golden outcome distribution moved: {o:?}"
        );
        assert_eq!(
            one.injected.total(),
            239,
            "golden injection count moved: {:?}",
            one.injected
        );
        assert_eq!((o.crc_rejects, o.guardian_blocks), (92, 37));
    }

    #[test]
    fn storm_measures_bus_coverage_parameters() {
        let mut cfg = NetStormCampaignConfig::new(20, 0xC0FE);
        cfg.cycles = 30;
        cfg.with_node_faults = false;
        let r = run_net_storm_campaign(&cfg, &EngineConfig::default());
        assert!(r.counts.corruptions_applied > 50, "storm too weak: {r:?}");
        assert!(r.injected.babbles > 20, "storm too weak: {r:?}");
        assert!(r.counts.masquerades_applied > 10, "storm too weak: {r:?}");
        // 1–2-bit wire corruptions are within CRC-32's guaranteed detection
        // class, and the guardian blocks every foreign-slot attempt.
        assert_eq!(r.crc_reject_rate(), 1.0, "{r:?}");
        assert_eq!(r.guardian_block_rate(), 1.0, "{r:?}");
        // A masqueraded frame occasionally *also* gets corrupted on the
        // wire and is then charged to the CRC instead, so the identity
        // check's measured rate sits just below 1.
        assert!(r.masquerade_reject_rate() > 0.8, "{r:?}");
        // Under a storm nodes get excluded and come back: the latency
        // distribution is non-empty and its percentiles are ordered.
        assert!(!r.reintegration_latencies.is_empty());
        let p50 = r.reintegration_percentile(50).unwrap();
        let p95 = r.reintegration_percentile(95).unwrap();
        assert!(p50 <= p95);
    }
}
