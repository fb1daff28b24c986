//! Blackout-survival campaigns over the executable cluster.
//!
//! The storm campaign in [`crate::cluster_campaign`] perturbs nodes
//! independently; this campaign injects *correlated* loss: a power/bus
//! blackout resets k of the six nodes in the same slot, wiping their
//! volatile state. With the TTP/C-style startup protocol enabled
//! ([`crate::cluster::BbwCluster::enable_startup`]) the victims re-enter
//! service through Listen → cold-start contention → integration, and the
//! campaign measures what the vehicle actually experiences:
//!
//! * time from the blackout to the first winning cold-start frame,
//! * time until the membership view is whole again,
//! * the braking-unavailability window (cycles with fewer than three
//!   wheels delivering force),
//! * hold-last-safe coverage while the command stream is dark, and
//! * the startup protocol's own health: big-bang collision rounds,
//!   minority-clique reverts, and — critically — that reverted nodes
//!   never babble (zero guardian blocks).

use nlft_engine::Tally;
use nlft_net::frame::NodeId;
use nlft_net::inject::{BlackoutSpec, NetFaultPlan};
use nlft_sim::rng::RngStream;

use crate::cluster::{check_run_cycles, BbwCluster, CU_A, CU_B, WHEELS};

const ALL_NODES: [NodeId; 6] = [CU_A, CU_B, WHEELS[0], WHEELS[1], WHEELS[2], WHEELS[3]];

/// Configuration of a blackout-survival campaign.
#[derive(Debug, Clone)]
pub struct BlackoutCampaignConfig {
    /// Number of independent cluster runs, one blackout each.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads; results are identical for any value.
    pub threads: usize,
    /// Healthy cycles before the blackout strikes (must be ≥ 2 so the
    /// clique-avoidance check has armed on real majority traffic).
    pub warmup_cycles: u32,
    /// Cycles observed after the blackout.
    pub recovery_cycles: u32,
    /// Base reset duration per victim, in cycles.
    pub down_cycles: u32,
    /// Maximum extra per-victim down time (uniform in `0..=stagger`),
    /// modelling unequal power-supply recovery.
    pub stagger: u32,
    /// Minimum number of victims per trial (the actual count is drawn
    /// uniformly from `min_reset..=pool size`).
    pub min_reset: usize,
    /// Whether the central units are in the victim pool. With `false`
    /// only wheels reset, the surviving CUs keep the time base alive and
    /// no cold-start contention is needed.
    pub include_cus: bool,
}

impl BlackoutCampaignConfig {
    /// A standard campaign: short warm-up, correlated reset of 2–6 nodes
    /// (CUs included) with a small stagger, generous recovery window.
    pub fn new(trials: u64, seed: u64) -> Self {
        BlackoutCampaignConfig {
            trials,
            seed,
            threads: 1,
            warmup_cycles: 6,
            recovery_cycles: 40,
            down_cycles: 2,
            stagger: 2,
            min_reset: 2,
            include_cus: true,
        }
    }

    /// The deterministic worst case: every node (CUs included) resets in
    /// the same slot with zero stagger — the cluster must cold-start from
    /// total silence. Every trial is identical, which is exactly what the
    /// analytic cross-check wants.
    pub fn full_blackout(trials: u64, seed: u64) -> Self {
        BlackoutCampaignConfig {
            stagger: 0,
            min_reset: ALL_NODES.len(),
            ..BlackoutCampaignConfig::new(trials, seed)
        }
    }

    /// The victim pool: all six nodes, or only the wheels.
    fn pool(&self) -> &'static [NodeId] {
        if self.include_cus {
            &ALL_NODES
        } else {
            &WHEELS
        }
    }

    /// Checks that the campaign can run: trials, `warmup_cycles >= 2`,
    /// a nonzero recovery window and blackout, warmup plus recovery
    /// within [`MAX_CYCLES`](crate::cluster::MAX_CYCLES), and `min_reset`
    /// within `1..=pool size`.
    pub fn check(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("need trials".into());
        }
        if self.warmup_cycles < 2 {
            return Err("blackout warmup must be at least 2 cycles (clique avoidance arms)".into());
        }
        if self.recovery_cycles == 0 {
            return Err("blackout needs a recovery window".into());
        }
        if self.down_cycles == 0 {
            return Err("blackout must last at least 1 cycle".into());
        }
        check_run_cycles(
            "blackout",
            u64::from(self.warmup_cycles) + u64::from(self.recovery_cycles),
        )?;
        let pool = self.pool().len();
        if !(1..=pool).contains(&self.min_reset) {
            return Err(format!("blackout min_reset must be in 1..={pool}"));
        }
        Ok(())
    }
}

nlft_engine::tally! {
    /// Counters of a blackout campaign, summed across trials.
    pub struct BlackoutCounts: "blackout-counts" {
        verdicts {
            /// Trials in which the membership view returned to all six
            /// nodes.
            full_recoveries,
            /// Trials whose membership view never became whole again.
            incomplete,
        }
        metrics {
            /// Trials that needed a cold-start contention (a winning
            /// cold-start frame was observed) rather than plain listening
            /// reintegration.
            cold_start_trials,
            /// Cold-start frames put on the bus.
            cold_starts_sent,
            /// Big-bang collision rounds (≥ 2 simultaneous cold-start
            /// frames).
            big_bangs,
            /// Active nodes that reverted on seeing only a minority
            /// clique.
            clique_reverts,
            /// Guardian blocks. The startup protocol keeps
            /// listening/reverted nodes silent *by construction*, so this
            /// must stay zero: clique avoidance never degenerates into
            /// babbling.
            guardian_blocks,
            /// Cycles wheels braked on held last-safe set-points — the
            /// value-domain bridge over the command blackout.
            held_setpoint_cycles,
            /// Blackout-to-full-membership cycles, summed over recovered
            /// trials.
            membership_cycles,
            /// Braking-unavailability cycles, summed over trials.
            unavailability_cycles,
        }
    }
}

/// Everything a blackout campaign measures: the counters plus the
/// latency distributions, each sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlackoutCampaignResult {
    /// Verdict and metric counters.
    pub counts: BlackoutCounts,
    /// Per cold-start trial: cycles from the blackout to the first
    /// winning cold-start frame.
    pub time_to_cold_start: Vec<u32>,
    /// Per recovered trial: cycles from the blackout until the
    /// membership view was whole again.
    pub time_to_full_membership: Vec<u32>,
    /// Per trial: post-blackout cycles with fewer than three wheels
    /// delivering force (the braking-unavailability window).
    pub unavailability_cycles: Vec<u32>,
    /// Every node's reset→Active integration latency, across all trials.
    pub integration_latencies: Vec<u32>,
}

impl BlackoutCampaignResult {
    /// Fraction of trials whose membership view fully recovered.
    pub fn recovery_fraction(&self) -> f64 {
        if self.counts.trials == 0 {
            0.0
        } else {
            self.counts.full_recoveries as f64 / self.counts.trials as f64
        }
    }

    /// Mean reset→Active integration latency in cycles.
    pub fn integration_latency_mean(&self) -> f64 {
        if self.integration_latencies.is_empty() {
            return 0.0;
        }
        let sum: u64 = self
            .integration_latencies
            .iter()
            .map(|&l| u64::from(l))
            .sum();
        sum as f64 / self.integration_latencies.len() as f64
    }

    /// Percentile of the time-to-full-membership distribution (0–100).
    pub fn membership_percentile(&self, pct: u32) -> Option<u32> {
        if self.time_to_full_membership.is_empty() {
            return None;
        }
        let n = self.time_to_full_membership.len();
        let idx = ((n - 1) * pct as usize) / 100;
        Some(self.time_to_full_membership[idx])
    }

    fn merge(&mut self, other: BlackoutCampaignResult) {
        self.counts.merge(&other.counts);
        self.time_to_cold_start.extend(other.time_to_cold_start);
        self.time_to_full_membership
            .extend(other.time_to_full_membership);
        self.unavailability_cycles
            .extend(other.unavailability_cycles);
        self.integration_latencies
            .extend(other.integration_latencies);
    }
}

/// Runs the blackout campaign. Deterministic in the seed and invariant
/// in the thread count: every trial forks its own stream from
/// `(seed, trial index)` and all distributions are sorted before being
/// returned.
///
/// # Panics
///
/// Panics if [`BlackoutCampaignConfig::check`] rejects the config.
pub fn run_blackout_campaign(config: &BlackoutCampaignConfig) -> BlackoutCampaignResult {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let c = config.clone();
    let root = RngStream::new(config.seed);
    let campaign = nlft_engine::indexed_campaign(
        "bbw-blackout",
        "blackout-trial",
        config.trials,
        BlackoutCampaignResult::default,
        move |trial, _ctx, result: &mut BlackoutCampaignResult| {
            run_blackout_trial(&c, &root, trial, result);
        },
        |into, from| into.merge(from),
    );
    let engine = nlft_engine::EngineConfig::with_workers(config.threads.max(1));
    let mut result = nlft_engine::run_trials(campaign, &engine).acc;
    result.time_to_cold_start.sort_unstable();
    result.time_to_full_membership.sort_unstable();
    result.unavailability_cycles.sort_unstable();
    result.integration_latencies.sort_unstable();
    result
}

fn run_blackout_trial(
    config: &BlackoutCampaignConfig,
    root: &RngStream,
    trial: u64,
    result: &mut BlackoutCampaignResult,
) {
    let blackout_at = config.warmup_cycles;
    let total_cycles = config.warmup_cycles + config.recovery_cycles;
    let mut rng = root.fork_indexed("blackout-trial", trial);
    let mut pool = config.pool().to_vec();
    let spread = (pool.len() - config.min_reset) as u64;
    let k = config.min_reset + rng.uniform_range(0, spread + 1) as usize;
    // Partial Fisher–Yates: the first k entries become the victims.
    for i in 0..k {
        let j = i + rng.uniform_range(0, (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);

    let mut cluster = BbwCluster::new();
    cluster.enable_startup();
    let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
        at_cycle: blackout_at,
        nodes: pool,
        down_cycles: config.down_cycles,
        stagger: config.stagger,
    });
    cluster.attach_net_faults(plan, rng.fork("net-injector"));
    let report = cluster.run(total_cycles, |_| 1200);
    let metrics = cluster
        .startup_metrics()
        .expect("startup enabled for blackout trials")
        .clone();

    let c = &mut result.counts;
    c.trials += 1;
    c.cold_starts_sent += u64::from(metrics.cold_starts_sent);
    c.big_bangs += u64::from(metrics.big_bangs);
    c.clique_reverts += u64::from(metrics.clique_reverts);
    c.guardian_blocks += report.guardian_blocks;
    c.held_setpoint_cycles += u64::from(report.value.held_setpoint_cycles);
    if let Some(cycle) = metrics.first_cold_start_cycle {
        c.cold_start_trials += 1;
        result.time_to_cold_start.push(cycle - blackout_at);
    }
    result
        .integration_latencies
        .extend(metrics.integration_latencies.iter().map(|&(_, l)| l));

    let mut dipped = false;
    let mut recovered_at = None;
    let mut unavailable = 0u32;
    for rec in &report.records {
        if rec.cycle < blackout_at {
            continue;
        }
        let forces = rec.wheel_force.iter().filter(|f| f.is_some()).count();
        if forces < 3 {
            unavailable += 1;
        }
        if rec.members < ALL_NODES.len() {
            dipped = true;
        } else if dipped && recovered_at.is_none() {
            recovered_at = Some(rec.cycle);
        }
    }
    let c = &mut result.counts;
    if let Some(cycle) = recovered_at {
        c.full_recoveries += 1;
        c.membership_cycles += u64::from(cycle - blackout_at);
        result.time_to_full_membership.push(cycle - blackout_at);
    } else {
        c.incomplete += 1;
    }
    c.unavailability_cycles += u64::from(unavailable);
    result.unavailability_cycles.push(unavailable);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_core::diagnosis::AlphaCountConfig;
    use nlft_kernel::escalation::{EscalationEvent, EscalationPolicy};
    use nlft_machine::fault::{FaultTarget, IntermittentFault, TransientFault};
    use nlft_net::startup::StartupEvent;

    #[test]
    fn gated_restart_reenters_through_listen_and_integration() {
        // A wheel develops an intermittent fault and is restarted by its
        // supervisor. With `gate_reintegration` set and the startup
        // protocol enabled, the restart must not rejoin instantly: the
        // supervisor parks (`AwaitingIntegration`), the node re-enters
        // through Listen, adopts timing from ongoing traffic, and only
        // once the protocol activates it does `Restarted` fire.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        cluster.supervise_all(
            AlphaCountConfig::default(),
            EscalationPolicy {
                gate_reintegration: true,
                ..EscalationPolicy::default()
            },
        );
        let victim = WHEELS[1];
        cluster.attach_intermittent(
            victim,
            IntermittentFault {
                fault: TransientFault {
                    target: FaultTarget::Pc,
                    mask: 1 << 20,
                },
                recurrence: 0.9,
                burst_jobs: 12,
            },
            RngStream::new(0x6A7E).fork("intermittent-wheel"),
        );
        let report = cluster.run(60, |_| 1200);
        let ladder = report.escalations_for(victim);
        let parked = ladder
            .iter()
            .position(|e| *e == EscalationEvent::AwaitingIntegration)
            .expect("gated restart must park on the integration gate");
        let restarted = ladder
            .iter()
            .position(|e| *e == EscalationEvent::Restarted)
            .expect("integration must complete the restart");
        assert!(
            parked < restarted,
            "Restarted before AwaitingIntegration: {ladder:?}"
        );
        let adopted = report
            .startup_events
            .iter()
            .any(|(_, ev)| *ev == StartupEvent::TimingAdopted(victim));
        let activated = report
            .startup_events
            .iter()
            .any(|(_, ev)| *ev == StartupEvent::Activated(victim));
        assert!(
            adopted && activated,
            "victim must re-enter via the protocol: {:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0);
        assert_eq!(
            report.records.last().unwrap().members,
            6,
            "victim must end the run back in the membership"
        );
    }

    #[test]
    fn full_blackout_cold_starts_within_the_deterministic_bound() {
        // All six nodes reset at cycle 6 for exactly 2 cycles. The
        // fastest listener (slot 0, timeout 4) must win the contention
        // at cycle 6 + 2 + 4 = 12 and the membership view must be whole
        // again three cycles later: marker at 12, set-points at 13,
        // wheels back at 14, readmission complete at 15.
        let cfg = BlackoutCampaignConfig::full_blackout(3, 0xB1AC);
        let r = run_blackout_campaign(&cfg);
        let c = &r.counts;
        assert_eq!(c.trials, 3);
        assert_eq!(c.cold_start_trials, 3, "{r:?}");
        assert_eq!(c.full_recoveries, 3, "{r:?}");
        assert_eq!(c.big_bangs, 0, "unique timeouts cannot collide: {r:?}");
        assert_eq!(c.guardian_blocks, 0, "startup nodes must not babble");
        assert!(
            r.time_to_cold_start.iter().all(|&t| t == 6),
            "cold start must land at down + fastest timeout: {r:?}"
        );
        assert!(
            r.time_to_full_membership.iter().all(|&t| t == 9),
            "membership must be whole three cycles after the marker: {r:?}"
        );
        // Every node of every trial integrates with the same latency in
        // a zero-stagger full blackout.
        assert_eq!(r.integration_latencies.len(), 18);
        assert!(r.integration_latencies.iter().all(|&l| l == 9), "{r:?}");
    }

    #[test]
    fn minority_survivors_revert_instead_of_babbling() {
        // Knock out four of six nodes: the two survivors are a minority
        // clique and must fall silent (revert) rather than keep acting,
        // then the whole cluster cold-starts. The guardian must never
        // fire — silence is enforced by protocol, not by the bus.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: 6,
            nodes: vec![CU_A, CU_B, WHEELS[0], WHEELS[1]],
            down_cycles: 3,
            stagger: 0,
        });
        cluster.attach_net_faults(plan, RngStream::new(0xC11).fork("net-injector"));
        let report = cluster.run(40, |_| 1200);
        let reverted: Vec<_> = report
            .startup_events
            .iter()
            .filter_map(|(_, ev)| match ev {
                StartupEvent::CliqueReverted(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(
            reverted,
            vec![WHEELS[2], WHEELS[3]],
            "both survivors must revert: {:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0, "reverted nodes babbled");
        let metrics = cluster.startup_metrics().unwrap();
        assert!(metrics.first_cold_start_cycle.is_some());
        assert_eq!(
            report.records.last().unwrap().members,
            6,
            "cluster never made it back to full membership"
        );
    }

    #[test]
    fn staggered_blackout_goes_through_big_bang_and_recovers() {
        // Down times chosen so two contenders' listen timeouts expire in
        // the same cycle: node 0 (timeout 4) down 3 and node 1
        // (timeout 5) down 2 both contend at cycle 6 + 7 — the big-bang
        // collision. Both back off with their unique timeouts and the
        // rematch has a single winner.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        let plan = NetFaultPlan::quiet()
            .with_blackout(BlackoutSpec {
                at_cycle: 6,
                nodes: vec![CU_A],
                down_cycles: 3,
                stagger: 0,
            })
            .with_blackout(BlackoutSpec {
                at_cycle: 6,
                nodes: vec![CU_B],
                down_cycles: 2,
                stagger: 0,
            })
            .with_blackout(BlackoutSpec {
                at_cycle: 6,
                nodes: WHEELS.to_vec(),
                down_cycles: 12,
                stagger: 0,
            });
        cluster.attach_net_faults(plan, RngStream::new(0xB16).fork("net-injector"));
        let report = cluster.run(48, |_| 1200);
        let metrics = cluster.startup_metrics().unwrap();
        assert_eq!(metrics.big_bangs, 1, "{:?}", report.startup_events);
        assert!(
            metrics.first_cold_start_cycle.is_some(),
            "the rematch must produce a winner: {:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0);
        assert_eq!(report.records.last().unwrap().members, 6, "{report:?}");
    }

    #[test]
    fn two_wheel_blackout_reintegrates_by_listening() {
        // Four nodes survive — still a majority clique — so the time
        // base never dies: the two reset wheels must adopt timing from
        // ongoing traffic without any cold-start contention.
        let mut cluster = BbwCluster::new();
        cluster.enable_startup();
        let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: 6,
            nodes: vec![WHEELS[0], WHEELS[1]],
            down_cycles: 2,
            stagger: 0,
        });
        cluster.attach_net_faults(plan, RngStream::new(0x1D1E).fork("net-injector"));
        let report = cluster.run(40, |_| 1200);
        let metrics = cluster.startup_metrics().unwrap();
        assert_eq!(
            metrics.first_cold_start_cycle, None,
            "{:?}",
            report.startup_events
        );
        assert_eq!(metrics.cold_starts_sent, 0);
        assert_eq!(metrics.clique_reverts, 0, "{:?}", report.startup_events);
        let adopted: Vec<_> = report
            .startup_events
            .iter()
            .filter_map(|(_, ev)| match ev {
                StartupEvent::TimingAdopted(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(
            adopted,
            vec![WHEELS[0], WHEELS[1]],
            "{:?}",
            report.startup_events
        );
        assert_eq!(report.guardian_blocks, 0);
        assert_eq!(report.records.last().unwrap().members, 6);
    }

    #[test]
    fn blackout_campaign_identical_across_thread_counts() {
        let mut cfg = BlackoutCampaignConfig::new(10, 0xB1AC_0007);
        cfg.threads = 1;
        let one = run_blackout_campaign(&cfg);
        cfg.threads = 2;
        let two = run_blackout_campaign(&cfg);
        cfg.threads = 5;
        let five = run_blackout_campaign(&cfg);
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to the RNG fork labels, the blackout
        // draw order, the startup protocol's transitions or the
        // cluster's cycle structure shows up here.
        let c = &one.counts;
        assert_eq!(
            (
                c.trials,
                c.full_recoveries,
                c.cold_start_trials,
                c.big_bangs,
                c.clique_reverts,
                c.guardian_blocks
            ),
            (10, 10, 9, 8, 12, 0),
            "golden blackout outcome moved: {one:?}"
        );
        assert_eq!(
            (
                one.time_to_full_membership.clone(),
                one.unavailability_cycles.clone()
            ),
            (
                vec![6, 8, 9, 9, 10, 12, 13, 13, 16, 19],
                vec![0, 7, 8, 8, 9, 11, 12, 12, 14, 18]
            ),
            "golden latency distributions moved: {one:?}"
        );
    }
}
