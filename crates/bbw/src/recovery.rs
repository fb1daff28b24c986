//! Recovery-escalation scenarios and campaigns on the executable cluster.
//!
//! Three seeded scenarios demonstrate the three diagnoses end to end at
//! the system boundary:
//!
//! * [`transient_storm_scenario`] — a spread of one-shot transients is
//!   masked by TEM with *zero* escalation: no suspicion, no restarts,
//!   full membership throughout;
//! * [`intermittent_wheel_scenario`] — a wheel node with a recurring
//!   fault is silenced by its supervisor, restarts under the capped
//!   backoff, survives a probation relapse, and reintegrates into the
//!   bus membership within a bounded number of rounds;
//! * [`permanent_cu_scenario`] — a central-unit replica with a stuck-at
//!   processor fault is retired; the duplex selection re-forms around the
//!   surviving replica and braking continues on a single CU.
//!
//! [`run_recovery_cluster_campaign`] randomises over the three fault
//! classes; like the storm campaign it is deterministic in its seed and
//! bit-identical for any thread count.

use nlft_core::diagnosis::AlphaCountConfig;
use nlft_engine::{EngineConfig, TrialCampaign};
use nlft_kernel::escalation::{EscalationPolicy, NodeHealth};
use nlft_machine::fault::{FaultTarget, IntermittentFault, StuckAtFault};
use nlft_net::frame::NodeId;
use nlft_sim::rng::RngStream;

use crate::cluster::{
    check_run_cycles, pc_fault, BbwCluster, ClusterInjection, ClusterReport, ALL_NODES, CU_A,
    WHEELS,
};

/// A storm of one-shot transients across the cluster, every node under
/// supervision. Spaced strikes never build an error streak, so the whole
/// storm must be masked with zero escalation events and zero restarts.
pub fn transient_storm_scenario(seed: u64) -> ClusterReport {
    let mut rng = RngStream::new(seed).fork("transient-storm");
    let mut cluster = BbwCluster::new();
    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    // One strike per node, at least three cycles apart.
    for (i, &node) in ALL_NODES.iter().enumerate() {
        cluster.inject(ClusterInjection {
            cycle: 2 + 3 * i as u32,
            node,
            copy: rng.uniform_range(0, 2) as u32,
            at_cycle: rng.uniform_range(1, 40),
            fault: pc_fault(),
        });
    }
    cluster.run(30, |_| 1200)
}

/// A wheel node developing an intermittent fault: recurrence 0.9 over a
/// 12-job burst. Returns the report and the victim so callers can check
/// its event stream. The wheel must go fail-silent, restart (possibly
/// more than once — probation relapses are expected while the burst
/// lasts), reintegrate and end the run healthy and in the membership.
pub fn intermittent_wheel_scenario(seed: u64) -> (ClusterReport, NodeId) {
    let victim = WHEELS[1];
    let mut cluster = BbwCluster::new();
    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    cluster.attach_intermittent(
        victim,
        IntermittentFault {
            fault: pc_fault(),
            recurrence: 0.9,
            burst_jobs: 12,
        },
        RngStream::new(seed).fork("intermittent-wheel"),
    );
    let report = cluster.run(45, |_| 1200);
    (report, victim)
}

/// A central-unit replica with a permanent stuck-at fault on its
/// processor (a high PC bit stuck at one): every job of every copy dies
/// in unmapped memory, restarts cannot help, and the supervisor must
/// retire the node with the duplex pair re-formed around `CU_B`.
pub fn permanent_cu_scenario(seed: u64) -> ClusterReport {
    let _ = seed; // the scenario is fully deterministic
    let mut cluster = BbwCluster::new();
    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    cluster.attach_stuck_at(
        CU_A,
        StuckAtFault {
            target: FaultTarget::Pc,
            bit: 1 << 20,
            stuck_high: true,
        },
    );
    cluster.run(40, |_| 1200)
}

/// Configuration of the randomised recovery campaign.
#[derive(Debug, Clone)]
pub struct RecoveryClusterCampaignConfig {
    /// Number of independent cluster runs.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Communication cycles per run. Must leave room for the full ladder
    /// (the default policy needs 25 job slots to retirement).
    pub cycles: u32,
}

impl RecoveryClusterCampaignConfig {
    /// A standard recovery campaign.
    pub fn new(trials: u64, seed: u64) -> Self {
        RecoveryClusterCampaignConfig {
            trials,
            seed,
            cycles: 40,
        }
    }

    /// Checks that the campaign can run: trials, and at least 30 cycles
    /// so the full escalation ladder fits, but no more than
    /// [`MAX_CYCLES`](crate::cluster::MAX_CYCLES).
    pub fn check(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("need trials".into());
        }
        if self.cycles < 30 {
            return Err("recovery needs at least 30 cycles (the full ladder)".into());
        }
        check_run_cycles("recovery", u64::from(self.cycles))?;
        Ok(())
    }
}

nlft_engine::tally! {
    /// Per-trial verdicts of the recovery campaign.
    pub struct RecoveryClusterOutcomes: "recovery-cluster-outcomes" {
        verdicts {
            /// Transient trials handled with zero escalation.
            masked_transient,
            /// Intermittent trials whose victim restarted (or calmed
            /// down) and ended the run healthy.
            recovered,
            /// Permanent trials whose victim was retired.
            retired,
            /// Non-permanent trials ending in a retirement
            /// (misclassification).
            false_retirement,
            /// Permanent trials whose victim was still in service at the
            /// end — stuck-ats that TEM's identical copies cannot
            /// distinguish.
            missed_permanent,
            /// Braking service lost at any point.
            service_lost,
            /// Everything else (trial ended mid-ladder).
            unresolved,
        }
        metrics {}
    }
}

/// Runs the randomised recovery campaign: each trial picks a fault class
/// (one-shot transient, intermittent wheel, stuck-at node), runs a
/// supervised cluster and classifies what the vehicle saw. Deterministic
/// in the seed and invariant in the thread count.
///
/// # Panics
///
/// Panics if [`RecoveryClusterCampaignConfig::check`] rejects the
/// config.
pub fn run_recovery_cluster_campaign(
    config: &RecoveryClusterCampaignConfig,
    engine: &EngineConfig,
) -> RecoveryClusterOutcomes {
    nlft_engine::run_trials(recovery_cluster_campaign(config), engine).acc
}

/// The recovery campaign. Its result is its counters, so a scenario and
/// [`run_recovery_cluster_campaign`] fold the same accumulator.
///
/// # Panics
///
/// Panics if [`RecoveryClusterCampaignConfig::check`] rejects the
/// config.
pub(crate) fn recovery_cluster_campaign(
    config: &RecoveryClusterCampaignConfig,
) -> impl TrialCampaign<Acc = RecoveryClusterOutcomes> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let c = config.clone();
    nlft_engine::absorbing_campaign(
        "bbw-recovery-cluster",
        "recovery-cluster-trial",
        config.trials,
        config.seed,
        move |_, rng| run_recovery_trial(&c, rng),
    )
}

/// Runs one trial and judges it as a one-trial tally.
fn run_recovery_trial(
    config: &RecoveryClusterCampaignConfig,
    mut rng: RngStream,
) -> RecoveryClusterOutcomes {
    let mut cluster = BbwCluster::new();
    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    let kind = rng.uniform_range(0, 3);
    let victim = match kind {
        0 => {
            // One-shot transient on a random node.
            let node = ALL_NODES[rng.uniform_range(0, ALL_NODES.len() as u64) as usize];
            cluster.inject(ClusterInjection {
                cycle: rng.uniform_range(1, 10) as u32,
                node,
                copy: rng.uniform_range(0, 2) as u32,
                at_cycle: rng.uniform_range(1, 40),
                fault: pc_fault(),
            });
            node
        }
        1 => {
            // Intermittent fault on a random wheel.
            let node = WHEELS[rng.uniform_range(0, 4) as usize];
            cluster.attach_intermittent(
                node,
                IntermittentFault {
                    fault: pc_fault(),
                    recurrence: 0.9,
                    burst_jobs: 12,
                },
                rng.fork("victim-intermittent"),
            );
            node
        }
        _ => {
            // Permanent stuck-at on a random node.
            let node = ALL_NODES[rng.uniform_range(0, ALL_NODES.len() as u64) as usize];
            cluster.attach_stuck_at(
                node,
                StuckAtFault {
                    target: FaultTarget::Pc,
                    bit: 1 << 20,
                    stuck_high: true,
                },
            );
            node
        }
    };
    let report = cluster.run(config.cycles, |_| 1200);
    let health = cluster.node_health(victim).expect("victim is supervised");
    let mut result = RecoveryClusterOutcomes {
        trials: 1,
        ..RecoveryClusterOutcomes::default()
    };
    if report.service_lost {
        result.service_lost = 1;
        return result;
    }
    let victim_retired = report.retired_nodes.contains(&victim);
    let verdict = match kind {
        0 if report.escalations.is_empty() && report.restarts == 0 => &mut result.masked_transient,
        0 | 1 if victim_retired => &mut result.false_retirement,
        0 | 1 if health == NodeHealth::Healthy => &mut result.recovered,
        0 | 1 => &mut result.unresolved,
        _ if victim_retired => &mut result.retired,
        _ => &mut result.missed_permanent,
    };
    *verdict += 1;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_kernel::escalation::EscalationEvent;
    use nlft_net::membership::MembershipEvent;

    #[test]
    fn transient_storm_is_masked_with_zero_restarts() {
        let report = transient_storm_scenario(0x7EA5);
        assert!(!report.service_lost);
        assert_eq!(report.restarts, 0, "one-shot transients must not restart");
        assert!(
            report.escalations.is_empty(),
            "spaced one-shot strikes must not escalate: {:?}",
            report.escalations
        );
        assert!(report.retired_nodes.is_empty());
        assert_eq!(report.records.last().unwrap().members, 6);
    }

    #[test]
    fn intermittent_wheel_restarts_and_reintegrates() {
        let (report, victim) = intermittent_wheel_scenario(0x1E7E);
        assert!(!report.service_lost, "three wheels keep braking");
        let events = report.escalations_for(victim);
        assert!(
            events.contains(&EscalationEvent::WentSilent),
            "the burst must silence the wheel: {events:?}"
        );
        assert!(report.restarts >= 1, "recovery must spend a restart");
        assert!(
            events.contains(&EscalationEvent::Restarted),
            "the restart window must complete: {events:?}"
        );
        assert!(
            events.contains(&EscalationEvent::Recovered),
            "the wheel must graduate probation: {events:?}"
        );
        assert!(report.retired_nodes.is_empty(), "no retirement: {events:?}");
        // And the *membership* takes it back: an exclusion followed by a
        // reintegration, with full membership restored at the end.
        let membership_events: Vec<_> = report
            .records
            .iter()
            .flat_map(|r| r.events.iter())
            .collect();
        assert!(membership_events
            .iter()
            .any(|e| matches!(e, MembershipEvent::Excluded(n) if *n == victim)));
        assert!(membership_events
            .iter()
            .any(|e| matches!(e, MembershipEvent::Reintegrated(n) if *n == victim)));
        assert_eq!(report.records.last().unwrap().members, 6);
        assert!(!report.reintegration_latencies.is_empty());
    }

    #[test]
    fn permanent_cu_is_retired_and_duplex_reforms() {
        let report = permanent_cu_scenario(0);
        assert!(!report.service_lost, "CU_B alone must keep the service up");
        assert_eq!(report.retired_nodes, vec![CU_A]);
        let events = report.escalations_for(CU_A);
        assert!(events.contains(&EscalationEvent::Retired));
        // Restarts were tried before giving up (the budget is 3).
        assert!(report.restarts >= 1 && report.restarts <= 3);
        // After retirement the pair is permanently single.
        let last = report.records.last().unwrap();
        assert!(last.cu_single, "duplex must re-form around CU_B");
        assert_eq!(last.members, 5, "the retired replica stays excluded");
        // Wheels keep braking on CU_B's set-points.
        assert!(last.wheel_force.iter().all(|f| f.is_some()));
    }

    #[test]
    fn recovery_campaign_identical_across_thread_counts() {
        let cfg = RecoveryClusterCampaignConfig::new(12, 0x3E5C);
        let one = run_recovery_cluster_campaign(&cfg, &EngineConfig::with_workers(1));
        let two = run_recovery_cluster_campaign(&cfg, &EngineConfig::with_workers(2));
        let five = run_recovery_cluster_campaign(&cfg, &EngineConfig::with_workers(5));
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to the RNG fork labels, the fault draw
        // order, the supervisor thresholds or the cluster's cycle
        // structure shows up here.
        assert_eq!(
            (
                one.trials,
                one.masked_transient,
                one.recovered,
                one.retired,
                one.false_retirement,
                one.missed_permanent,
                one.service_lost,
                one.unresolved,
            ),
            (12, 3, 4, 5, 0, 0, 0, 0),
            "golden outcome distribution moved: {one:?}"
        );
    }

    #[test]
    fn recovery_campaign_covers_the_three_diagnoses() {
        let cfg = RecoveryClusterCampaignConfig::new(30, 0x3E5C);
        let r = run_recovery_cluster_campaign(&cfg, &EngineConfig::default());
        assert_eq!(r.trials, 30);
        assert!(r.masked_transient > 0, "{r:?}");
        assert!(r.recovered > 0, "{r:?}");
        assert!(r.retired > 0, "{r:?}");
        assert_eq!(r.false_retirement, 0, "{r:?}");
        assert_eq!(
            r.service_lost, 0,
            "single-node faults never lose braking: {r:?}"
        );
        let total = r.masked_transient
            + r.recovered
            + r.retired
            + r.false_retirement
            + r.missed_permanent
            + r.service_lost
            + r.unresolved;
        assert_eq!(total, r.trials);
    }
}
