//! Compiling scenario files onto the executable campaign runners.
//!
//! The parser half of the scenario DSL lives in
//! [`nlft_reliability::scenario`] (this crate has the heavier
//! dependencies, so the compiler lives here): a [`ScenarioSpec`] is
//! compiled through the typed `try_*` constructors of the injector
//! crates into a [`CompiledScenario`] — one of the existing campaign
//! configurations, or a free-form cluster scenario driven by its own
//! per-trial engine.
//!
//! Every path preserves the labelled-`RngStream`-per-trial rule: a
//! trial's stream is forked as `fork_indexed(label, trial)` off the
//! scenario seed, so running a scenario at 1, 2 or 5 threads yields a
//! bit-identical [`ScenarioOutcome`] — including its CRC-32 `digest`,
//! which the zoo's `accept … pin` clauses golden-pin in CI.

use std::time::Duration;

use nlft_core::campaign::{run_campaign, CampaignConfig};
use nlft_core::diagnosis::AlphaCountConfig;
use nlft_core::multicore_campaign::{run_multicore_campaign, MulticoreCampaignConfig};
use nlft_core::policy::NodePolicy;
use nlft_engine::checkpoint::{self, Checkpoint, TokenReader};
use nlft_engine::{CampaignOptions, EngineConfig, ResumePoint};
use nlft_kernel::contract::MkContract;
use nlft_kernel::escalation::EscalationPolicy;
use nlft_kernel::resources::ProtocolKind;
use nlft_machine::fault::{FaultTarget, IntermittentFault, StuckAtFault, TransientFault};
use nlft_net::frame::NodeId;
use nlft_net::inject::{BlackoutSpec, NetFaultPlan, NetFaultRates};
use nlft_reliability::scenario::{
    ActuatorFaultSpec, ClusterSpec, FamilyParams, FaultLine, NodeKind, NodeName, PedalSpec,
    ScenarioSpec, SensorFaultSpec,
};
use nlft_sim::crc::crc32;
use nlft_sim::rng::RngStream;

use crate::actuator::ActuatorFault;
use crate::blackout::{run_blackout_campaign, BlackoutCampaignConfig};
use crate::braking::MissPolicy;
use crate::cluster::{BbwCluster, ClusterInjection, ClusterReport, CU_A, CU_B, WHEELS};
use crate::cluster_campaign::{run_net_storm_campaign, NetStormCampaignConfig};
use crate::recovery::{run_recovery_cluster_campaign, RecoveryClusterCampaignConfig};
use crate::sensor::SensorFault;
use crate::value_campaign::{run_value_domain_campaign, ValueDomainCampaignConfig};
use crate::weakly_hard_campaign::{run_miss_pattern_campaign, MissPatternCampaignConfig};

/// Why a parsed scenario could not be compiled onto the runners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The scenario's name.
    pub scenario: String,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario `{}`: {}", self.scenario, self.message)
    }
}

impl std::error::Error for CompileError {}

/// A scenario compiled onto its concrete runner configuration.
#[derive(Debug, Clone)]
pub enum CompiledScenario {
    /// The six-node network-storm campaign.
    NetStorm(NetStormCampaignConfig),
    /// The value-domain campaign.
    ValueDomain(ValueDomainCampaignConfig),
    /// The correlated-blackout campaign.
    Blackout(BlackoutCampaignConfig),
    /// The recovery-escalation campaign.
    Recovery(RecoveryClusterCampaignConfig),
    /// The weakly-hard miss-pattern campaign.
    WeaklyHard(MissPatternCampaignConfig),
    /// The multicore core-death campaign.
    Multicore(MulticoreCampaignConfig),
    /// The node-level SWIFI parameter campaign.
    Node(CampaignConfig),
    /// A free-form cluster scenario run by this module's engine.
    Cluster(ClusterScenarioConfig),
}

/// A compiled free-form cluster scenario.
#[derive(Debug, Clone)]
pub struct ClusterScenarioConfig {
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// The validated declaration.
    pub spec: ClusterSpec,
}

/// The outcome of running one scenario: integer verdict and metric
/// counters in a canonical order, plus the CRC-32 digest over their
/// canonical rendering. Bit-identical for any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Trials executed.
    pub trials: u64,
    /// Named per-trial verdict counts (each trial gets exactly one
    /// verdict within a family's ladder).
    pub verdicts: Vec<(String, u64)>,
    /// Named aggregate metrics.
    pub metrics: Vec<(String, u64)>,
    /// CRC-32 over [`ScenarioOutcome::canonical`].
    pub digest: u32,
}

impl ScenarioOutcome {
    fn new(
        name: &str,
        trials: u64,
        verdicts: Vec<(String, u64)>,
        metrics: Vec<(String, u64)>,
    ) -> Self {
        let mut outcome = ScenarioOutcome {
            name: name.to_string(),
            trials,
            verdicts,
            metrics,
            digest: 0,
        };
        outcome.digest = crc32(outcome.canonical().as_bytes());
        outcome
    }

    /// The canonical rendering the digest covers: one `key=value` pair
    /// per line, verdicts before metrics, in emission order.
    pub fn canonical(&self) -> String {
        let mut out = format!("scenario={}\ntrials={}\n", self.name, self.trials);
        for (k, v) in &self.verdicts {
            out.push_str(&format!("verdict.{k}={v}\n"));
        }
        for (k, v) in &self.metrics {
            out.push_str(&format!("metric.{k}={v}\n"));
        }
        out
    }

    /// Looks up a named counter, verdicts first.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.verdicts
            .iter()
            .chain(self.metrics.iter())
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// A failed acceptance check, human-readable.
pub type AcceptFailure = String;

/// Checks a scenario's acceptance clause against its outcome. Returns
/// the list of violated assertions (empty = accepted).
pub fn check_accept(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Vec<AcceptFailure> {
    let mut failures = Vec::new();
    if let Some(pin) = spec.accept.pin {
        if pin != outcome.digest {
            failures.push(format!(
                "digest 0x{:08x} does not match pin 0x{pin:08x}",
                outcome.digest
            ));
        }
    }
    for (name, expected) in &spec.accept.verdicts {
        match outcome.counter(name) {
            Some(actual) if actual == *expected => {}
            Some(actual) => {
                failures.push(format!("verdict {name}: expected {expected}, got {actual}"))
            }
            None => failures.push(format!("verdict {name}: no such counter")),
        }
    }
    for name in &spec.accept.require_zero {
        match outcome.counter(name) {
            Some(0) => {}
            Some(actual) => failures.push(format!("require_zero {name}: got {actual}")),
            None => failures.push(format!("require_zero {name}: no such counter")),
        }
    }
    for (name, ceiling) in &spec.accept.max {
        match outcome.counter(name) {
            Some(actual) if actual <= *ceiling => {}
            Some(actual) => {
                failures.push(format!("max {name}: {actual} exceeds ceiling {ceiling}"))
            }
            None => failures.push(format!("max {name}: no such counter")),
        }
    }
    failures
}

fn node_id(name: NodeName) -> NodeId {
    match name {
        NodeName::CuA => CU_A,
        NodeName::CuB => CU_B,
        NodeName::WheelFl => WHEELS[0],
        NodeName::WheelFr => WHEELS[1],
        NodeName::WheelRl => WHEELS[2],
        NodeName::WheelRr => WHEELS[3],
    }
}

const ALL_NODES: [NodeId; 6] = [CU_A, CU_B, WHEELS[0], WHEELS[1], WHEELS[2], WHEELS[3]];

/// The deterministic near-certain-activation transient the DSL's
/// `transient` / `intermittent` lines inject: a flipped high PC bit
/// sends every job into unmapped memory.
fn pc_fault() -> TransientFault {
    TransientFault {
        target: FaultTarget::Pc,
        mask: 1 << 20,
    }
}

/// Compiles a parsed scenario onto its concrete runner configuration,
/// revalidating every rate through the injectors' typed constructors.
/// `threads` is the worker count for families that shard (the outcome
/// itself is thread-count invariant).
pub fn compile(spec: &ScenarioSpec, threads: usize) -> Result<CompiledScenario, CompileError> {
    let fail = |message: String| CompileError {
        scenario: spec.name.clone(),
        message,
    };
    if spec.trials == 0 {
        return Err(fail("trials must be positive".into()));
    }
    Ok(match &spec.params {
        FamilyParams::NetStorm {
            cycles,
            intensity,
            node_faults,
        } => {
            if *cycles < 2 {
                return Err(fail("net_storm needs at least 2 cycles".into()));
            }
            let mut config = NetStormCampaignConfig::new(spec.trials, spec.seed);
            config.cycles = *cycles;
            config.intensity = *intensity;
            config.with_node_faults = *node_faults;
            config.threads = threads;
            CompiledScenario::NetStorm(config)
        }
        FamilyParams::ValueDomain {
            cycles,
            combined,
            net_intensity,
        } => {
            let mut config = if *combined {
                ValueDomainCampaignConfig::combined_storm(spec.trials, spec.seed)
            } else {
                ValueDomainCampaignConfig::single_fault(spec.trials, spec.seed)
            };
            config.cycles = *cycles;
            config.net_intensity = *net_intensity;
            config.threads = threads;
            CompiledScenario::ValueDomain(config)
        }
        FamilyParams::Blackout {
            warmup,
            recovery,
            down,
            stagger,
            min_reset,
            include_cus,
        } => {
            if *down == 0 {
                return Err(fail("blackout must last at least 1 cycle".into()));
            }
            if *min_reset == 0 {
                return Err(fail("blackout must reset at least 1 node".into()));
            }
            let mut config = BlackoutCampaignConfig::new(spec.trials, spec.seed);
            config.warmup_cycles = *warmup;
            config.recovery_cycles = *recovery;
            config.down_cycles = *down;
            config.stagger = *stagger;
            config.min_reset = *min_reset as usize;
            config.include_cus = *include_cus;
            config.threads = threads;
            CompiledScenario::Blackout(config)
        }
        FamilyParams::Recovery { cycles } => {
            if *cycles < 30 {
                return Err(fail(
                    "recovery needs at least 30 cycles (the full ladder)".into(),
                ));
            }
            let mut config = RecoveryClusterCampaignConfig::new(spec.trials, spec.seed);
            config.cycles = *cycles;
            config.threads = threads;
            CompiledScenario::Recovery(config)
        }
        FamilyParams::WeaklyHard {
            horizon_jobs,
            max_misses,
            window,
            interval_lo,
            interval_hi,
            zero_force,
        } => {
            if *horizon_jobs == 0 || *horizon_jobs > 64 {
                return Err(fail("weakly_hard horizon must be 1–64 jobs".into()));
            }
            if interval_lo >= interval_hi {
                return Err(fail(
                    "weakly_hard interval must be a non-empty range".into(),
                ));
            }
            let contract =
                MkContract::try_new(*max_misses, *window).map_err(|e| fail(e.to_string()))?;
            let mut config = MissPatternCampaignConfig::nominal(spec.trials, spec.seed);
            config.horizon_jobs = *horizon_jobs;
            config.contract = contract;
            config.fault_interval_us = (*interval_lo, *interval_hi);
            config.policy = if *zero_force {
                MissPolicy::ZeroForce
            } else {
                MissPolicy::HoldLast
            };
            config.threads = threads;
            CompiledScenario::WeaklyHard(config)
        }
        FamilyParams::Multicore {
            cores,
            horizon,
            escalated_p,
        } => {
            if *cores < 2 {
                return Err(fail("multicore needs at least 2 cores".into()));
            }
            let mut config = MulticoreCampaignConfig::new(spec.trials, spec.seed);
            config.cores = *cores;
            config.horizon = *horizon;
            config.escalated_p = *escalated_p;
            config.threads = threads;
            CompiledScenario::Multicore(config)
        }
        FamilyParams::Node { lightweight_nlft } => {
            let policy = if *lightweight_nlft {
                NodePolicy::LightweightNlft
            } else {
                NodePolicy::FailSilent
            };
            let mut config = CampaignConfig::new(spec.trials, spec.seed, policy);
            config.threads = threads;
            CompiledScenario::Node(config)
        }
        FamilyParams::Cluster(cluster) => {
            compile_cluster(spec, cluster).map_err(fail)?;
            CompiledScenario::Cluster(ClusterScenarioConfig {
                trials: spec.trials,
                seed: spec.seed,
                spec: cluster.clone(),
            })
        }
    })
}

/// Validates a cluster declaration by dry-building its plan through the
/// injectors' typed constructors.
fn compile_cluster(spec: &ScenarioSpec, cluster: &ClusterSpec) -> Result<(), String> {
    if cluster.cycles < 2 {
        return Err("cluster needs at least 2 cycles".into());
    }
    build_net_plan(cluster).map_err(|e| e.to_string())?;
    for fault in &cluster.faults {
        match fault {
            FaultLine::Transient { cycle, copy, .. } => {
                if *cycle == 0 || *cycle >= cluster.cycles {
                    return Err(format!(
                        "transient cycle {cycle} outside 1..{}",
                        cluster.cycles
                    ));
                }
                if *copy > 1 {
                    return Err(format!("transient copy {copy} must be 0 or 1"));
                }
            }
            FaultLine::Intermittent {
                recurrence, burst, ..
            } => {
                IntermittentFault {
                    fault: pc_fault(),
                    recurrence: *recurrence,
                    burst_jobs: *burst,
                }
                .check()
                .map_err(|e| e.to_string())?;
            }
            FaultLine::CoreDeath { node, .. } => {
                let declared = cluster
                    .nodes
                    .iter()
                    .any(|&(n, k)| n == *node && k != NodeKind::SingleCore);
                if !declared {
                    return Err(format!(
                        "core_death on {} requires a dual-core node kind in `topology`",
                        node.keyword()
                    ));
                }
            }
            FaultLine::Sensor { channel, .. } if *channel > 2 => {
                return Err(format!("sensor channel {channel} outside 0–2"));
            }
            FaultLine::Actuator { wheel, .. } if *wheel > 3 => {
                return Err(format!("actuator wheel {wheel} outside 0–3"));
            }
            _ => {}
        }
    }
    if let Some(contracts) = cluster.contracts {
        for (m, k) in contracts {
            MkContract::try_new(m, k).map_err(|e| e.to_string())?;
        }
    }
    let _ = spec;
    Ok(())
}

/// Builds the net-fault plan declared by a cluster's `storm` / `rates` /
/// `dynamic` / `blackout` lines; `None` when the scenario declares no
/// network faults at all.
fn build_net_plan(
    cluster: &ClusterSpec,
) -> Result<Option<NetFaultPlan>, nlft_net::inject::PlanError> {
    let mut plan = NetFaultPlan::quiet();
    let mut any = false;
    for fault in &cluster.faults {
        match fault {
            FaultLine::Storm {
                intensity,
                from,
                until,
            } => {
                plan = plan
                    .try_with_nodes(&ALL_NODES, NetFaultRates::storm(*intensity))?
                    .try_with_dynamic(0.10 * *intensity, 0.10 * *intensity)?
                    .window(*from, *until);
                any = true;
            }
            FaultLine::Rates {
                node,
                corruption,
                omission,
                crash,
                babble,
                masquerade,
                clock_glitch,
            } => {
                let rates = NetFaultRates {
                    corruption: *corruption,
                    omission: *omission,
                    crash: *crash,
                    babble: *babble,
                    masquerade: *masquerade,
                    clock_glitch: *clock_glitch,
                };
                plan = plan.try_with_node(node_id(*node), rates)?;
                any = true;
            }
            FaultLine::Dynamic { dup, reorder } => {
                plan = plan.try_with_dynamic(*dup, *reorder)?;
                any = true;
            }
            FaultLine::Blackout {
                at,
                down,
                stagger,
                nodes,
            } => {
                plan = plan.try_with_blackout(BlackoutSpec {
                    at_cycle: *at,
                    nodes: nodes.iter().map(|&n| node_id(n)).collect(),
                    down_cycles: *down,
                    stagger: *stagger,
                })?;
                any = true;
            }
            _ => {}
        }
    }
    Ok(if any { Some(plan) } else { None })
}

/// Runs a compiled scenario and reduces its family-specific result to
/// the canonical [`ScenarioOutcome`].
pub fn run_compiled(name: &str, compiled: &CompiledScenario) -> ScenarioOutcome {
    match compiled {
        CompiledScenario::NetStorm(config) => {
            let r = run_net_storm_campaign(config);
            ScenarioOutcome::new(
                name,
                r.outcomes.trials,
                vec![
                    ("split_membership".into(), r.outcomes.split_membership),
                    ("service_lost".into(), r.outcomes.service_lost),
                    ("degraded_episode".into(), r.outcomes.degraded_episode),
                    ("omission_only".into(), r.outcomes.omission_only),
                    ("unaffected".into(), r.outcomes.unaffected),
                ],
                vec![
                    ("injected".into(), r.injected.total()),
                    ("crc_rejects".into(), r.crc_rejects),
                    ("corruptions_applied".into(), r.corruptions_applied),
                    ("guardian_blocks".into(), r.guardian_blocks),
                    ("masquerade_rejects".into(), r.masquerade_rejects),
                    ("masquerades_applied".into(), r.masquerades_applied),
                    (
                        "reintegrations".into(),
                        r.reintegration_latencies.len() as u64,
                    ),
                    (
                        "reintegration_cycles".into(),
                        r.reintegration_latencies
                            .iter()
                            .map(|&l| u64::from(l))
                            .sum(),
                    ),
                ],
            )
        }
        CompiledScenario::ValueDomain(config) => {
            let r = run_value_domain_campaign(config);
            ScenarioOutcome::new(
                name,
                r.outcomes.trials,
                vec![
                    ("undetected".into(), r.outcomes.undetected),
                    ("service_lost".into(), r.outcomes.service_lost),
                    ("detected".into(), r.outcomes.detected),
                    ("masked".into(), r.outcomes.masked),
                ],
                vec![
                    (
                        "worst_total_force_deficit".into(),
                        u64::from(r.worst_total_force_deficit),
                    ),
                    (
                        "worst_left_right_imbalance".into(),
                        u64::from(r.worst_left_right_imbalance),
                    ),
                    ("stale_rejects".into(), r.stale_rejects),
                    ("seal_rejects".into(), r.seal_rejects),
                    ("held_setpoint_cycles".into(), r.held_setpoint_cycles),
                    ("sensor_demotions".into(), r.sensor_demotions),
                    ("actuator_trips".into(), r.actuator_trips),
                    (
                        "undetected_value_failures".into(),
                        r.undetected_value_failures,
                    ),
                ],
            )
        }
        CompiledScenario::Blackout(config) => {
            let r = run_blackout_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("full_recoveries".into(), r.full_recoveries),
                    ("incomplete".into(), r.trials - r.full_recoveries),
                ],
                vec![
                    ("cold_start_trials".into(), r.cold_start_trials),
                    ("cold_starts_sent".into(), r.cold_starts_sent),
                    ("big_bangs".into(), r.big_bangs),
                    ("clique_reverts".into(), r.clique_reverts),
                    ("guardian_blocks".into(), r.guardian_blocks),
                    ("held_setpoint_cycles".into(), r.held_setpoint_cycles),
                    (
                        "membership_cycles".into(),
                        r.time_to_full_membership
                            .iter()
                            .map(|&l| u64::from(l))
                            .sum(),
                    ),
                    (
                        "unavailability_cycles".into(),
                        r.unavailability_cycles.iter().map(|&l| u64::from(l)).sum(),
                    ),
                ],
            )
        }
        CompiledScenario::Recovery(config) => {
            let r = run_recovery_cluster_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("masked_transient".into(), r.masked_transient),
                    ("recovered".into(), r.recovered),
                    ("retired".into(), r.retired),
                    ("false_retirement".into(), r.false_retirement),
                    ("missed_permanent".into(), r.missed_permanent),
                    ("service_lost".into(), r.service_lost),
                    ("unresolved".into(), r.unresolved),
                ],
                Vec::new(),
            )
        }
        CompiledScenario::WeaklyHard(config) => {
            let r = run_miss_pattern_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("certified".into(), r.certified_trials),
                    ("uncertified".into(), r.trials - r.certified_trials),
                    ("violating".into(), r.violating_trials),
                    ("bound_reached".into(), r.bound_reached_trials),
                ],
                vec![
                    ("certified_violations".into(), r.certified_violations),
                    ("bound_breaches".into(), r.bound_breaches),
                    ("total_misses".into(), r.total_misses),
                    (
                        "worst_window_misses".into(),
                        u64::from(r.worst_window_misses),
                    ),
                    ("total_excess_distance".into(), r.total_excess_distance),
                ],
            )
        }
        CompiledScenario::Multicore(config) => {
            let r = run_multicore_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("crash".into(), r.crash_trials),
                    ("escalated".into(), r.escalated_trials),
                ],
                vec![
                    ("lock_failed_crash".into(), r.lock_failed_crash_trials),
                    ("lock_clean_crash".into(), r.lock_clean_crash_trials),
                    ("lock_clean_escalated".into(), r.lock_clean_escalated_trials),
                    ("lock_deadlocks".into(), r.lock_deadlocks),
                    ("lock_misses".into(), r.lock_misses),
                    ("leftrs_misses".into(), r.leftrs_misses),
                    ("leftrs_deadlocks".into(), r.leftrs_deadlocks),
                    ("leftrs_clean".into(), r.leftrs_clean_trials),
                    ("leftrs_max_retries".into(), u64::from(r.leftrs_max_retries)),
                    ("retry_bound_breaches".into(), r.retry_bound_breaches),
                    ("escalation_events".into(), r.escalation_events),
                    ("uncertified_tasks".into(), r.uncertified_tasks),
                ],
            )
        }
        CompiledScenario::Node(config) => {
            let r = run_campaign(config);
            ScenarioOutcome::new(
                name,
                r.trials,
                vec![
                    ("masked".into(), r.modes.masked),
                    ("omission".into(), r.modes.omission),
                    ("fail_silent".into(), r.modes.fail_silent),
                    ("undetected".into(), r.modes.undetected),
                ],
                vec![
                    ("param_detected".into(), r.counts.detected),
                    ("param_undetected".into(), r.counts.undetected),
                    ("param_masked".into(), r.counts.masked),
                    ("param_omissions".into(), r.counts.omissions),
                    ("param_fail_silent".into(), r.counts.fail_silent),
                    ("param_benign".into(), r.counts.benign),
                    ("ecc_escaped".into(), r.ecc_escaped),
                ],
            )
        }
        CompiledScenario::Cluster(config) => {
            run_cluster_scenario(name, config, 1, &ScenarioEngineOptions::default())
                .expect("default engine options cannot fail")
        }
    }
}

/// Parses nothing, compiles nothing: runs an already-parsed scenario
/// end to end at the given thread count.
pub fn run_scenario(spec: &ScenarioSpec, threads: usize) -> Result<ScenarioOutcome, CompileError> {
    run_scenario_with(spec, threads, &ScenarioEngineOptions::default())
}

/// Engine options for the cluster-family scenario path.
///
/// Only the free-form `cluster` family honours these (the other
/// families run on the engine through their own campaign runners);
/// passing non-default options with any other family is a
/// [`CompileError`].
#[derive(Default)]
pub struct ScenarioEngineOptions<'a> {
    /// Per-trial wall-clock budget enforced by the engine watchdog
    /// (which runs the work-stealing executor even at one thread).
    pub trial_budget: Option<Duration>,
    /// Resume from a checkpoint string previously handed to
    /// `on_checkpoint`.
    pub resume: Option<String>,
    /// Checkpoint cadence in trials (0 = never).
    pub checkpoint_every: u64,
    /// Called with `(trials_done, encoded_checkpoint)` at each cadence.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<&'a dyn Fn(u64, String)>,
}

impl ScenarioEngineOptions<'_> {
    fn is_default(&self) -> bool {
        self.trial_budget.is_none()
            && self.resume.is_none()
            && self.checkpoint_every == 0
            && self.on_checkpoint.is_none()
    }
}

impl std::fmt::Debug for ScenarioEngineOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEngineOptions")
            .field("trial_budget", &self.trial_budget)
            .field("resume", &self.resume.is_some())
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .finish()
    }
}

/// [`run_scenario`] with explicit engine options for the cluster
/// family.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    threads: usize,
    opts: &ScenarioEngineOptions<'_>,
) -> Result<ScenarioOutcome, CompileError> {
    let compiled = compile(spec, threads)?;
    match &compiled {
        CompiledScenario::Cluster(config) => {
            run_cluster_scenario(&spec.name, config, threads, opts)
        }
        other => {
            if !opts.is_default() {
                return Err(CompileError {
                    scenario: spec.name.clone(),
                    message: "engine options (trial budget / checkpoint / resume) \
                              require a cluster-family scenario"
                        .to_string(),
                });
            }
            Ok(run_compiled(&spec.name, other))
        }
    }
}

/// Verdicts of the free-form cluster family in canonical order — the
/// order of [`ScenarioOutcome::verdicts`] and of checkpoint tokens.
/// Each trial gets the first that applies.
const CLUSTER_VERDICTS: [&str; 6] = [
    "undetected",
    "split_membership",
    "service_lost",
    "degraded_episode",
    "omission_only",
    "unaffected",
];

/// Metrics of the free-form cluster family in canonical order — the
/// order of [`ScenarioOutcome::metrics`] and of checkpoint tokens.
const CLUSTER_METRICS: [&str; 20] = [
    "omissions",
    "degraded_cycles",
    "injected",
    "crc_rejects",
    "guardian_blocks",
    "masquerade_rejects",
    "corruptions_applied",
    "masquerades_applied",
    "restarts",
    "retired_nodes",
    "escalations",
    "contract_misses",
    "contract_violations",
    "held_setpoint_cycles",
    "sensor_demotions",
    "actuator_trips",
    "undetected_value_failures",
    "core_deaths",
    "reintegrations",
    "reintegration_cycles",
];

/// Per-trial tallies of the free-form cluster engine, indexed like
/// [`CLUSTER_VERDICTS`] and [`CLUSTER_METRICS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ClusterTallies {
    trials: u64,
    verdicts: [u64; CLUSTER_VERDICTS.len()],
    metrics: [u64; CLUSTER_METRICS.len()],
}

impl ClusterTallies {
    fn absorb(&mut self, report: &ClusterReport, injected: u64) {
        let undetected_value = u64::from(report.value.undetected_value_failures());
        // The verdict ladder, rung for rung in CLUSTER_VERDICTS order.
        let verdict = [
            undetected_value > 0,
            report.split_membership,
            report.service_lost,
            report.degraded_cycles > 0,
            report.omissions > 0,
            true,
        ]
        .iter()
        .position(|&applies| applies)
        .expect("the last rung always applies");
        // In CLUSTER_METRICS order.
        let metrics = [
            u64::from(report.omissions),
            u64::from(report.degraded_cycles),
            injected,
            report.crc_rejects,
            report.guardian_blocks,
            report.masquerade_rejects,
            report.corruptions_applied,
            report.masquerades_applied,
            u64::from(report.restarts),
            report.retired_nodes.len() as u64,
            report.escalations.len() as u64,
            report
                .wheel_contract_misses
                .iter()
                .map(|&m| u64::from(m))
                .sum(),
            report
                .wheel_contract_violations
                .iter()
                .map(|&v| u64::from(v))
                .sum(),
            u64::from(report.value.held_setpoint_cycles),
            u64::from(report.value.sensor_demotions),
            report.value.actuator_trips.len() as u64,
            undetected_value,
            report.core_deaths.len() as u64,
            report.reintegration_latencies.len() as u64,
            report
                .reintegration_latencies
                .iter()
                .map(|&l| u64::from(l))
                .sum(),
        ];
        self.trials += 1;
        self.verdicts[verdict] += 1;
        for (total, x) in self.metrics.iter_mut().zip(metrics) {
            *total += x;
        }
    }

    fn merge(&mut self, other: &ClusterTallies) {
        self.trials += other.trials;
        for (total, x) in self.verdicts.iter_mut().zip(other.verdicts) {
            *total += x;
        }
        for (total, x) in self.metrics.iter_mut().zip(other.metrics) {
            *total += x;
        }
    }

    /// The canonical outcome of a scenario with these tallies.
    fn outcome(&self, name: &str) -> ScenarioOutcome {
        fn named(names: &[&str], values: &[u64]) -> Vec<(String, u64)> {
            names
                .iter()
                .zip(values)
                .map(|(name, &v)| (name.to_string(), v))
                .collect()
        }
        ScenarioOutcome::new(
            name,
            self.trials,
            named(&CLUSTER_VERDICTS, &self.verdicts),
            named(&CLUSTER_METRICS, &self.metrics),
        )
    }
}

/// Runs one trial of a cluster scenario: builds the cluster from the
/// declaration, attaches every fault line, runs the pedal profile.
fn run_cluster_trial(
    config: &ClusterScenarioConfig,
    root: &RngStream,
    trial: u64,
) -> (ClusterReport, u64) {
    let rng = root.fork_indexed("scenario-trial", trial);
    let mut cluster = BbwCluster::with_rng(rng.fork("pedal-sensors"));
    let spec = &config.spec;
    for &(node, kind) in &spec.nodes {
        match kind {
            NodeKind::SingleCore => {}
            NodeKind::DualCoreLock => {
                cluster.enable_dual_core(node_id(node), ProtocolKind::LockBased)
            }
            NodeKind::DualCoreLeftRs => {
                cluster.enable_dual_core(node_id(node), ProtocolKind::LeftRs)
            }
        }
    }
    if spec.startup {
        cluster.enable_startup();
    }
    if spec.supervise {
        cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
    }
    if let Some(contracts) = spec.contracts {
        let contracts = contracts.map(|(m, k)| MkContract::new(m, k));
        cluster.set_wheel_contracts(contracts);
    }
    if let Some(plan) = build_net_plan(spec).expect("plan validated at compile time") {
        cluster.attach_net_faults(plan, rng.fork("net-injector"));
    }
    for (i, fault) in spec.faults.iter().enumerate() {
        match fault {
            FaultLine::Storm { .. }
            | FaultLine::Rates { .. }
            | FaultLine::Dynamic { .. }
            | FaultLine::Blackout { .. } => {}
            FaultLine::Transient {
                node,
                cycle,
                copy,
                at,
            } => {
                cluster.inject(ClusterInjection {
                    cycle: *cycle,
                    node: node_id(*node),
                    copy: *copy,
                    at_cycle: *at,
                    fault: pc_fault(),
                });
            }
            FaultLine::StuckAtPc { node, bit } => {
                cluster.attach_stuck_at(
                    node_id(*node),
                    StuckAtFault {
                        target: FaultTarget::Pc,
                        bit: 1 << bit,
                        stuck_high: true,
                    },
                );
            }
            FaultLine::Intermittent {
                node,
                recurrence,
                burst,
            } => {
                cluster.attach_intermittent(
                    node_id(*node),
                    IntermittentFault {
                        fault: pc_fault(),
                        recurrence: *recurrence,
                        burst_jobs: *burst,
                    },
                    rng.fork_indexed("scenario-intermittent", i as u64),
                );
            }
            FaultLine::CoreDeath {
                node,
                cycle,
                escalated,
            } => {
                cluster.attach_core_death(*cycle, node_id(*node), *escalated);
            }
            FaultLine::Sensor {
                channel,
                fault,
                onset,
            } => {
                let fault = match *fault {
                    SensorFaultSpec::StuckAt(v) => SensorFault::StuckAt(v),
                    SensorFaultSpec::Offset(v) => SensorFault::Offset(v),
                    SensorFaultSpec::Drift(per_cycle) => SensorFault::Drift { per_cycle },
                    SensorFaultSpec::Noise { amplitude, cycles } => {
                        SensorFault::NoiseBurst { amplitude, cycles }
                    }
                };
                cluster.attach_sensor_fault(*channel as usize, fault, *onset);
            }
            FaultLine::Actuator {
                wheel,
                fault,
                onset,
            } => {
                let fault = match *fault {
                    ActuatorFaultSpec::Stuck => ActuatorFault::Stuck,
                    ActuatorFaultSpec::Runaway { step } => ActuatorFault::Runaway { step },
                    ActuatorFaultSpec::Offset(v) => ActuatorFault::Offset(v),
                };
                cluster.attach_actuator_fault(*wheel as usize, fault, *onset);
            }
            FaultLine::Silence { node, cycles } => {
                cluster.silence_node(node_id(*node), *cycles);
            }
        }
    }
    let report = match spec.pedal {
        PedalSpec::Constant(v) => cluster.run(spec.cycles, move |_| v),
        PedalSpec::Ramp { base, slope, max } => cluster.run(spec.cycles, move |cycle| {
            base.saturating_add(slope.saturating_mul(cycle)).min(max)
        }),
    };
    let injected = cluster.net_injection_counts().total();
    (report, injected)
}

/// Runs a cluster scenario on the campaign engine. Every trial forks
/// its own labelled stream off the scenario seed and block partials are
/// folded in block order, so the outcome — digest included — is
/// identical for any thread count and across a checkpoint/resume split.
fn run_cluster_scenario(
    name: &str,
    config: &ClusterScenarioConfig,
    threads: usize,
    opts: &ScenarioEngineOptions<'_>,
) -> Result<ScenarioOutcome, CompileError> {
    let c = config.clone();
    let root = RngStream::new(config.seed);
    let campaign = nlft_engine::indexed_campaign(
        "bbw-cluster-scenario",
        "scenario-trial",
        config.trials,
        ClusterTallies::default,
        move |trial, _ctx, tallies: &mut ClusterTallies| {
            let (report, injected) = run_cluster_trial(&c, &root, trial);
            tallies.absorb(&report, injected);
        },
        |into: &mut ClusterTallies, from| into.merge(&from),
    );
    let engine = EngineConfig {
        workers: threads.max(1),
        trial_budget: opts.trial_budget,
        checkpoint_every: opts.checkpoint_every,
        ..EngineConfig::default()
    };
    let resume = opts
        .resume
        .as_deref()
        .map(checkpoint::decode::<ResumePoint<ClusterTallies>>)
        .transpose()
        .map_err(|e| CompileError {
            scenario: name.to_string(),
            message: format!("bad resume checkpoint: {e}"),
        })?;
    #[allow(clippy::type_complexity)]
    let encode_cb: Option<Box<dyn Fn(u64, &ClusterTallies)>> = opts.on_checkpoint.map(|f| {
        Box::new(move |done: u64, acc: &ClusterTallies| {
            let point = ResumePoint {
                trials_done: done,
                acc: *acc,
            };
            f(done, checkpoint::encode(&point));
        }) as _
    });
    let options = CampaignOptions {
        resume,
        on_checkpoint: encode_cb.as_deref(),
    };
    let run = nlft_engine::run_trials_with(campaign, &engine, options);
    Ok(run.acc.outcome(name))
}

impl Checkpoint for ClusterTallies {
    fn encode(&self) -> String {
        let mut out = String::from("cluster-tallies");
        checkpoint::push_u64(&mut out, self.trials);
        for &x in self.verdicts.iter().chain(&self.metrics) {
            checkpoint::push_u64(&mut out, x);
        }
        out
    }

    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String> {
        reader.expect_tag("cluster-tallies")?;
        let mut tallies = ClusterTallies {
            trials: reader.next_u64()?,
            ..ClusterTallies::default()
        };
        for slot in tallies.verdicts.iter_mut().chain(&mut tallies.metrics) {
            *slot = reader.next_u64()?;
        }
        Ok(tallies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_reliability::scenario::parse_scenario;

    fn spec(source: &str) -> ScenarioSpec {
        parse_scenario(source).expect("test scenario parses")
    }

    #[test]
    fn net_storm_scenario_matches_hand_wired_campaign() {
        // The golden-pinned configuration from `cluster_campaign`:
        // 10 trials, seed 0x5708, 20 cycles.
        let spec = spec(
            "scenario storm\nfamily net_storm\ntrials 10\nseed 0x5708\n\
             params\ncycles 20\nend\nend\n",
        );
        let outcome = run_scenario(&spec, 1).unwrap();
        let mut config = NetStormCampaignConfig::new(10, 0x5708);
        config.cycles = 20;
        let direct = run_net_storm_campaign(&config);
        assert_eq!(
            outcome.counter("service_lost"),
            Some(direct.outcomes.service_lost)
        );
        assert_eq!(
            outcome.counter("degraded_episode"),
            Some(direct.outcomes.degraded_episode)
        );
        assert_eq!(outcome.counter("injected"), Some(direct.injected.total()));
    }

    #[test]
    fn outcome_is_thread_invariant() {
        let spec = spec(
            "scenario threads\nfamily cluster\ntrials 5\nseed 0xfeed\n\
             topology\ncycles 12\nend\nfaults\nstorm 0.4\nend\nend\n",
        );
        let one = run_scenario(&spec, 1).unwrap();
        let two = run_scenario(&spec, 2).unwrap();
        let five = run_scenario(&spec, 5).unwrap();
        assert_eq!(one, two);
        assert_eq!(one, five);
    }

    #[test]
    fn accept_clause_checks_counters_and_pin() {
        let source = "scenario a\nfamily recovery\ntrials 4\nseed 0x11\n\
             accept\nrequire_zero missed_permanent\nmax service_lost 4\nend\nend\n";
        let s = spec(source);
        let outcome = run_scenario(&s, 1).unwrap();
        assert!(check_accept(&s, &outcome).is_empty());
        let mut pinned = s.clone();
        pinned.accept.pin = Some(outcome.digest ^ 1);
        let failures = check_accept(&pinned, &outcome);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("does not match pin"), "{failures:?}");
    }

    #[test]
    fn compile_rejects_core_death_on_single_core_node() {
        let s = spec(
            "scenario bad\nfamily cluster\ntrials 1\nseed 1\n\
             faults\ncore_death wheel_fl 5\nend\nend\n",
        );
        let e = compile(&s, 1).unwrap_err();
        assert!(e.message.contains("dual-core"), "{e}");
    }

    #[test]
    fn compile_rejects_zero_trials() {
        let s = spec("scenario z\nfamily recovery\ntrials 0\nseed 1\nend\n");
        assert!(compile(&s, 1).is_err());
    }

    #[test]
    fn cluster_scenario_exercises_every_fault_line() {
        let s = spec(
            "scenario all-lines\nfamily cluster\ntrials 2\nseed 0xabc\n\
             topology\ncycles 24\npedal ramp 400 60 3000\n\
             node wheel_fl dual_core_left_rs\nstartup off\nsupervise on\nend\n\
             faults\n\
             storm 0.2 from 4 until 12\n\
             rates cu_b babble 0.1\n\
             dynamic 0.05 0.05\n\
             blackout 14 2 1 wheel_rr\n\
             transient wheel_rl 6 0 20\n\
             stuck_at wheel_fr 20\n\
             intermittent cu_a 0.5 6\n\
             core_death wheel_fl 8 escalated\n\
             sensor 0 drift 3 onset 5\n\
             actuator 2 runaway 50 onset 6\n\
             silence cu_b 3\n\
             end\n\
             contracts\nwheel fl 2 8\nend\nend\n",
        );
        let outcome = run_scenario(&s, 1).unwrap();
        assert_eq!(outcome.trials, 2);
        let total: u64 = outcome.verdicts.iter().map(|&(_, v)| v).sum();
        assert_eq!(total, 2, "each trial gets exactly one verdict");
    }

    #[test]
    fn cluster_tallies_checkpoint_format_is_stable() {
        // The token order checkpoint files have always used: trials,
        // the six verdicts, the twenty metrics — 27 u64s in all.
        let text = "resume 12 cluster-tallies 12 1 2 3 4 1 1 \
                    7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26";
        let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
        let point: ResumePoint<ClusterTallies> =
            checkpoint::decode(&text).expect("checkpoint decodes");
        assert_eq!(point.trials_done, 12);
        assert_eq!(checkpoint::encode(&point), text, "re-encoding moved bytes");
        let outcome = point.acc.outcome("stable");
        assert_eq!(outcome.trials, 12);
        assert_eq!(outcome.counter("undetected"), Some(1));
        assert_eq!(outcome.counter("unaffected"), Some(1));
        assert_eq!(outcome.counter("omissions"), Some(7));
        assert_eq!(outcome.counter("reintegration_cycles"), Some(26));
        let (truncated, _) = text.rsplit_once(' ').expect("several tokens");
        assert!(checkpoint::decode::<ResumePoint<ClusterTallies>>(truncated).is_err());
        assert!(checkpoint::decode::<ResumePoint<ClusterTallies>>(&format!("{text} 27")).is_err());
    }
}
