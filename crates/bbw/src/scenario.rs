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
use nlft_engine::checkpoint;
use nlft_engine::{CampaignOptions, EngineConfig, ResumePoint, Tally};
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
use crate::cluster::{
    check_run_cycles, BbwCluster, ClusterInjection, ClusterReport, CU_A, CU_B, WHEELS,
};
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
    /// The outcome of a scenario whose family folded `counts`: every
    /// counter under its declared name, in declaration order.
    fn new(name: &str, counts: &impl Tally) -> Self {
        let named =
            |pairs: Vec<(&str, u64)>| pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let mut outcome = ScenarioOutcome {
            name: name.to_string(),
            trials: counts.trials(),
            verdicts: named(counts.verdicts()),
            metrics: named(counts.metrics()),
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
/// revalidating every rate through the injectors' typed constructors and
/// the configuration through its family's `check`, so whatever compiles
/// runs without panicking. `threads` is the worker count for families
/// that shard (the outcome itself is thread-count invariant).
pub fn compile(spec: &ScenarioSpec, threads: usize) -> Result<CompiledScenario, CompileError> {
    let fail = |message: String| CompileError {
        scenario: spec.name.clone(),
        message,
    };
    let compiled = match &spec.params {
        FamilyParams::NetStorm {
            cycles,
            intensity,
            node_faults,
        } => {
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
            let mut config = MissPatternCampaignConfig::nominal(spec.trials, spec.seed);
            config.horizon_jobs = *horizon_jobs;
            config.contract =
                MkContract::try_new(*max_misses, *window).map_err(|e| fail(e.to_string()))?;
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
        FamilyParams::Cluster(cluster) => CompiledScenario::Cluster(ClusterScenarioConfig {
            trials: spec.trials,
            seed: spec.seed,
            spec: cluster.clone(),
        }),
    };
    compiled.check().map_err(fail)?;
    Ok(compiled)
}

impl CompiledScenario {
    /// The family configuration's own validity check — the one its
    /// runner panics on.
    fn check(&self) -> Result<(), String> {
        match self {
            CompiledScenario::NetStorm(config) => config.check(),
            CompiledScenario::ValueDomain(config) => config.check(),
            CompiledScenario::Blackout(config) => config.check(),
            CompiledScenario::Recovery(config) => config.check(),
            CompiledScenario::WeaklyHard(config) => config.check(),
            CompiledScenario::Multicore(config) => config.check(),
            CompiledScenario::Node(config) => config.check(),
            CompiledScenario::Cluster(config) => config.check(),
        }
    }
}

impl ClusterScenarioConfig {
    /// Checks that the scenario can run: trials, `2..=MAX_CYCLES` cycles,
    /// and every fault line valid — the net-fault plan dry-built through the
    /// injectors' typed constructors.
    pub fn check(&self) -> Result<(), String> {
        let cluster = &self.spec;
        if self.trials == 0 {
            return Err("need trials".into());
        }
        if cluster.cycles < 2 {
            return Err("cluster needs at least 2 cycles".into());
        }
        check_run_cycles("cluster", u64::from(cluster.cycles))?;
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
        Ok(())
    }
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

/// Runs a compiled scenario and reduces its family's counters to the
/// canonical [`ScenarioOutcome`].
///
/// # Panics
///
/// Panics if the configuration fails its family's `check` — impossible
/// for one [`compile`] returned.
pub fn run_compiled(name: &str, compiled: &CompiledScenario) -> ScenarioOutcome {
    match compiled {
        CompiledScenario::NetStorm(c) => {
            ScenarioOutcome::new(name, &run_net_storm_campaign(c).counts)
        }
        CompiledScenario::ValueDomain(c) => {
            ScenarioOutcome::new(name, &run_value_domain_campaign(c))
        }
        CompiledScenario::Blackout(c) => {
            ScenarioOutcome::new(name, &run_blackout_campaign(c).counts)
        }
        CompiledScenario::Recovery(c) => {
            ScenarioOutcome::new(name, &run_recovery_cluster_campaign(c))
        }
        CompiledScenario::WeaklyHard(c) => {
            ScenarioOutcome::new(name, &run_miss_pattern_campaign(c).counts)
        }
        CompiledScenario::Multicore(c) => {
            ScenarioOutcome::new(name, &run_multicore_campaign(c).counts)
        }
        CompiledScenario::Node(c) => ScenarioOutcome::new(name, &run_campaign(c).counts),
        CompiledScenario::Cluster(c) => {
            run_cluster_scenario(name, c, 1, &ScenarioEngineOptions::default())
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

nlft_engine::tally! {
    /// Per-trial tallies of the free-form cluster engine. Each trial
    /// gets the first verdict that applies.
    struct ClusterTallies: "cluster-tallies" {
        verdicts {
            /// At least one silent value failure.
            undetected,
            /// Membership majority lost at some point.
            split_membership,
            /// Braking service lost.
            service_lost,
            /// Membership shrank and force was redistributed.
            degraded_episode,
            /// Slots were lost but membership never shrank.
            omission_only,
            /// No externally visible trace.
            unaffected,
        }
        metrics {
            /// Omitted slots.
            omissions,
            /// Cycles in degraded mode.
            degraded_cycles,
            /// Network injection decisions, all kinds.
            injected,
            /// Frames the CRC rejected.
            crc_rejects,
            /// Babbling transmissions the guardian blocked.
            guardian_blocks,
            /// Forged frames the identity check rejected.
            masquerade_rejects,
            /// Corruptions that landed on a transmitted frame.
            corruptions_applied,
            /// Masquerades that landed on a transmitted frame.
            masquerades_applied,
            /// Supervisor restarts.
            restarts,
            /// Nodes retired.
            retired_nodes,
            /// Escalation-ladder events.
            escalations,
            /// Wheel (m,k) contract misses.
            contract_misses,
            /// Wheel (m,k) contract violations.
            contract_violations,
            /// Cycles wheels braked on a held last-safe set-point.
            held_setpoint_cycles,
            /// Pedal channels demoted.
            sensor_demotions,
            /// Actuator monitors tripped.
            actuator_trips,
            /// Silent value failures.
            undetected_value_failures,
            /// Core deaths.
            core_deaths,
            /// Exclusion→readmission episodes.
            reintegrations,
            /// Their latencies summed, in cycles.
            reintegration_cycles,
        }
    }
}

impl ClusterTallies {
    fn absorb(&mut self, report: &ClusterReport, injected: u64) {
        let undetected_value = u64::from(report.value.undetected_value_failures());
        self.trials += 1;
        if undetected_value > 0 {
            self.undetected += 1;
        } else if report.split_membership {
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
        let sum = |xs: &[u32]| xs.iter().map(|&x| u64::from(x)).sum::<u64>();
        self.omissions += u64::from(report.omissions);
        self.degraded_cycles += u64::from(report.degraded_cycles);
        self.injected += injected;
        self.crc_rejects += report.crc_rejects;
        self.guardian_blocks += report.guardian_blocks;
        self.masquerade_rejects += report.masquerade_rejects;
        self.corruptions_applied += report.corruptions_applied;
        self.masquerades_applied += report.masquerades_applied;
        self.restarts += u64::from(report.restarts);
        self.retired_nodes += report.retired_nodes.len() as u64;
        self.escalations += report.escalations.len() as u64;
        self.contract_misses += sum(&report.wheel_contract_misses);
        self.contract_violations += sum(&report.wheel_contract_violations);
        self.held_setpoint_cycles += u64::from(report.value.held_setpoint_cycles);
        self.sensor_demotions += u64::from(report.value.sensor_demotions);
        self.actuator_trips += report.value.actuator_trips.len() as u64;
        self.undetected_value_failures += undetected_value;
        self.core_deaths += report.core_deaths.len() as u64;
        self.reintegrations += report.reintegration_latencies.len() as u64;
        self.reintegration_cycles += sum(&report.reintegration_latencies);
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
///
/// # Panics
///
/// Panics if [`ClusterScenarioConfig::check`] rejects the config.
fn run_cluster_scenario(
    name: &str,
    config: &ClusterScenarioConfig,
    threads: usize,
    opts: &ScenarioEngineOptions<'_>,
) -> Result<ScenarioOutcome, CompileError> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
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
    Ok(ScenarioOutcome::new(name, &run.acc))
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
            Some(direct.counts.service_lost)
        );
        assert_eq!(
            outcome.counter("degraded_episode"),
            Some(direct.counts.degraded_episode)
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
    fn compile_rejects_every_config_its_runner_would_panic_on() {
        // Each of these parses, and each once compiled only to trip a
        // runner assertion or, with a huge cycle count, to abort the
        // process on the per-cycle record allocation.
        let cases = [
            ("weakly_hard", "params\nhorizon_jobs 4\ncontract 2 8"),
            ("weakly_hard", "params\ninterval 0 10"),
            ("value_domain", "params\ncycles 3"),
            ("multicore", "params\nhorizon 2"),
            ("blackout", "params\nwarmup 1"),
            ("blackout", "params\nrecovery 0"),
            ("blackout", "params\nmin_reset 9"),
            ("net_storm", "params\ncycles 4294967295"),
            ("value_domain", "params\ncycles 4294967295"),
            ("recovery", "params\ncycles 4294967295"),
            ("cluster", "topology\ncycles 4294967295"),
            ("blackout", "params\nwarmup 4294967295\nrecovery 4294967295"),
        ];
        for (family, section) in cases {
            let s = spec(&format!(
                "scenario bad\nfamily {family}\ntrials 2\nseed 1\n{section}\nend\nend\n"
            ));
            let e = compile(&s, 1).expect_err(section);
            assert_eq!(e.scenario, "bad");
        }
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
        let outcome = ScenarioOutcome::new("stable", &point.acc);
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
