//! Compiling scenario files onto the executable campaign runners.
//!
//! The parser half of the scenario DSL lives in
//! [`nlft_reliability::scenario`] (this crate has the heavier
//! dependencies, so the compiler lives here): a [`ScenarioSpec`] is
//! compiled through the typed `try_*` constructors of the injector
//! crates into a [`CompiledScenario`] — one of the existing campaign
//! configurations, or a free-form cluster scenario driven by its own
//! per-trial engine, plus the worker count to run it at.
//!
//! Every family runs on one path: its campaign folds only the family's
//! `tally!` counters — the outcome reports nothing else — and one
//! runner resumes it from a checkpoint, streams new checkpoints, and
//! reduces the counters to a [`ScenarioOutcome`]. Every trial's stream
//! is forked as `fork_indexed(label, trial)` off the scenario seed, so
//! running a scenario at 1, 2 or 5 threads, or across a
//! checkpoint/resume split, yields a bit-identical outcome — including
//! its CRC-32 `digest`, which the zoo's `accept … pin` clauses
//! golden-pin in CI.

use nlft_core::campaign::{node_campaign, CampaignConfig, CampaignCounts};
use nlft_core::diagnosis::AlphaCountConfig;
use nlft_core::multicore_campaign::{multicore_campaign, MulticoreCampaignConfig, MulticoreCounts};
use nlft_core::policy::NodePolicy;
use nlft_engine::checkpoint::TokenReader;
use nlft_engine::{
    Absorb, CampaignOptions, Checkpoint, EngineConfig, ResumePoint, Tally, TrialCampaign,
};
use nlft_kernel::contract::MkContract;
use nlft_kernel::escalation::EscalationPolicy;
use nlft_kernel::resources::ProtocolKind;
use nlft_machine::fault::{FaultTarget, IntermittentFault, StuckAtFault};
use nlft_net::frame::NodeId;
use nlft_net::inject::{BlackoutSpec, NetFaultPlan, NetFaultRates};
use nlft_reliability::scenario::{
    format_scenario, AcceptSpec, ActuatorFaultSpec, ClusterSpec, FamilyParams, FaultLine, NodeKind,
    NodeName, PedalSpec, ScenarioSpec, SensorFaultSpec,
};
use nlft_sim::crc::crc32;
use nlft_sim::rng::RngStream;

use crate::actuator::ActuatorFault;
use crate::blackout::{blackout_campaign, BlackoutCampaignConfig, BlackoutCounts};
use crate::braking::MissPolicy;
use crate::cluster::{
    check_run_cycles, pc_fault, BbwCluster, ClusterInjection, ClusterReport, ALL_NODES, CU_A, CU_B,
    WHEELS,
};
use crate::cluster_campaign::{net_storm_campaign, NetStormCampaignConfig, NetStormCounts};
use crate::recovery::{recovery_cluster_campaign, RecoveryClusterCampaignConfig};
use crate::sensor::SensorFault;
use crate::value_campaign::{value_domain_campaign, ValueDomainCampaignConfig};
use crate::weakly_hard_campaign::{
    miss_pattern_campaign, MissPatternCampaignConfig, MissPatternCounts,
};

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

/// Why [`run_scenario_with`] returned no outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The scenario does not compile onto its runner.
    Compile(CompileError),
    /// The resume checkpoint does not continue this scenario.
    Resume {
        /// The scenario's name.
        scenario: String,
        /// Why the checkpoint was rejected.
        message: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Compile(e) => e.fmt(f),
            RunError::Resume { scenario, message } => {
                write!(f, "scenario `{scenario}`: bad resume checkpoint: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// A scenario compiled onto its concrete runner configuration.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The family's runner configuration.
    pub family: CompiledFamily,
    /// Workers the runner spreads its trials over; the outcome is the
    /// same for any count.
    pub workers: usize,
}

/// A family's concrete runner configuration.
#[derive(Debug, Clone)]
pub enum CompiledFamily {
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
    /// A free-form cluster scenario run by this module's engine. Boxed:
    /// it is the largest config, and out of line it keeps a
    /// `CompiledScenario` within the 128 bytes the compiler moves
    /// without a `memcpy` call.
    Cluster(Box<ClusterScenarioConfig>),
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
pub(crate) type AcceptFailure = String;

/// Checks a scenario's acceptance clause against its outcome. Returns
/// the list of violated assertions (empty = accepted). An outcome that
/// folded fewer trials than the spec asks for (a trial that panics is
/// dropped from the fold) always fails, whatever the clause says.
pub fn check_accept(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Vec<AcceptFailure> {
    let mut failures = Vec::new();
    if outcome.trials != spec.trials {
        failures.push(format!(
            "trials: folded {} of {}",
            outcome.trials, spec.trials
        ));
    }
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

/// Compiles a parsed scenario onto its concrete runner configuration,
/// revalidating every rate through the injectors' typed constructors and
/// the configuration through its family's `check`, so whatever compiles
/// runs without panicking. Each family starts from its campaign's stock
/// constructor and takes the scenario's parameters over it. `workers`
/// is stored on the result for [`run_compiled`]; the outcome itself
/// does not depend on it.
pub fn compile(spec: &ScenarioSpec, workers: usize) -> Result<CompiledScenario, CompileError> {
    let fail = |message: String| CompileError {
        scenario: spec.name.clone(),
        message,
    };
    let (trials, seed) = (spec.trials, spec.seed);
    let family = match &spec.params {
        &FamilyParams::NetStorm {
            cycles,
            intensity,
            node_faults,
        } => CompiledFamily::NetStorm(NetStormCampaignConfig {
            cycles,
            intensity,
            with_node_faults: node_faults,
            ..NetStormCampaignConfig::new(trials, seed)
        }),
        &FamilyParams::ValueDomain {
            cycles,
            combined,
            net_intensity,
        } => {
            let stock = if combined {
                ValueDomainCampaignConfig::combined_storm(trials, seed)
            } else {
                ValueDomainCampaignConfig::single_fault(trials, seed)
            };
            CompiledFamily::ValueDomain(ValueDomainCampaignConfig {
                cycles,
                net_intensity,
                ..stock
            })
        }
        &FamilyParams::Blackout {
            warmup,
            recovery,
            down,
            stagger,
            min_reset,
            include_cus,
        } => CompiledFamily::Blackout(BlackoutCampaignConfig {
            warmup_cycles: warmup,
            recovery_cycles: recovery,
            down_cycles: down,
            stagger,
            min_reset: min_reset as usize,
            include_cus,
            ..BlackoutCampaignConfig::new(trials, seed)
        }),
        &FamilyParams::Recovery { cycles } => {
            CompiledFamily::Recovery(RecoveryClusterCampaignConfig {
                cycles,
                ..RecoveryClusterCampaignConfig::new(trials, seed)
            })
        }
        &FamilyParams::WeaklyHard {
            horizon_jobs,
            max_misses,
            window,
            interval_lo,
            interval_hi,
            zero_force,
        } => CompiledFamily::WeaklyHard(MissPatternCampaignConfig {
            horizon_jobs,
            contract: MkContract::try_new(max_misses, window).map_err(|e| fail(e.to_string()))?,
            fault_interval_us: (interval_lo, interval_hi),
            policy: if zero_force {
                MissPolicy::ZeroForce
            } else {
                MissPolicy::HoldLast
            },
            ..MissPatternCampaignConfig::nominal(trials, seed)
        }),
        &FamilyParams::Multicore {
            cores,
            horizon,
            escalated_p,
        } => CompiledFamily::Multicore(MulticoreCampaignConfig {
            cores,
            horizon,
            escalated_p,
            ..MulticoreCampaignConfig::new(trials, seed)
        }),
        &FamilyParams::Node { lightweight_nlft } => {
            let policy = if lightweight_nlft {
                NodePolicy::LightweightNlft
            } else {
                NodePolicy::FailSilent
            };
            CompiledFamily::Node(CampaignConfig::new(trials, seed, policy))
        }
        FamilyParams::Cluster(cluster) => {
            CompiledFamily::Cluster(Box::new(ClusterScenarioConfig {
                trials,
                seed,
                spec: cluster.clone(),
            }))
        }
    };
    family.check().map_err(fail)?;
    Ok(CompiledScenario { family, workers })
}

impl CompiledFamily {
    /// The family configuration's own validity check — the one its
    /// runner panics on.
    fn check(&self) -> Result<(), String> {
        match self {
            CompiledFamily::NetStorm(config) => config.check(),
            CompiledFamily::ValueDomain(config) => config.check(),
            CompiledFamily::Blackout(config) => config.check(),
            CompiledFamily::Recovery(config) => config.check(),
            CompiledFamily::WeaklyHard(config) => config.check(),
            CompiledFamily::Multicore(config) => config.check(),
            CompiledFamily::Node(config) => config.check(),
            CompiledFamily::Cluster(config) => config.check(),
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

/// Runs a compiled scenario at its worker count and reduces its
/// family's counters to the canonical [`ScenarioOutcome`].
///
/// # Panics
///
/// Panics if the configuration fails its family's `check` — impossible
/// for one [`compile`] returned.
pub fn run_compiled(name: &str, compiled: &CompiledScenario) -> ScenarioOutcome {
    let engine = EngineConfig::with_workers(compiled.workers);
    let run = ScenarioRun {
        name,
        engine,
        ..ScenarioRun::default()
    };
    run.family(&compiled.family)
        .expect("a run with no resume point cannot fail")
}

/// Parses nothing, compiles nothing: runs an already-parsed scenario
/// end to end at the given thread count.
pub fn run_scenario(spec: &ScenarioSpec, threads: usize) -> Result<ScenarioOutcome, CompileError> {
    Ok(run_compiled(&spec.name, &compile(spec, threads)?))
}

/// [`run_scenario`] on an explicit engine configuration — workers,
/// trial budget and checkpoint cadence — for any family. `resume`
/// continues from a checkpoint of this scenario; `on_checkpoint` is
/// called with `(trials_done, checkpoint)` every
/// `engine.checkpoint_every` folded trials. A checkpoint starts with a
/// header naming its scenario, family, seed and trial count and a CRC-32
/// of the scenario's canonical text; a resume checkpoint whose header
/// does not match this scenario, or one that disagrees with itself, is
/// a [`RunError::Resume`].
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    engine: &EngineConfig,
    resume: Option<&str>,
    on_checkpoint: Option<&dyn Fn(u64, String)>,
) -> Result<ScenarioOutcome, RunError> {
    let compiled = compile(spec, engine.workers).map_err(RunError::Compile)?;
    let run = ScenarioRun {
        name: &spec.name,
        engine: engine.clone(),
        // A plain run neither formats nor hashes the spec: that would
        // cost more than a whole weakly-hard trial.
        header: if resume.is_some() || on_checkpoint.is_some() {
            checkpoint_header(spec)
        } else {
            String::new()
        },
        resume,
        sink: on_checkpoint,
    };
    run.family(&compiled.family)
        .map_err(|message| RunError::Resume {
            scenario: spec.name.clone(),
            message,
        })
}

/// The header that binds a checkpoint to its scenario: `field value`
/// pairs naming the scenario, its family, seed and trial count, then a
/// CRC-32 of its canonical text with the accept clause cleared — an
/// edited acceptance check keeps a checkpoint valid, an edit to
/// anything that runs does not.
fn checkpoint_header(spec: &ScenarioSpec) -> String {
    let mut runs = spec.clone();
    runs.accept = AcceptSpec::default();
    format!(
        "scenario {} family {} seed {} trials {} config {:08x}",
        spec.name,
        spec.params.family(),
        spec.seed,
        spec.trials,
        crc32(format_scenario(&runs).as_bytes())
    )
}

/// One scenario run: its engine and its checkpoint traffic.
#[derive(Default)]
struct ScenarioRun<'a> {
    /// The scenario's name.
    name: &'a str,
    engine: EngineConfig,
    /// [`checkpoint_header`] of the scenario; empty when there is no
    /// checkpoint traffic.
    header: String,
    /// The checkpoint to resume from.
    resume: Option<&'a str>,
    /// Where new checkpoints go.
    sink: Option<&'a dyn Fn(u64, String)>,
}

/// A family's `finish` step when it has none.
fn keep<A>(_: &mut A) {}

impl ScenarioRun<'_> {
    /// Runs a family's campaign, folding only its counters. Fails only
    /// on a bad resume checkpoint.
    fn family(&self, family: &CompiledFamily) -> Result<ScenarioOutcome, String> {
        match family {
            CompiledFamily::NetStorm(c) => self.fold(net_storm_campaign::<NetStormCounts>(c), keep),
            CompiledFamily::ValueDomain(c) => self.fold(value_domain_campaign(c), keep),
            CompiledFamily::Blackout(c) => self.fold(blackout_campaign::<BlackoutCounts>(c), keep),
            CompiledFamily::Recovery(c) => self.fold(recovery_cluster_campaign(c), keep),
            CompiledFamily::WeaklyHard(c) => {
                self.fold(miss_pattern_campaign::<MissPatternCounts>(c), keep)
            }
            // Certification is no trial's work: it joins the counts once,
            // after the fold, so no checkpoint carries it.
            CompiledFamily::Multicore(c) => self
                .fold(multicore_campaign::<MulticoreCounts>(c), |n| {
                    _ = n.certify(c.cores)
                }),
            CompiledFamily::Node(c) => self.fold(node_campaign::<CampaignCounts>(c), keep),
            CompiledFamily::Cluster(c) => self.fold(cluster_scenario_campaign(c), keep),
        }
    }

    /// Runs `campaign` from the resume point, if any, streaming
    /// checkpoints to the sink, then applies `finish` once to the folded
    /// counters and reduces them to the outcome.
    fn fold<C>(
        &self,
        campaign: C,
        finish: impl FnOnce(&mut C::Acc),
    ) -> Result<ScenarioOutcome, String>
    where
        C: TrialCampaign + Send + Sync + 'static,
        C::Acc: Tally + Copy,
    {
        let resume = self.resume_point(campaign.trials())?;
        let save = self.sink.map(|sink| {
            move |done, acc: &C::Acc| {
                let point = ResumePoint {
                    trials_done: done,
                    acc: *acc,
                };
                sink(done, format!("{} {}", self.header, point.encode()));
            }
        });
        let options = CampaignOptions {
            resume,
            on_checkpoint: save.as_ref().map(|f| f as &dyn Fn(u64, &C::Acc)),
        };
        let mut counts = nlft_engine::run_trials_with(campaign, &self.engine, options).acc;
        finish(&mut counts);
        Ok(ScenarioOutcome::new(self.name, &counts))
    }

    /// Decodes the resume checkpoint, if any, and rejects one whose
    /// header does not name this scenario or that does not agree with
    /// itself or with a run of `trials` trials: its prefix must fit the
    /// run, its counters must count no more trials than that prefix,
    /// and — since every counted trial gets exactly one ladder verdict
    /// — its ladder verdicts must sum to the counted trials. The
    /// counters may count fewer trials than the prefix: a trial that
    /// panics or overruns its budget is left out of them, yet the
    /// prefix it belongs to still ends past it.
    fn resume_point<A: Tally>(&self, trials: u64) -> Result<Option<ResumePoint<A>>, String> {
        let Some(text) = self.resume else {
            return Ok(None);
        };
        let mut reader = TokenReader::new(text);
        let mut expected = self.header.split_whitespace();
        while let (Some(field), Some(value)) = (expected.next(), expected.next()) {
            reader.expect_tag(field)?;
            let found = reader.next_token()?;
            if found != value {
                return Err(format!(
                    "checkpoint {field} `{found}` is not this scenario's `{value}`"
                ));
            }
        }
        let point = ResumePoint::<A>::decode(&mut reader)?;
        reader.finish()?;
        let (done, counted) = (point.trials_done, point.acc.trials());
        if done > trials {
            return Err(format!(
                "resumes at trial {done} of a {trials}-trial scenario"
            ));
        }
        if counted > done {
            return Err(format!(
                "tallies count {counted} trials but resume at trial {done}"
            ));
        }
        let verdicts = point.acc.ladder_total();
        if verdicts != u128::from(counted) {
            return Err(format!("verdicts sum to {verdicts} over {counted} trials"));
        }
        Ok(Some(point))
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

/// What one cluster-scenario trial observed: the cluster report and the
/// network injection decisions, all kinds.
type ClusterTrial = (ClusterReport, u64);

impl Absorb<ClusterTrial> for ClusterTallies {
    fn absorb(&mut self, _: u64, (report, injected): &ClusterTrial) {
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

    fn merge(&mut self, later: ClusterTallies) {
        Tally::merge(self, &later)
    }
}

/// Runs one trial of a cluster scenario: builds the cluster from the
/// declaration, attaches every fault line, runs the pedal profile.
fn run_cluster_trial(config: &ClusterScenarioConfig, rng: RngStream) -> ClusterTrial {
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

/// The cluster scenario's campaign. Every trial forks its own labelled
/// stream off the scenario seed and block partials are folded in block
/// order, so the tallies are identical for any thread count and across
/// a checkpoint/resume split.
///
/// # Panics
///
/// Panics if [`ClusterScenarioConfig::check`] rejects the config.
fn cluster_scenario_campaign(
    config: &ClusterScenarioConfig,
) -> impl TrialCampaign<Acc = ClusterTallies> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let c = config.clone();
    nlft_engine::absorbing_campaign(
        "bbw-cluster-scenario",
        "scenario-trial",
        config.trials,
        config.seed,
        move |_, rng| run_cluster_trial(&c, rng),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackout::run_blackout_campaign;
    use crate::cluster_campaign::run_net_storm_campaign;
    use crate::recovery::run_recovery_cluster_campaign;
    use crate::value_campaign::run_value_domain_campaign;
    use crate::weakly_hard_campaign::run_miss_pattern_campaign;
    use nlft_core::campaign::run_campaign;
    use nlft_core::multicore_campaign::run_multicore_campaign;
    use nlft_engine::checkpoint;
    use nlft_reliability::scenario::parse_scenario;
    use std::time::Duration;

    fn spec(source: &str) -> ScenarioSpec {
        parse_scenario(source).expect("test scenario parses")
    }

    #[test]
    fn every_scenario_counts_what_its_public_runner_counts() {
        // One observation per trial feeds both accumulators: a scenario's
        // counters and the public result's `counts` must agree at the
        // same config. The net-storm row is the golden-pinned
        // configuration from `cluster_campaign`: 10 trials, seed 0x5708,
        // 20 cycles.
        let engine = EngineConfig::default();
        for (family, trials, params) in [
            ("net_storm", 10, "params\ncycles 20\nend\n"),
            ("value_domain", 4, ""),
            ("blackout", 4, ""),
            ("recovery", 4, ""),
            ("weakly_hard", 40, ""),
            ("multicore", 6, ""),
            ("node", 40, ""),
        ] {
            let spec = spec(&format!(
                "scenario {family}\nfamily {family}\ntrials {trials}\nseed 0x5708\n{params}end\n"
            ));
            let compiled = compile(&spec, 1).unwrap();
            let direct = match &compiled.family {
                CompiledFamily::NetStorm(c) => {
                    ScenarioOutcome::new(family, &run_net_storm_campaign(c, &engine).counts)
                }
                CompiledFamily::ValueDomain(c) => {
                    ScenarioOutcome::new(family, &run_value_domain_campaign(c, &engine))
                }
                CompiledFamily::Blackout(c) => {
                    ScenarioOutcome::new(family, &run_blackout_campaign(c, &engine).counts)
                }
                CompiledFamily::Recovery(c) => {
                    ScenarioOutcome::new(family, &run_recovery_cluster_campaign(c, &engine))
                }
                CompiledFamily::WeaklyHard(c) => {
                    ScenarioOutcome::new(family, &run_miss_pattern_campaign(c, &engine).counts)
                }
                // The public runner certifies its counts, as the scenario
                // does after its fold.
                CompiledFamily::Multicore(c) => {
                    ScenarioOutcome::new(family, &run_multicore_campaign(c, &engine).counts)
                }
                CompiledFamily::Node(c) => {
                    ScenarioOutcome::new(family, &run_campaign(c, &engine).counts)
                }
                CompiledFamily::Cluster(_) => unreachable!("{family} is a campaign family"),
            };
            let outcome = run_compiled(family, &compiled);
            assert_eq!(outcome.trials, trials, "{family}");
            assert_eq!(outcome, direct, "{family}");
        }
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
    fn a_generous_trial_budget_leaves_every_family_unchanged() {
        let engine = EngineConfig {
            workers: 2,
            trial_budget: Some(Duration::from_secs(10)),
            ..EngineConfig::default()
        };
        for family in [
            "net_storm",
            "value_domain",
            "blackout",
            "recovery",
            "weakly_hard",
            "multicore",
            "node",
        ] {
            let s = spec(&format!(
                "scenario budget\nfamily {family}\ntrials 3\nseed 0xb0d6\nend\n"
            ));
            let plain = run_scenario(&s, 2).unwrap();
            let budgeted = run_scenario_with(&s, &engine, None, None).unwrap();
            assert_eq!(budgeted, plain, "{family}");
        }
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
    fn an_outcome_short_of_trials_fails_its_accept_clause() {
        let s = spec("scenario a\nfamily recovery\ntrials 6\nseed 0x11\nend\n");
        let mut outcome = run_scenario(&s, 1).unwrap();
        assert!(check_accept(&s, &outcome).is_empty());
        // Two trials panicked and were dropped from the fold.
        outcome.trials = 4;
        assert_eq!(check_accept(&s, &outcome), ["trials: folded 4 of 6"]);
        outcome.trials = 0;
        assert_eq!(check_accept(&s, &outcome), ["trials: folded 0 of 6"]);
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
            ("multicore", "params\nhorizon 4294967296"),
            ("multicore", "params\ncores 4294967295"),
            ("weakly_hard", "params\ninterval 1000 18446744073709551615"),
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
    fn every_cluster_family_folds_every_trial_at_its_shortest_run() {
        // Each cluster-building family at the fewest cycles its `check`
        // accepts, with every fault switch on. A trial that panics is left
        // out of the fold, so a fault draw that does not fit the run shows
        // up as a missing trial.
        let cases = [
            (
                "net_storm",
                "params\ncycles {n}\nintensity 1\nnode_faults on\nend\n",
            ),
            (
                "value_domain",
                "params\ncycles {n}\nmode combined_storm\nnet_intensity 1\nend\n",
            ),
            (
                "blackout",
                "params\nwarmup {n}\nrecovery 1\ndown 1\nstagger 2\nmin_reset 6\n\
                 include_cus on\nend\n",
            ),
            ("recovery", "params\ncycles {n}\nend\n"),
            (
                "cluster",
                "topology\ncycles {n}\nnode wheel_fl dual_core_left_rs\nstartup on\n\
                 supervise on\nend\n\
                 faults\nstorm 0.5\nrates cu_b babble 0.1\ndynamic 0.05 0.05\n\
                 blackout 1 1 1 wheel_rr cu_a\ntransient wheel_rl 1 0 20\n\
                 stuck_at wheel_fr 20\nintermittent cu_a 0.5 6\n\
                 core_death wheel_fl 1 escalated\nsensor 0 drift 3 onset 1\n\
                 actuator 2 runaway 50 onset 1\nsilence cu_b 3\nend\n\
                 contracts\nwheel fl 2 8\nend\n",
            ),
        ];
        for (family, params) in cases {
            let at = |n: u32| {
                let params = params.replace("{n}", &n.to_string());
                spec(&format!(
                    "scenario short\nfamily {family}\ntrials 6\nseed 0x5407\n{params}end\n"
                ))
            };
            let shortest = (0..=64)
                .map(at)
                .find(|s| compile(s, 1).is_ok())
                .unwrap_or_else(|| panic!("{family}: no run of up to 64 cycles compiles"));
            let outcome = run_scenario(&shortest, 1).unwrap();
            assert_eq!(outcome.trials, shortest.trials, "{family}: {shortest:?}");
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

    /// The 12-trial cluster scenario the resume tests run.
    fn resumed() -> ScenarioSpec {
        spec(
            "scenario resumed\nfamily cluster\ntrials 12\nseed 0xfeed\n\
             topology\ncycles 12\nend\nfaults\nstorm 0.4\nend\nend\n",
        )
    }

    /// Runs `spec` on `engine`, returning the outcome and every
    /// checkpoint written along the way.
    fn run_saving(
        spec: &ScenarioSpec,
        engine: &EngineConfig,
    ) -> (Result<ScenarioOutcome, RunError>, Vec<(u64, String)>) {
        let saved = std::sync::Mutex::new(Vec::new());
        let record = |done: u64, text: String| saved.lock().unwrap().push((done, text));
        let outcome = run_scenario_with(spec, engine, None, Some(&record));
        (outcome, saved.into_inner().unwrap())
    }

    /// [`resumed`] run from `checkpoint`.
    fn resume_from(checkpoint: &str) -> Result<ScenarioOutcome, RunError> {
        run_scenario_with(
            &resumed(),
            &EngineConfig::with_workers(2),
            Some(checkpoint),
            None,
        )
    }

    /// A checkpoint of [`resumed`] at `done` whose tallies count `trials`
    /// trials with `verdicts` and every metric at `metric`.
    fn cluster_checkpoint(done: u64, trials: u64, verdicts: [u64; 6], metric: u64) -> String {
        let mut text = format!(
            "{} resume {done} cluster-tallies {trials}",
            checkpoint_header(&resumed())
        );
        for v in verdicts {
            text.push_str(&format!(" {v}"));
        }
        for _ in 0..20 {
            text.push_str(&format!(" {metric}"));
        }
        text
    }

    fn assert_rejected(checkpoint: &str, why: &str) {
        let e = resume_from(checkpoint).expect_err(why);
        let RunError::Resume { message, .. } = &e else {
            panic!("{e}");
        };
        assert!(message.contains(why), "{e}");
    }

    #[test]
    fn resume_rejects_a_prefix_longer_than_the_scenario() {
        let text = cluster_checkpoint(20, 20, [0, 0, 0, 0, 0, 20], 0);
        assert_rejected(&text, "resumes at trial 20 of a 12-trial scenario");
    }

    #[test]
    fn resume_rejects_tallies_of_another_prefix() {
        // The tallies already count 12 trials at resume index 4: run
        // on, they would give a 20-trial outcome for a 12-trial scenario.
        let text = cluster_checkpoint(4, 12, [0, 0, 0, 0, 0, 12], 0);
        assert_rejected(&text, "tallies count 12 trials but resume at trial 4");
    }

    #[test]
    fn resume_rejects_verdicts_that_do_not_sum_to_the_trials() {
        let text = cluster_checkpoint(4, 4, [1, 1, 0, 0, 0, 1], 0);
        assert_rejected(&text, "verdicts sum to 3 over 4 trials");
        let text = cluster_checkpoint(4, 4, [u64::MAX, 0, 0, 0, 0, 5], 0);
        assert_rejected(&text, "over 4 trials");
    }

    #[test]
    fn resume_rejects_a_checkpoint_without_its_header() {
        let text = cluster_checkpoint(4, 4, [0, 0, 0, 0, 0, 4], 0);
        let (_, bare) = text.split_once(" resume ").expect("a header");
        assert_rejected(
            &format!("resume {bare}"),
            "expected checkpoint tag `scenario`",
        );
    }

    #[test]
    fn resume_rejects_a_checkpoint_of_an_edited_scenario() {
        // Same name, family, seed and trials; one more cycle.
        let mut edited = resumed();
        let FamilyParams::Cluster(cluster) = &mut edited.params else {
            unreachable!("a cluster scenario")
        };
        cluster.cycles += 1;
        let (_, saved) = run_saving(&edited, &checkpointing(4));
        assert_rejected(&saved[0].1, "checkpoint config `");
        // The accept clause is not part of the binding.
        let mut accepting = resumed();
        accepting.accept.require_zero.push("undetected".into());
        let (_, saved) = run_saving(&accepting, &checkpointing(4));
        resume_from(&saved[0].1).expect("an accept edit keeps checkpoints valid");
    }

    /// Two workers, a checkpoint every `every` trials.
    fn checkpointing(every: u64) -> EngineConfig {
        EngineConfig {
            checkpoint_every: every,
            ..EngineConfig::with_workers(2)
        }
    }

    #[test]
    fn resume_accepts_its_own_checkpoint() {
        let (full, saved) = run_saving(&resumed(), &checkpointing(4));
        let (_, mid) = saved
            .iter()
            .find(|(done, _)| *done == 4)
            .expect("a checkpoint at 4");
        assert_eq!(resume_from(mid).unwrap(), full.unwrap());
    }

    #[test]
    fn resume_accepts_a_checkpoint_whose_trials_overran() {
        // A 1 ns budget: every trial overruns and is left out of the
        // tallies, so the checkpoint at 4 tallies fewer than 4 trials.
        let engine = EngineConfig {
            trial_budget: Some(Duration::from_nanos(1)),
            ..checkpointing(4)
        };
        let (outcome, saved) = run_saving(&resumed(), &engine);
        outcome.unwrap();
        let (_, mid) = saved
            .iter()
            .find(|(done, _)| *done == 4)
            .expect("a checkpoint at 4");
        let (_, point) = mid.split_once(" resume ").expect("a header");
        let point: ResumePoint<ClusterTallies> =
            checkpoint::decode(&format!("resume {point}")).expect("checkpoint decodes");
        assert!(point.acc.trials < 4, "{mid}");
        let outcome = resume_from(mid).expect("the program's own checkpoint resumes");
        assert_eq!(outcome.trials, point.acc.trials + 8);
    }

    #[test]
    fn resumed_metrics_near_the_u64_edge_saturate() {
        // A consistent empty prefix whose metrics sit at the edge: the
        // storm's injections push `injected` past it.
        let text = cluster_checkpoint(0, 0, [0; 6], u64::MAX - 1);
        let outcome = resume_from(&text).expect("a consistent checkpoint resumes");
        assert_eq!(outcome.trials, 12);
        assert_eq!(outcome.counter("injected"), Some(u64::MAX));
    }
}
