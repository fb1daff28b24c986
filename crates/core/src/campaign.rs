//! Fault-injection campaigns.
//!
//! The paper's parameters — coverage `C_D` and the detected-transient split
//! `P_T`/`P_OM`/`P_FS` — came from fault-injection experiments on the
//! authors' kernel (refs. 7, 8). This module reproduces that methodology on
//! the simulated stack: inject transients into a node running real
//! workloads under a policy (fail-silent or NLFT/TEM), classify every
//! outcome against a golden run, and estimate the parameters with Wilson
//! confidence intervals. Campaigns are deterministic in their seed and
//! shard across threads without changing results.

use std::fmt;

use nlft_engine::{Absorb, EngineConfig, Tally, TrialCampaign};
use nlft_kernel::escalation::{EscalationEvent, EscalationPolicy, NodeHealth};
use nlft_kernel::tem::{InjectionPlan, JobFault, JobOutcome, TemConfig, TemExecutor};
use nlft_machine::edm::{DetectionMatrix, Edm};
use nlft_machine::fault::{
    run_with_injection, FaultModel, FaultPersistence, FaultSpace, TransientFault,
};
use nlft_machine::machine::RunExit;
use nlft_machine::workloads::Workload;
use nlft_sim::rng::RngStream;
use nlft_sim::stats::{OnlineStats, Proportion};

use crate::diagnosis::{AlphaCountConfig, NodeSupervisor};
use crate::policy::{NodeFailureMode, NodePolicy};

/// Classification of a single injection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Fault had no observable effect (overwritten, latent, or the task
    /// finished before the injection point).
    Benign,
    /// An error occurred, was detected, and TEM delivered a correct result.
    Masked {
        /// First mechanism that saw the error.
        detected_by: Edm,
    },
    /// An error was detected but no result could be delivered in time.
    Omission {
        /// The mechanism behind the final omission.
        detected_by: Edm,
    },
    /// An error was detected with no masking attempted (fail-silent node).
    Detected {
        /// The detecting mechanism.
        detected_by: Edm,
    },
    /// The fault struck while kernel code was running; kernel checks catch
    /// it and the node goes silent.
    KernelError,
    /// A wrong result was delivered with no detection — a coverage escape.
    UndetectedWrongOutput,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injections.
    pub trials: u64,
    /// Master seed; identical seeds reproduce identical campaigns.
    pub seed: u64,
    /// Node policy under test.
    pub policy: NodePolicy,
    /// The fault space sampled.
    pub space: FaultSpace,
    /// Workloads cycled through (one per trial, round-robin).
    pub workloads: Vec<Workload>,
    /// Fraction of CPU time in kernel code: faults landing there become
    /// kernel errors (the paper assumes ~5%, citing ref. 10).
    pub kernel_fraction: f64,
    /// Fraction of jobs whose deadline leaves no recovery slack (e.g. a
    /// second fault already consumed it, §2.5): a detected error in such a
    /// job becomes an omission instead of being masked.
    pub tight_deadline_fraction: f64,
    /// Run the node with ECC-protected memory (`true`, the default) or
    /// without (cheap-node ablation: memory faults escape to the program).
    pub ecc: bool,
}

impl CampaignConfig {
    /// A standard campaign over the stock workloads.
    pub fn new(trials: u64, seed: u64, policy: NodePolicy) -> Self {
        CampaignConfig {
            trials,
            seed,
            policy,
            space: FaultSpace::cpu_only(),
            workloads: nlft_machine::workloads::standard_workloads(),
            kernel_fraction: 0.05,
            tight_deadline_fraction: 0.05,
            ecc: true,
        }
    }

    /// Checks that the campaign can run: trials, workloads, a kernel
    /// fraction in `[0, 1)` and a tight-deadline fraction in `[0, 1]`.
    pub fn check(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("campaign needs trials".into());
        }
        if self.workloads.is_empty() {
            return Err("campaign needs workloads".into());
        }
        if !(0.0..1.0).contains(&self.kernel_fraction) {
            return Err("kernel fraction must be in [0,1)".into());
        }
        if !(0.0..=1.0).contains(&self.tight_deadline_fraction) {
            return Err("tight-deadline fraction must be in [0,1]".into());
        }
        Ok(())
    }
}

nlft_engine::tally! {
    /// Counters of a fault-injection campaign: the node-boundary failure
    /// mode of each trial, plus the counts behind the paper's parameter
    /// estimates.
    pub struct CampaignCounts: "campaign-counts" {
        verdicts {
            /// No externally visible effect.
            masked,
            /// Omission failures.
            omission,
            /// Fail-silent failures.
            fail_silent,
            /// Undetected wrong outputs.
            undetected,
        }
        metrics {
            /// Errors detected (masked + omission + fail-silent + FS
            /// detections).
            param_detected,
            /// Errors that escaped detection.
            param_undetected,
            /// Detected errors masked by TEM.
            param_masked,
            /// Detected errors that became omissions.
            param_omissions,
            /// Detected errors that silenced the node (kernel + FS
            /// policy).
            param_fail_silent,
            /// Faults with no observable effect.
            param_benign,
            /// Corrupted memory reads served with ECC disabled — the
            /// silent-corruption exposure of cheap-node (no-ECC)
            /// configurations. Always zero when ECC is on: a corrupted
            /// read is then either corrected or trapped, never served.
            ecc_escaped,
        }
    }
}

impl CampaignCounts {
    /// Error-detection coverage `C_D` as a proportion.
    pub fn coverage(&self) -> Proportion {
        Proportion::from_counts(
            self.param_detected,
            self.param_detected + self.param_undetected,
        )
    }

    /// `P_T`: detected errors masked.
    pub fn p_t(&self) -> Proportion {
        Proportion::from_counts(self.param_masked, self.param_detected)
    }

    /// `P_OM`: detected errors that became omissions.
    pub fn p_om(&self) -> Proportion {
        Proportion::from_counts(self.param_omissions, self.param_detected)
    }

    /// `P_FS`: detected errors that silenced the node.
    pub fn p_fs(&self) -> Proportion {
        Proportion::from_counts(self.param_fail_silent, self.param_detected)
    }
}

/// Full campaign result.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Failure-mode and parameter counters.
    pub counts: CampaignCounts,
    /// Per-(fault class × EDM) detection matrix — the Table 1 artifact.
    pub matrix: DetectionMatrix,
}

impl Absorb<TrialOutcome> for CampaignResult {
    /// Also records which EDM caught the trial's fault, by target class.
    /// A fault in kernel code has no class and is not recorded.
    fn absorb(&mut self, trial: u64, outcome: &TrialOutcome) {
        self.counts.absorb(trial, outcome);
        let Some(class) = outcome.fault.map(|f| f.target.class()) else {
            return;
        };
        let matrix = &mut self.matrix;
        match outcome.verdict {
            Verdict::Benign => matrix.record_benign(class),
            Verdict::Masked { detected_by }
            | Verdict::Omission { detected_by }
            | Verdict::Detected { detected_by } => matrix.record_detection(class, detected_by),
            Verdict::KernelError => {}
            Verdict::UndetectedWrongOutput => matrix.record_undetected(class),
        }
    }

    fn merge(&mut self, later: CampaignResult) {
        Tally::merge(&mut self.counts, &later.counts);
        self.matrix.merge(&later.matrix);
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counts;
        writeln!(f, "campaign: {} trials", c.trials)?;
        writeln!(
            f,
            "  benign {} / detected {} / undetected {}",
            c.param_benign, c.param_detected, c.param_undetected
        )?;
        if c.ecc_escaped > 0 {
            writeln!(
                f,
                "  silent ECC escapes {} (corrupted reads served, no ECC)",
                c.ecc_escaped
            )?;
        }
        let pct = |p: Proportion| format!("{:.4}", p.estimate());
        writeln!(f, "  C_D  = {}", pct(c.coverage()))?;
        writeln!(f, "  P_T  = {}", pct(c.p_t()))?;
        writeln!(f, "  P_OM = {}", pct(c.p_om()))?;
        write!(f, "  P_FS = {}", pct(c.p_fs()))
    }
}

/// Runs a campaign.
///
/// # Panics
///
/// Panics if [`CampaignConfig::check`] rejects the config.
pub fn run_campaign(config: &CampaignConfig, engine: &EngineConfig) -> CampaignResult {
    nlft_engine::run_trials(node_campaign(config), engine).acc
}

/// The campaign, folding each trial's outcome into an `A`: the counters
/// alone for a scenario, with the Table 1 matrix for [`run_campaign`].
///
/// # Panics
///
/// Panics if [`CampaignConfig::check`] rejects the config.
pub fn node_campaign<A: Absorb<TrialOutcome>>(
    config: &CampaignConfig,
) -> impl TrialCampaign<Acc = A> {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    // Every trial forks its own stream from (seed, trial index) and the
    // engine folds block partials in block order regardless of worker
    // count, so parallelism only decides which worker runs a trial.
    let c = config.clone();
    nlft_engine::absorbing_campaign(
        "core-fault-injection",
        "trial",
        config.trials,
        config.seed,
        move |trial, mut rng| {
            let workload = &c.workloads[(trial % c.workloads.len() as u64) as usize];
            run_trial(&c, workload, &mut rng)
        },
    )
}

fn run_trial(config: &CampaignConfig, workload: &Workload, rng: &mut RngStream) -> TrialOutcome {
    // Random inputs in sensor range keep campaigns from over-fitting one
    // data point.
    let inputs: Vec<u32> = workload
        .input_ports
        .iter()
        .map(|_| rng.uniform_range(0, 4096) as u32)
        .collect();
    let (golden, clean_cycles) = workload.golden_run(&inputs);

    // Does the fault land in kernel code?
    if rng.bernoulli(config.kernel_fraction) {
        return TrialOutcome {
            policy: config.policy,
            verdict: Verdict::KernelError,
            fault: None,
            ecc_escaped: 0,
        };
    }

    let fault = config.space.sample(rng);
    let at_cycle = rng.uniform_range(1, clean_cycles.max(2));

    let (verdict, ecc_escaped) = match config.policy {
        NodePolicy::LightweightNlft => {
            let copy = rng.uniform_range(0, 2) as u32;
            let mut tem_config = TemConfig::with_budget(clean_cycles * 2 + 50);
            if rng.bernoulli(config.tight_deadline_fraction) {
                // No recovery slack this period: two copies and the
                // comparison must fit, nothing more (§2.5's "enough time
                // may not be available").
                tem_config.deadline_cycles = tem_config.copy_budget * 2 + tem_config.compare_cycles;
            }
            let tem = TemExecutor::new(tem_config);
            let mut machine = instantiate(workload, config.ecc);
            let plan = InjectionPlan {
                copy,
                at_cycle,
                fault,
            };
            let report = tem.run_job(&mut machine, workload, &inputs, Some(plan));
            let verdict = match report.outcome {
                JobOutcome::DeliveredClean => {
                    if report.outputs == Some(golden) {
                        Verdict::Benign
                    } else {
                        Verdict::UndetectedWrongOutput
                    }
                }
                JobOutcome::DeliveredMasked { detected_by } => {
                    if report.outputs == Some(golden) {
                        Verdict::Masked { detected_by }
                    } else {
                        Verdict::UndetectedWrongOutput
                    }
                }
                JobOutcome::Omission { detected_by } => Verdict::Omission { detected_by },
            };
            (verdict, machine.mem.ecc_stats().escaped)
        }
        NodePolicy::FailSilent => {
            let mut machine = instantiate(workload, config.ecc);
            for (&port, &v) in workload.input_ports.iter().zip(&inputs) {
                machine.set_input(port, v);
            }
            let budget = clean_cycles * 2 + 50;
            let (outcome, _) = run_with_injection(&mut machine, budget, at_cycle, fault);
            let verdict = match outcome.exit {
                RunExit::Halted => {
                    if *machine.outputs() == golden {
                        Verdict::Benign
                    } else {
                        Verdict::UndetectedWrongOutput
                    }
                }
                RunExit::Exception(e) => Verdict::Detected {
                    detected_by: Edm::from_exception(&e),
                },
                RunExit::BudgetExhausted => Verdict::Detected {
                    detected_by: Edm::ExecutionTimeMonitor,
                },
            };
            (verdict, machine.mem.ecc_stats().escaped)
        }
    };
    TrialOutcome {
        policy: config.policy,
        verdict,
        fault: Some(fault),
        ecc_escaped,
    }
}

/// Builds a fresh machine for the trial, with or without ECC memory.
fn instantiate(workload: &Workload, ecc: bool) -> nlft_machine::machine::Machine {
    if ecc {
        workload.instantiate()
    } else {
        let mut m = nlft_machine::machine::Machine::new_without_ecc(
            nlft_machine::workloads::MEM_BYTES,
            workload.map.clone(),
        );
        m.load_program(0, &workload.image.words)
            .expect("workload image fits standard memory");
        m.reset(0, nlft_machine::workloads::STACK_TOP);
        m
    }
}

/// What one fault-injection trial observed.
pub struct TrialOutcome {
    policy: NodePolicy,
    verdict: Verdict,
    fault: Option<TransientFault>,
    /// Corrupted reads served during the trial (ECC-off machines only).
    ecc_escaped: u64,
}

impl Absorb<TrialOutcome> for CampaignCounts {
    fn absorb(&mut self, _: u64, outcome: &TrialOutcome) {
        self.trials += 1;
        self.ecc_escaped += outcome.ecc_escaped;
        match outcome.verdict {
            Verdict::Benign => self.param_benign += 1,
            Verdict::Masked { .. } => {
                self.param_detected += 1;
                self.param_masked += 1;
            }
            Verdict::Omission { .. } => {
                self.param_detected += 1;
                self.param_omissions += 1;
            }
            Verdict::Detected { .. } | Verdict::KernelError => {
                self.param_detected += 1;
                self.param_fail_silent += 1;
            }
            Verdict::UndetectedWrongOutput => self.param_undetected += 1,
        }
        match NodeFailureMode::classify(outcome.policy, outcome.verdict) {
            NodeFailureMode::Masked => self.masked += 1,
            NodeFailureMode::Omission => self.omission += 1,
            NodeFailureMode::FailSilent => self.fail_silent += 1,
            NodeFailureMode::Undetected => self.undetected += 1,
        }
    }

    fn merge(&mut self, later: CampaignCounts) {
        Tally::merge(self, &later)
    }
}

// ---------------------------------------------------------------------------
// Recovery campaigns: multi-job, recurrence-aware trials.
// ---------------------------------------------------------------------------

/// Classification of a whole multi-job recovery trial, judged against the
/// ground-truth persistence of the injected fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RecoveryVerdict {
    /// A one-shot transient was handled in place: node healthy at trial
    /// end with zero restarts spent.
    MaskedTransient,
    /// The node escalated (suspicion and/or restarts) and returned to
    /// `Healthy` — the intended outcome for an intermittent fault.
    Recovered,
    /// A permanent fault was correctly retired.
    Retired,
    /// A non-permanent fault ended in retirement — the misclassification
    /// the α-count tuning bounds.
    FalseRetirement,
    /// A permanent fault was still in service at trial end. This includes
    /// latent stuck-ats that never trip an EDM: time redundancy compares
    /// two identically-wrong copies, so a silent permanent fault is
    /// invisible to TEM — the known blind spot of the technique.
    MissedPermanent,
    /// The trial ended mid-ladder (suspect, silent or restarting).
    Unresolved,
}

/// Configuration of a recovery campaign.
#[derive(Debug, Clone)]
pub struct RecoveryCampaignConfig {
    /// Number of multi-job trials.
    pub trials: u64,
    /// Master seed; identical seeds reproduce identical campaigns.
    pub seed: u64,
    /// Job slots per trial. Must leave room for the full ladder: the
    /// default escalation policy needs 25 slots from first error to
    /// budget-exhausted retirement.
    pub jobs_per_trial: u32,
    /// Fault space sampled once per trial (use
    /// [`FaultSpace::with_intermittent`] / [`FaultSpace::with_stuck_at`]
    /// to give the diagnosis real signal).
    pub space: FaultSpace,
    /// Workloads cycled through (one per trial, round-robin).
    pub workloads: Vec<Workload>,
    /// α-count tuning.
    pub alpha: AlphaCountConfig,
    /// Escalation-ladder thresholds and restart budget.
    pub escalation: EscalationPolicy,
}

impl RecoveryCampaignConfig {
    /// A standard recovery campaign: 30% intermittent (recurrence 0.85,
    /// burst 10 jobs), 20% stuck-at, remainder one-shot transients.
    pub fn new(trials: u64, seed: u64) -> Self {
        RecoveryCampaignConfig {
            trials,
            seed,
            jobs_per_trial: 48,
            space: FaultSpace::cpu_only()
                .with_intermittent(0.3, 0.85, 10)
                .with_stuck_at(0.2),
            workloads: nlft_machine::workloads::standard_workloads(),
            alpha: AlphaCountConfig::default(),
            escalation: EscalationPolicy::default(),
        }
    }
}

nlft_engine::tally! {
    /// Counters of a recovery campaign: one verdict per trial plus the
    /// restart and wrong-output totals.
    pub struct RecoveryCounts: "recovery-counts" {
        verdicts {
            /// One-shot transients handled without escalation.
            masked_transient,
            /// Nodes that escalated and returned to service.
            recovered,
            /// Permanent faults correctly retired.
            retired,
            /// Non-permanent faults wrongly retired.
            false_retirement,
            /// Permanent faults still in service at trial end.
            missed_permanent,
            /// Trials ending mid-ladder.
            unresolved,
        }
        metrics {
            /// Restarts scheduled across all trials.
            restarts_total,
            /// Jobs that delivered a wrong result with no detection.
            undetected_wrong_jobs,
        }
    }
}

impl RecoveryCounts {
    /// Total trials tallied by verdict.
    pub fn total(&self) -> u64 {
        self.verdicts().iter().map(|&(_, n)| n).sum()
    }

    fn record(&mut self, v: RecoveryVerdict) {
        match v {
            RecoveryVerdict::MaskedTransient => self.masked_transient += 1,
            RecoveryVerdict::Recovered => self.recovered += 1,
            RecoveryVerdict::Retired => self.retired += 1,
            RecoveryVerdict::FalseRetirement => self.false_retirement += 1,
            RecoveryVerdict::MissedPermanent => self.missed_permanent += 1,
            RecoveryVerdict::Unresolved => self.unresolved += 1,
        }
    }
}

/// Full result of a recovery campaign, with the diagnosis metrics the
/// issue asks for: misclassification rate, detection latency in jobs, and
/// restart counts.
#[derive(Debug, Clone, Default)]
pub struct RecoveryCampaignResult {
    /// Verdict and metric counters.
    pub counts: RecoveryCounts,
    /// False retirements over non-permanent trials (the misclassification
    /// rate; its Wilson upper bound must stay below
    /// [`crate::diagnosis::FALSE_RETIREMENT_BOUND`]).
    pub false_retirement: Proportion,
    /// Jobs from fault onset to the first fail-silent or retirement, over
    /// trials with a recurring fault that escalated.
    pub detection_latency_jobs: OnlineStats,
    /// Jobs from fault onset to retirement, over correctly retired
    /// permanent trials (compared against the analytic escalation chain).
    pub retirement_latency_jobs: OnlineStats,
    /// Per-active-job error rate measured during intermittent bursts —
    /// the `p_err` a matching analytic [`crate::diagnosis::escalation_chain`]
    /// should be built with.
    pub intermittent_error_rate: Proportion,
}

impl RecoveryCampaignResult {
    fn merge(&mut self, other: &RecoveryCampaignResult) {
        Tally::merge(&mut self.counts, &other.counts);
        self.false_retirement.merge(&other.false_retirement);
        self.detection_latency_jobs
            .merge(&other.detection_latency_jobs);
        self.retirement_latency_jobs
            .merge(&other.retirement_latency_jobs);
        self.intermittent_error_rate
            .merge(&other.intermittent_error_rate);
    }
}

impl fmt::Display for RecoveryCampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counts;
        writeln!(f, "recovery campaign: {} trials", c.trials)?;
        writeln!(
            f,
            "  masked {} / recovered {} / retired {} / false-retired {} / missed {} / unresolved {}",
            c.masked_transient,
            c.recovered,
            c.retired,
            c.false_retirement,
            c.missed_permanent,
            c.unresolved
        )?;
        let (lo, hi) = self
            .false_retirement
            .wilson_interval(nlft_sim::stats::Confidence::C95);
        writeln!(
            f,
            "  false-retirement rate = {:.4} (95% Wilson [{:.4}, {:.4}])",
            self.false_retirement.estimate(),
            lo,
            hi
        )?;
        writeln!(
            f,
            "  detection latency = {:.2} jobs (n={})",
            self.detection_latency_jobs.mean(),
            self.detection_latency_jobs.count()
        )?;
        write!(f, "  restarts = {}", c.restarts_total)
    }
}

/// Runs a multi-job recovery campaign: each trial samples one fault model
/// (transient / intermittent / stuck-at), drives a TEM node through
/// `jobs_per_trial` job slots under a [`NodeSupervisor`], and judges the
/// supervisor's verdict against the ground truth. Deterministic in the
/// seed and invariant under `engine`'s worker count.
///
/// # Panics
///
/// Panics if the configuration has no trials, no workloads, or too few
/// jobs per trial to fit the escalation ladder.
pub fn run_recovery_campaign(
    config: &RecoveryCampaignConfig,
    engine: &EngineConfig,
) -> RecoveryCampaignResult {
    assert!(config.trials > 0, "campaign needs trials");
    assert!(!config.workloads.is_empty(), "campaign needs workloads");
    assert!(
        config.jobs_per_trial >= 8,
        "recovery trials need room for the ladder"
    );
    let c = config.clone();
    let campaign = nlft_engine::indexed_campaign(
        "core-recovery",
        "recovery-trial",
        config.trials,
        RecoveryCampaignResult::default,
        move |trial, _ctx, result: &mut RecoveryCampaignResult| {
            let mut rng = RngStream::new(c.seed).fork_indexed("recovery-trial", trial);
            let workload = &c.workloads[(trial % c.workloads.len() as u64) as usize];
            run_recovery_trial(&c, workload, &mut rng, result);
        },
        |into, from| into.merge(&from),
    );
    nlft_engine::run_trials(campaign, engine).acc
}

fn run_recovery_trial(
    config: &RecoveryCampaignConfig,
    workload: &Workload,
    rng: &mut RngStream,
    result: &mut RecoveryCampaignResult,
) {
    let inputs: Vec<u32> = workload
        .input_ports
        .iter()
        .map(|_| rng.uniform_range(0, 4096) as u32)
        .collect();
    let (golden, clean_cycles) = workload.golden_run(&inputs);
    let model = config.space.sample_model(rng);
    let onset = rng.uniform_range(1, (config.jobs_per_trial as u64 / 4).max(2)) as u32;

    let mut supervisor = NodeSupervisor::new(config.alpha, config.escalation);
    let mut restarts: u64 = 0;
    let mut first_silent: Option<u32> = None;
    let mut retired_at: Option<u32> = None;

    for job in 0..config.jobs_per_trial {
        if !supervisor.jobs_active() {
            for e in supervisor.tick_silent() {
                match e {
                    EscalationEvent::RestartScheduled { .. } => restarts += 1,
                    EscalationEvent::Retired => {
                        retired_at.get_or_insert(job);
                    }
                    _ => {}
                }
            }
            continue;
        }
        let fault = job_fault(&model, job, onset, clean_cycles, rng);
        let mut tem_config = TemConfig::with_budget(clean_cycles * 2 + 50);
        if supervisor.tem_triples() {
            tem_config.min_results = 3;
        }
        let tem = TemExecutor::new(tem_config);
        let mut machine = instantiate(workload, true);
        let report = tem.run_job_with_fault(&mut machine, workload, &inputs, fault);
        let errored = matches!(
            report.outcome,
            JobOutcome::DeliveredMasked { .. } | JobOutcome::Omission { .. }
        );
        if report.outcome.delivered() && report.outputs.as_ref() != Some(&golden) {
            result.counts.undetected_wrong_jobs += 1;
        }
        if let FaultModel::Intermittent(f) = &model {
            if job >= onset && job - onset < f.burst_jobs {
                result.intermittent_error_rate.record(errored);
            }
        }
        for e in supervisor.observe_job(errored) {
            match e {
                EscalationEvent::WentSilent => {
                    first_silent.get_or_insert(job);
                }
                EscalationEvent::RestartScheduled { .. } => restarts += 1,
                EscalationEvent::Retired => {
                    retired_at.get_or_insert(job);
                }
                _ => {}
            }
        }
    }

    let healthy_at_end = supervisor.health() == NodeHealth::Healthy;
    let verdict = match model.persistence() {
        FaultPersistence::Permanent => {
            if retired_at.is_some() {
                RecoveryVerdict::Retired
            } else {
                RecoveryVerdict::MissedPermanent
            }
        }
        FaultPersistence::Transient => {
            if retired_at.is_some() {
                RecoveryVerdict::FalseRetirement
            } else if healthy_at_end && restarts == 0 {
                RecoveryVerdict::MaskedTransient
            } else if healthy_at_end {
                RecoveryVerdict::Recovered
            } else {
                RecoveryVerdict::Unresolved
            }
        }
        FaultPersistence::Intermittent => {
            if retired_at.is_some() {
                RecoveryVerdict::FalseRetirement
            } else if healthy_at_end {
                RecoveryVerdict::Recovered
            } else {
                RecoveryVerdict::Unresolved
            }
        }
    };

    result.counts.trials += 1;
    result.counts.record(verdict);
    result.counts.restarts_total += restarts;
    if model.persistence() != FaultPersistence::Permanent {
        result
            .false_retirement
            .record(verdict == RecoveryVerdict::FalseRetirement);
    }
    if model.persistence() != FaultPersistence::Transient {
        if let Some(at) = first_silent.or(retired_at) {
            result
                .detection_latency_jobs
                .record((at.saturating_sub(onset)) as f64);
        }
    }
    if verdict == RecoveryVerdict::Retired {
        if let Some(at) = retired_at {
            result
                .retirement_latency_jobs
                .record((at.saturating_sub(onset)) as f64);
        }
    }
}

/// The fault (if any) manifesting in this job slot, given the trial's
/// fault model and onset.
fn job_fault(
    model: &FaultModel,
    job: u32,
    onset: u32,
    clean_cycles: u64,
    rng: &mut RngStream,
) -> Option<JobFault> {
    if job < onset {
        return None;
    }
    match model {
        FaultModel::Transient(f) => {
            if job == onset {
                Some(JobFault::Transient(transient_plan(*f, clean_cycles, rng)))
            } else {
                None
            }
        }
        FaultModel::Intermittent(f) => {
            if f.manifests(job - onset, rng) {
                Some(JobFault::Transient(transient_plan(
                    f.fault,
                    clean_cycles,
                    rng,
                )))
            } else {
                None
            }
        }
        FaultModel::StuckAt(s) => Some(JobFault::StuckAt(*s)),
    }
}

fn transient_plan(fault: TransientFault, clean_cycles: u64, rng: &mut RngStream) -> InjectionPlan {
    InjectionPlan {
        copy: rng.uniform_range(0, 2) as u32,
        at_cycle: rng.uniform_range(1, clean_cycles.max(2)),
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(policy: NodePolicy, trials: u64) -> CampaignConfig {
        let mut c = CampaignConfig::new(trials, 0xBBC0FFEE, policy);
        c.workloads = vec![
            nlft_machine::workloads::sum_series(),
            nlft_machine::workloads::pid_controller(),
        ];
        c
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = quick_config(NodePolicy::LightweightNlft, 120);
        let a = run_campaign(&cfg, &EngineConfig::default());
        let b = run_campaign(&cfg, &EngineConfig::default());
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn parallel_equals_sequential() {
        let cfg = quick_config(NodePolicy::LightweightNlft, 100);
        let seq = run_campaign(&cfg, &EngineConfig::default());
        let par = run_campaign(&cfg, &EngineConfig::with_workers(4));
        assert_eq!(seq.counts, par.counts);
        assert_eq!(seq.matrix, par.matrix);
    }

    #[test]
    fn nlft_masks_most_detected_errors() {
        let cfg = quick_config(NodePolicy::LightweightNlft, 400);
        let r = run_campaign(&cfg, &EngineConfig::default());
        assert!(r.counts.param_detected > 0, "some faults must activate");
        let p_t = r.counts.p_t().estimate();
        assert!(
            p_t > 0.6,
            "TEM should mask the majority of detected transients, got {p_t}"
        );
        // Conditional probabilities partition.
        let total =
            r.counts.p_t().estimate() + r.counts.p_om().estimate() + r.counts.p_fs().estimate();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fs_policy_never_masks() {
        let cfg = quick_config(NodePolicy::FailSilent, 300);
        let r = run_campaign(&cfg, &EngineConfig::default());
        assert_eq!(r.counts.param_masked, 0);
        assert_eq!(r.counts.param_omissions, 0);
        assert_eq!(r.counts.omission, 0);
        assert!(r.counts.fail_silent > 0);
    }

    #[test]
    fn fs_policy_has_undetected_escapes() {
        // Without TEM, silent data corruption reaches the outputs.
        let cfg = quick_config(NodePolicy::FailSilent, 600);
        let r = run_campaign(&cfg, &EngineConfig::default());
        assert!(
            r.counts.param_undetected > 0,
            "a plain run must let some wrong outputs through"
        );
        let c_d = r.counts.coverage().estimate();
        assert!(c_d < 1.0);
    }

    #[test]
    fn nlft_coverage_exceeds_fs_coverage() {
        let nlft = run_campaign(
            &quick_config(NodePolicy::LightweightNlft, 600),
            &EngineConfig::default(),
        );
        let fs = run_campaign(
            &quick_config(NodePolicy::FailSilent, 600),
            &EngineConfig::default(),
        );
        let c_nlft = nlft.counts.coverage().estimate();
        let c_fs = fs.counts.coverage().estimate();
        assert!(
            c_nlft > c_fs,
            "TEM comparison must add coverage: {c_nlft} vs {c_fs}"
        );
    }

    #[test]
    fn kernel_fraction_produces_fail_silent() {
        let mut cfg = quick_config(NodePolicy::LightweightNlft, 400);
        cfg.kernel_fraction = 0.5;
        let r = run_campaign(&cfg, &EngineConfig::default());
        let p_fs = r.counts.p_fs().estimate();
        assert!(p_fs > 0.3, "half the faults hit the kernel, p_fs = {p_fs}");
    }

    #[test]
    fn matrix_populated_for_detections() {
        let cfg = quick_config(NodePolicy::LightweightNlft, 300);
        let r = run_campaign(&cfg, &EngineConfig::default());
        let any: u64 = nlft_machine::fault::TargetClass::ALL
            .iter()
            .map(|&c| r.matrix.total(c))
            .sum();
        assert!(any > 0);
        assert!(!r.matrix.render_table().is_empty());
    }

    #[test]
    fn display_summarises() {
        let cfg = quick_config(NodePolicy::LightweightNlft, 50);
        let r = run_campaign(&cfg, &EngineConfig::default());
        let text = r.to_string();
        assert!(text.contains("C_D"));
        assert!(text.contains("P_T"));
    }

    #[test]
    fn tight_deadlines_produce_omissions() {
        let mut cfg = quick_config(NodePolicy::LightweightNlft, 800);
        cfg.tight_deadline_fraction = 1.0; // every job slack-free
        let r = run_campaign(&cfg, &EngineConfig::default());
        assert!(
            r.counts.param_omissions > 0,
            "without slack, some detected errors must become omissions"
        );
        // Early EDM kills still get masked — the killed copy's unused time
        // is reclaimed (§2.5) — but expensive detections (budget overruns)
        // can no longer fit a recovery, so omissions appear alongside.
        assert!(r.counts.p_om().estimate() > 0.01);
    }

    #[test]
    fn omission_rate_tracks_slack_pressure() {
        let mut relaxed = quick_config(NodePolicy::LightweightNlft, 800);
        relaxed.tight_deadline_fraction = 0.0;
        let mut pressed = quick_config(NodePolicy::LightweightNlft, 800);
        pressed.tight_deadline_fraction = 0.3;
        let r0 = run_campaign(&relaxed, &EngineConfig::default());
        let r1 = run_campaign(&pressed, &EngineConfig::default());
        assert_eq!(r0.counts.param_omissions, 0);
        assert!(r1.counts.p_om().estimate() > r0.counts.p_om().estimate());
    }

    #[test]
    fn ecc_ablation_lowers_coverage_with_memory_faults() {
        use nlft_machine::fault::FaultSpace;
        let mk = |ecc: bool| {
            let mut cfg = quick_config(NodePolicy::FailSilent, 1200);
            cfg.space = FaultSpace::seu(nlft_machine::workloads::MEM_BYTES);
            cfg.ecc = ecc;
            run_campaign(&cfg, &EngineConfig::default())
        };
        let with_ecc = mk(true);
        let without = mk(false);
        // Memory faults under ECC are corrected (benign) or detected; with
        // ECC off, more of them land as activated errors or escapes.
        let benign_with = with_ecc.counts.param_benign;
        let benign_without = without.counts.param_benign;
        assert!(
            benign_without <= benign_with,
            "ECC-off cannot make more faults benign: {benign_without} vs {benign_with}"
        );
    }

    #[test]
    #[should_panic(expected = "needs trials")]
    fn zero_trials_rejected() {
        let cfg = quick_config(NodePolicy::FailSilent, 1);
        let mut cfg = cfg;
        cfg.trials = 0;
        run_campaign(&cfg, &EngineConfig::default());
    }

    fn quick_recovery(trials: u64) -> RecoveryCampaignConfig {
        let mut c = RecoveryCampaignConfig::new(trials, 0xD1A6_0515);
        c.workloads = vec![
            nlft_machine::workloads::sum_series(),
            nlft_machine::workloads::pid_controller(),
        ];
        c
    }

    #[test]
    fn recovery_campaign_is_deterministic() {
        let cfg = quick_recovery(60);
        let a = run_recovery_campaign(&cfg, &EngineConfig::default());
        let b = run_recovery_campaign(&cfg, &EngineConfig::default());
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn recovery_campaign_thread_invariant() {
        let cfg = quick_recovery(50);
        let seq = run_recovery_campaign(&cfg, &EngineConfig::default());
        let two = run_recovery_campaign(&cfg, &EngineConfig::with_workers(2));
        let five = run_recovery_campaign(&cfg, &EngineConfig::with_workers(5));
        assert_eq!(seq.counts, two.counts);
        assert_eq!(seq.counts, five.counts);
        assert_eq!(
            seq.detection_latency_jobs.count(),
            five.detection_latency_jobs.count()
        );
    }

    #[test]
    fn recovery_campaign_produces_all_regimes() {
        let r = run_recovery_campaign(&quick_recovery(150), &EngineConfig::default());
        assert!(r.counts.masked_transient > 0, "transients must be masked");
        assert!(r.counts.recovered > 0, "intermittents must recover");
        assert!(r.counts.retired > 0, "stuck-ats must retire");
        assert!(r.counts.restarts_total > 0, "recovery must spend restarts");
        assert_eq!(r.counts.total(), r.counts.trials);
    }

    #[test]
    fn recovery_false_retirement_stays_below_bound() {
        let r = run_recovery_campaign(&quick_recovery(200), &EngineConfig::default());
        let (_, hi) = r
            .false_retirement
            .wilson_interval(nlft_sim::stats::Confidence::C95);
        assert!(
            hi < crate::diagnosis::FALSE_RETIREMENT_BOUND,
            "false-retirement Wilson upper bound {hi} exceeds {}",
            crate::diagnosis::FALSE_RETIREMENT_BOUND
        );
    }

    #[test]
    fn recovery_display_summarises() {
        let r = run_recovery_campaign(&quick_recovery(30), &EngineConfig::default());
        let text = r.to_string();
        assert!(text.contains("false-retirement rate"));
        assert!(text.contains("restarts"));
    }

    #[test]
    fn transient_only_space_never_restarts() {
        let mut cfg = quick_recovery(80);
        cfg.space = FaultSpace::cpu_only();
        let r = run_recovery_campaign(&cfg, &EngineConfig::default());
        assert_eq!(r.counts.retired, 0);
        assert_eq!(r.counts.false_retirement, 0);
        assert_eq!(r.counts.missed_permanent, 0);
        assert_eq!(
            r.counts.masked_transient + r.counts.recovered + r.counts.unresolved,
            r.counts.trials
        );
    }
}
