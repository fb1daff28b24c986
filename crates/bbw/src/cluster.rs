//! An executable distributed brake-by-wire cluster.
//!
//! Where [`crate::analytic`] and [`crate::montecarlo`] treat nodes as rate
//! processes, this module actually *runs* the system of Fig. 4: two central
//! unit replicas executing the pedal→force distribution task and four wheel
//! nodes executing PID force controllers — all as TM32 programs under the
//! TEM kernel — exchanging frames over the time-triggered bus with
//! membership, duplex selection and degraded-mode force redistribution.
//!
//! Fault injection happens at machine level (a bit flip inside a chosen
//! node's task copy); its consequences then propagate through the real
//! stack: TEM masks it, or the node omits its slot, membership notices,
//! and the central unit redistributes brake force to the remaining wheels.
//!
//! The loop also carries the *value domain* end to end:
//!
//! * the pedal is read through a triplicated [`crate::sensor`] array
//!   (median vote + plausibility + weakly-hard demotion) instead of
//!   being a perfect oracle — out-of-range readings are clamped and
//!   flagged at the sensor boundary;
//! * CU→wheel set-points travel as sealed fresh commands
//!   (`[seq, f0..f3, crc]`); each wheel runs a
//!   [`nlft_kernel::integrity::CommandAcceptor`] that rejects corrupted,
//!   stale, duplicated or replayed commands and converts them into
//!   hold-last-safe-value omissions;
//! * each wheel drives a [`crate::actuator`] with its own fault model,
//!   watched by a demand-vs-measured divergence monitor that fails a bad
//!   actuator to its safe release state — the wheel then goes
//!   fail-silent, so the failure reports into membership and the CU
//!   redistributes force exactly as for a crashed node.
//!
//! The wheels carry heterogeneous weakly-hard *(m,k) service contracts*
//! (the front axle tighter than the rear), and any node can be modelled
//! as a *dual-core* station: a core-death fault then plays out against
//! the node's resource-sharing protocol — LEFT-RS rides the death out on
//! the remaining core, a lock-based substrate wedges and the node drops
//! fail-silent for good.

use std::borrow::Cow;
use std::sync::LazyLock;

use nlft_core::diagnosis::{AlphaCountConfig, NodeSupervisor};
use nlft_kernel::contract::MkContract;
use nlft_kernel::escalation::{EscalationEvent, EscalationPolicy, NodeHealth};
use nlft_kernel::integrity::{CommandAcceptor, CommandReject, FreshSealedMessage};
use nlft_kernel::multicore::MulticoreExecutive;
use nlft_kernel::resources::ProtocolKind;
use nlft_kernel::tem::{InjectionPlan, JobFault, JobOutcome, TemConfig, TemExecutor};
use nlft_machine::fault::{
    CoreDeathFault, FaultSpace, FaultTarget, IntermittentFault, StuckAtFault, TransientFault,
};
use nlft_machine::machine::Machine;
use nlft_machine::workloads::{self, Workload};
use nlft_net::bus::{Bus, BusConfig, CycleDelivery};
use nlft_net::frame::NodeId;
use nlft_net::inject::{InjectionCounts, NetFaultInjector, NetFaultPlan};
use nlft_net::membership::{Membership, MembershipEvent};
use nlft_net::replication::{select_duplex_among, DuplexPair, DuplexValue, StateResync};
use nlft_net::startup::{
    StartupConfig, StartupEvent, StartupMetrics, StartupProtocol, TransmitIntent, COLD_START_MARKER,
};
use nlft_sim::rng::RngStream;
use nlft_sim::weakly_hard::WeaklyHard;

use crate::actuator::{ActuatorFault, ActuatorMonitor, ActuatorMonitorConfig, WheelActuator};
use crate::sensor::{PedalSensorArray, PedalVoterConfig, SensorFault};

/// Cycles a wheel keeps braking on its last accepted set-point when the
/// command stream dries up (rejected or missing commands), before it
/// releases and goes silent.
pub(crate) const HOLD_CYCLES: u32 = 3;

/// Maximum accepted command age in cycles (commands are consumed in the
/// cycle they arrive, so a healthy age is 0).
pub(crate) const COMMAND_MAX_AGE: u32 = 2;

/// Longest run, in communication cycles, one campaign trial may ask of
/// [`BbwCluster::run`]. The run keeps a record per cycle, so an unbounded
/// count is an unbounded allocation; the limit is 2 500 times the zoo's
/// longest scenario.
pub const MAX_CYCLES: u32 = 100_000;

/// Checks a campaign's per-trial run length against [`MAX_CYCLES`]. The
/// length is a `u64` so a config can pass a sum of `u32` phases without
/// wrapping.
pub(crate) fn check_run_cycles(family: &str, cycles: u64) -> Result<(), String> {
    if cycles > u64::from(MAX_CYCLES) {
        return Err(format!(
            "{family} runs {cycles} cycles per trial; at most {MAX_CYCLES} are allowed"
        ));
    }
    Ok(())
}

/// Bus node ids: two CU replicas then four wheel nodes.
pub const CU_A: NodeId = NodeId(0);
/// Second central-unit replica.
pub const CU_B: NodeId = NodeId(1);
/// Wheel nodes, front-left/front-right/rear-left/rear-right.
pub const WHEELS: [NodeId; 4] = [NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
/// All six nodes in slot order; a node's index here is its `NodeId.0`.
pub(crate) const ALL_NODES: [NodeId; 6] = [CU_A, CU_B, WHEELS[0], WHEELS[1], WHEELS[2], WHEELS[3]];

/// A processor fault that essentially always activates: a flipped high PC
/// bit sends execution into unmapped memory.
pub(crate) fn pc_fault() -> TransientFault {
    TransientFault {
        target: FaultTarget::Pc,
        mask: 1 << 20,
    }
}

/// Cluster-level fault to inject in a specific communication cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterInjection {
    /// Cycle in which the fault strikes.
    pub cycle: u32,
    /// Victim node.
    pub node: NodeId,
    /// TEM copy index hit.
    pub copy: u32,
    /// Cycle offset within the copy.
    pub at_cycle: u64,
    /// The machine-level fault.
    pub fault: TransientFault,
}

impl ClusterInjection {
    /// The shortest run [`ClusterInjection::sample`] can place a fault in.
    pub(crate) const MIN_CYCLES: u32 = 3;

    /// Draws one transient over the whole cluster, in this order: the
    /// node, a cycle in `[1, cycles - 1)` (from cycle 1 on a wheel victim
    /// is executing — its first set-point arrives after cycle 0), the TEM
    /// copy, the offset within the copy and the fault from `space`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is below [`ClusterInjection::MIN_CYCLES`]: the
    /// cycle range would be empty.
    pub(crate) fn sample(rng: &mut RngStream, cycles: u32, space: &FaultSpace) -> Self {
        let node = ALL_NODES[rng.uniform_range(0, ALL_NODES.len() as u64) as usize];
        let cycle = rng.uniform_range(1, u64::from(cycles) - 1) as u32;
        ClusterInjection {
            cycle,
            node,
            copy: rng.uniform_range(0, 2) as u32,
            at_cycle: rng.uniform_range(1, 40),
            fault: space.sample(rng),
        }
    }
}

/// Per-cycle observable record.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// Communication cycle number.
    pub cycle: u32,
    /// Pedal input this cycle.
    pub pedal: u32,
    /// Commanded force per wheel (by wheel index), `None` when the wheel
    /// received no set-point or delivered no result.
    pub wheel_force: [Option<u32>; 4],
    /// Nodes in the membership after this cycle.
    pub members: usize,
    /// Whether the CU pair value came from a single replica.
    pub cu_single: bool,
    /// Whether degraded-mode redistribution was active.
    pub degraded: bool,
    /// Membership changes this cycle.
    pub events: Vec<MembershipEvent>,
}

/// Per-run value-domain observability: what the sensor voter, the
/// command acceptors and the actuator monitors saw. All counters are
/// per-[`BbwCluster::run`] deltas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueDomainReport {
    /// Cycles in which at least one pedal channel read out of range and
    /// was clamped (and flagged) at the sensor boundary.
    pub pedal_clamped_cycles: u32,
    /// Per-channel plausibility flags raised across the run.
    pub sensor_implausible_flags: u32,
    /// Sensor channels demoted by the weakly-hard window this run.
    pub sensor_demotions: u32,
    /// Cycles in which the voted pedal deviated from truth beyond the
    /// deviation bound with *no* flag, demotion or clamp raised — silent
    /// sensor failures.
    pub undetected_sensor_cycles: u32,
    /// Commands rejected at a wheel for CRC mismatch or malformed shape.
    pub seal_rejects: u32,
    /// Commands rejected at a wheel as stale, duplicated or too old.
    pub stale_rejects: u32,
    /// All command rejections (seal + freshness).
    pub command_rejects: u32,
    /// Cycles a wheel braked on its held last-safe set-point because the
    /// command stream was rejected or missing.
    pub held_setpoint_cycles: u32,
    /// Injected command corruptions that the acceptor nevertheless
    /// accepted — silent command failures.
    pub undetected_command_accepts: u32,
    /// Actuator monitors tripped this run: `(cycle, wheel node)`. The
    /// actuator is failed to safe release and the wheel goes fail-silent.
    pub actuator_trips: Vec<(u32, NodeId)>,
    /// Cycles an actuator with an active fault overran the monitor
    /// tolerance beyond the detection window without tripping — silent
    /// actuator failures.
    pub undetected_actuator_cycles: u32,
}

impl ValueDomainReport {
    /// Total silent value failures: faults neither masked nor detected.
    pub fn undetected_value_failures(&self) -> u32 {
        self.undetected_sensor_cycles
            + self.undetected_command_accepts
            + self.undetected_actuator_cycles
    }
}

/// Summary of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Every cycle, in order.
    pub records: Vec<CycleRecord>,
    /// Cycles spent in degraded mode.
    pub degraded_cycles: u32,
    /// Omissions observed (a member node missing its slot).
    pub omissions: u32,
    /// `true` if braking service was lost (CU silent or <3 wheels serving).
    pub service_lost: bool,
    /// `true` if the membership majority was lost at any point (≤ 3 of 6
    /// nodes left in the view) — the cluster can no longer tell who failed.
    pub split_membership: bool,
    /// Smallest membership seen in any cycle.
    pub min_members: usize,
    /// For every readmission during the run: cycles between the exclusion
    /// and the matching [`MembershipEvent::Reintegrated`].
    pub reintegration_latencies: Vec<u32>,
    /// Frames rejected by CRC during this run (bus counter delta).
    pub crc_rejects: u64,
    /// Babbling transmissions blocked by the guardian during this run.
    pub guardian_blocks: u64,
    /// Well-formed forged frames rejected by the identity check.
    pub masquerade_rejects: u64,
    /// Wire corruptions that actually landed on a transmitted frame.
    pub corruptions_applied: u64,
    /// Wire masquerades that actually landed on a transmitted frame.
    pub masquerades_applied: u64,
    /// Escalation-ladder transitions of supervised nodes, in cycle order:
    /// `(cycle, node, event)`.
    pub escalations: Vec<(u32, NodeId, EscalationEvent)>,
    /// Restarts scheduled by supervised nodes during this run.
    pub restarts: u32,
    /// Nodes retired by their supervisor during this run.
    pub retired_nodes: Vec<NodeId>,
    /// Startup-protocol milestones (power-ups, cold-start contention,
    /// big-bangs, activations, clique reverts) in cycle order. Empty
    /// unless [`BbwCluster::enable_startup`] was called.
    pub startup_events: Vec<(u32, StartupEvent)>,
    /// Value-domain observability for this run.
    pub value: ValueDomainReport,
    /// Per-wheel weakly-hard (m,k) service contracts in force this run
    /// (index order: front-left, front-right, rear-left, rear-right).
    pub wheel_contracts: [MkContract; 4],
    /// Service misses charged against each wheel's contract: cycles (past
    /// bus warm-up) in which the wheel delivered no brake force.
    pub wheel_contract_misses: [u32; 4],
    /// Contract-violation episodes per wheel, edge-triggered: one per
    /// excursion past the tolerated miss count, however long it lasts.
    pub wheel_contract_violations: [u32; 4],
    /// Core-death faults fired this run: `(cycle, node, survived)`.
    /// Survival is decided by a deterministic multicore simulation of the
    /// node's substrate — only a dual-core node whose resource protocol
    /// tolerates a mid-critical-section core loss rides the death out.
    pub core_deaths: Vec<(u32, NodeId, bool)>,
}

impl ClusterReport {
    /// Records `node`'s escalation-ladder steps taken in `cycle`: the one
    /// place a step enters the report, counting scheduled restarts and
    /// retirements as it goes.
    fn escalate(&mut self, cycle: u32, node: NodeId, events: Vec<EscalationEvent>) {
        for event in events {
            if matches!(event, EscalationEvent::RestartScheduled { .. }) {
                self.restarts += 1;
            }
            if event == EscalationEvent::Retired && !self.retired_nodes.contains(&node) {
                self.retired_nodes.push(node);
            }
            self.escalations.push((cycle, node, event));
        }
    }

    /// The escalation events of one node, in order.
    #[cfg(test)]
    pub(crate) fn escalations_for(&self, node: NodeId) -> Vec<EscalationEvent> {
        self.escalations
            .iter()
            .filter(|(_, n, _)| *n == node)
            .map(|(_, _, e)| *e)
            .collect()
    }
}

/// A node-local intermittent fault: the recurring transient, the job
/// slots elapsed since onset, and a dedicated stream for its recurrence
/// and placement draws.
struct IntermittentRuntime {
    fault: IntermittentFault,
    slots_since_onset: u32,
    rng: RngStream,
}

/// The last TEM job a station ran: what it was asked and what it
/// delivered, so that a repeat of a job that changed nothing costs a
/// compare instead of its copies.
struct LastJob {
    /// Whether the job may stand in for a repeat: it ran with no fault,
    /// its memory held no injected flip, and no word of memory changed
    /// value or fault state while it ran.
    reusable: bool,
    config: TemConfig,
    inputs: Vec<u32>,
    /// The memory's change counter before (and, when reusable, after) it.
    generation: u64,
    outcome: JobOutcome,
    /// The delivered output ports; empty on an omission.
    outputs: Vec<u32>,
}

impl LastJob {
    fn new(config: TemConfig) -> Self {
        LastJob {
            reusable: false,
            config,
            inputs: Vec::new(),
            generation: 0,
            outcome: JobOutcome::DeliveredClean,
            outputs: Vec::new(),
        }
    }

    /// Whether a fault-free job with `config` and `inputs`, on memory at
    /// change count `generation`, repeats this one.
    fn repeated_by(&self, config: TemConfig, inputs: &[u32], generation: u64) -> bool {
        self.reusable
            && self.generation == generation
            && self.config == config
            && self.inputs == inputs
    }
}

struct StationRuntime {
    workload: Workload,
    machine: Machine,
    tem_config: TemConfig,
    /// The last job run on `machine`; see [`StationRuntime::run_job`].
    last: LastJob,
    /// The repeats skipped so far; `None` runs every job, repeats
    /// included, as the differential test's reference.
    #[cfg(test)]
    skipped: Option<u32>,
    /// Task cycles of a clean run, for placing recurring injections.
    clean_cycles: u64,
    /// Remaining cycles of enforced silence (fail-silent restart window).
    silent_for: u32,
    /// Diagnosis + escalation, when this node is supervised.
    supervisor: Option<NodeSupervisor>,
    /// A permanent hardware fault: re-asserted before every instruction of
    /// every copy, and deliberately surviving restarts.
    stuck_at: Option<StuckAtFault>,
    /// A recurring (intermittent) fault attached to this node.
    intermittent: Option<IntermittentRuntime>,
    /// One-shot transients scheduled for this node: `(cycle, plan)`.
    injections: Vec<(u32, InjectionPlan)>,
    /// `Some(protocol)` when this node is modelled as a dual-core station
    /// sharing its wheel/brake state between two cores through the given
    /// resource protocol.
    dual_core: Option<ProtocolKind>,
    /// Whether one of the node's cores has already died (a second death,
    /// or any death on a single-core node, is fatal).
    core_dead: bool,
}

impl StationRuntime {
    fn new(workload: Workload, clean_cycles: u64) -> Self {
        let machine = workload.instantiate();
        let tem_config = TemConfig::with_budget(clean_cycles * 2 + 50);
        StationRuntime {
            workload,
            machine,
            tem_config,
            last: LastJob::new(tem_config),
            #[cfg(test)]
            skipped: Some(0),
            clean_cycles,
            silent_for: 0,
            supervisor: None,
            stuck_at: None,
            intermittent: None,
            injections: Vec::new(),
            dual_core: None,
            core_dead: false,
        }
    }

    /// Whether the escalation ladder holds this node silent.
    fn supervised_silent(&self) -> bool {
        self.supervisor.as_ref().is_some_and(|s| !s.jobs_active())
    }

    /// Advances one silent job slot: restart scheduling/countdown, plus
    /// the intermittent fault's burst clock (wall time passes whether or
    /// not the node executes). A completed restart reboots the machine —
    /// fresh state, same hardware, so a stuck-at survives it.
    fn tick_supervisor(&mut self) -> Vec<EscalationEvent> {
        if let Some(i) = self.intermittent.as_mut() {
            i.slots_since_onset += 1;
        }
        self.ladder_step(NodeSupervisor::tick_silent)
    }

    /// Reboots the node's processor: fresh machine state, same hardware
    /// (a stuck-at survives because it lives in the silicon).
    fn reboot(&mut self) {
        self.machine = self.workload.instantiate();
        // The fresh memory's change count says nothing about the old one.
        self.last.reusable = false;
    }

    /// The startup protocol admitted this node into the majority clique:
    /// release a supervisor parked on the integration gate. A resulting
    /// `Restarted` reboots the machine exactly like an ungated restart.
    fn complete_integration(&mut self) -> Vec<EscalationEvent> {
        self.ladder_step(NodeSupervisor::integration_complete)
    }

    /// Takes one step of the supervisor's ladder, if the node is
    /// supervised; a resulting `Restarted` reboots the machine.
    fn ladder_step(
        &mut self,
        step: fn(&mut NodeSupervisor) -> Vec<EscalationEvent>,
    ) -> Vec<EscalationEvent> {
        let Some(sup) = self.supervisor.as_mut() else {
            return Vec::new();
        };
        let events = step(sup);
        if events.contains(&EscalationEvent::Restarted) {
            self.reboot();
        }
        events
    }

    /// A core-death fault strikes this node; returns whether it survived.
    /// Any death on a single-core node, and a second death on a dual-core
    /// one, is fatal: the node never transmits again, so membership
    /// reports the loss from here on.
    fn lose_core(&mut self, escalated: bool) -> bool {
        let survived = match self.dual_core {
            Some(kind) if !self.core_dead => rides_through_core_death(kind, escalated),
            _ => false,
        };
        self.core_dead = true;
        if !survived {
            self.silent_for = u32::MAX;
        }
        survived
    }

    /// The fault manifesting in this job, in cycle `at`: the node's
    /// persistent faults first, then a one-shot transient scheduled then.
    fn job_fault(&mut self, at: u32) -> Option<JobFault> {
        if let Some(stuck) = self.stuck_at {
            return Some(JobFault::StuckAt(stuck));
        }
        if let Some(i) = self.intermittent.as_mut() {
            let since = i.slots_since_onset;
            i.slots_since_onset += 1;
            if i.fault.manifests(since, &mut i.rng) {
                return Some(JobFault::Transient(InjectionPlan {
                    copy: i.rng.uniform_range(0, 2) as u32,
                    at_cycle: i.rng.uniform_range(1, self.clean_cycles.max(2)),
                    fault: i.fault.fault,
                }));
            }
        }
        let scheduled = self.injections.iter().find(|&&(cycle, _)| cycle == at);
        scheduled.map(|&(_, plan)| JobFault::Transient(plan))
    }

    /// Runs this cycle's job under TEM: its outputs (`None` for an
    /// omission) and the supervisor's ladder steps.
    ///
    /// A fault-free job that repeats the last one, which itself ran
    /// fault-free and changed no word of memory, is not run again: its
    /// recorded outcome and ports stand in for it. That is exact because
    /// * a TEM job is a pure function of the machine's memory (its words
    ///   and their fault state), its inputs, its `TemConfig` and its
    ///   fault, and the change counter vouches for the memory;
    /// * TEM resets the CPU and clears the output ports before every
    ///   copy, and binds the same input ports, so nothing else carries
    ///   over from one job to the next;
    /// * only this method and [`StationRuntime::reboot`] (which drops the
    ///   record) touch the station's machine;
    /// * the decode cache is bit-invisible, so not filling it is too.
    fn run_job(&mut self, inputs: &[u32], at: u32) -> (Option<&[u32]>, Vec<EscalationEvent>) {
        let fault = self.job_fault(at);
        let mut config = self.tem_config;
        if self.supervisor.as_ref().is_some_and(|s| s.tem_triples()) {
            // Suspect / reintegrating: TEM always triples (three copies +
            // majority vote on every job).
            config.min_results = 3;
        }
        let generation = self.machine.mem.generation();
        let repeat = fault.is_none() && self.last.repeated_by(config, inputs, generation);
        #[cfg(test)]
        let repeat = match self.skipped.as_mut() {
            Some(n) if repeat => {
                *n += 1;
                true
            }
            _ => false,
        };
        if !repeat {
            let tem = TemExecutor::new(config);
            let report = tem.run_job_with_fault(&mut self.machine, &self.workload, inputs, fault);
            let mem = &self.machine.mem;
            let last = &mut self.last;
            last.reusable =
                fault.is_none() && mem.faulty_words() == 0 && mem.generation() == generation;
            last.config = config;
            last.generation = generation;
            last.inputs.clear();
            last.inputs.extend_from_slice(inputs);
            last.outcome = report.outcome;
            last.outputs.clear();
            if report.outcome.delivered() {
                let outputs = report.outputs.expect("delivered");
                let ports = &self.workload.output_ports;
                last.outputs
                    .extend(ports.iter().map(|&p| outputs[p].unwrap_or(0)));
            }
        }
        let errored = matches!(
            self.last.outcome,
            JobOutcome::DeliveredMasked { .. } | JobOutcome::Omission { .. }
        );
        let events = self
            .supervisor
            .as_mut()
            .map_or_else(Vec::new, |sup| sup.observe_job(errored));
        let last = &self.last;
        (
            last.outcome.delivered().then_some(&last.outputs[..]),
            events,
        )
    }
}

/// The cluster's two task programs with the cycles of a clean run of
/// each: the CU replicas' brake distribution and the wheels' PID
/// controller.
struct ClusterWorkloads {
    dist: Workload,
    dist_cycles: u64,
    pid: Workload,
    pid_cycles: u64,
}

/// [`ClusterWorkloads`], built once per process. Assembling both programs
/// and golden-running them is a pure function of nothing, so every
/// cluster clones the same result instead of redoing it.
static CLUSTER_WORKLOADS: LazyLock<ClusterWorkloads> = LazyLock::new(|| {
    let (dist, pid) = (workloads::brake_distribution(), workloads::pid_controller());
    ClusterWorkloads {
        dist_cycles: dist.golden_run(&[1000]).1,
        pid_cycles: pid.golden_run(&[1000, 900]).1,
        dist,
        pid,
    }
});

/// Whether a dual-core node under `kind` rides out a core death: replays
/// the death against the node's substrate — the reference 2-core
/// workload with the fault placed mid-critical-section on core 0,
/// exactly as in `nlft_core::run_multicore_campaign`. The node lives iff
/// the surviving core's tasks stay clean — LEFT-RS ignores the dead
/// snapshot holder, a leaked spin lock wedges the lock-based substrate.
fn replay_core_death(kind: ProtocolKind, escalated: bool) -> bool {
    let mut exec = MulticoreExecutive::reference(2, kind);
    if escalated {
        exec.supervise(0, EscalationPolicy::default());
    }
    exec.inject(CoreDeathFault {
        core: 0,
        at_tick: 100,
        in_section: true,
        escalated,
    });
    exec.run(2_000).clean()
}

/// [`replay_core_death`] for both protocols, crash and escalated, built
/// once per process: the replay depends on nothing else.
static CORE_DEATH_RIDE_THROUGH: LazyLock<[[bool; 2]; 2]> = LazyLock::new(|| {
    [ProtocolKind::LockBased, ProtocolKind::LeftRs]
        .map(|kind| [false, true].map(|escalated| replay_core_death(kind, escalated)))
});

/// [`replay_core_death`], looked up in [`CORE_DEATH_RIDE_THROUGH`].
fn rides_through_core_death(kind: ProtocolKind, escalated: bool) -> bool {
    let row = usize::from(kind == ProtocolKind::LeftRs);
    CORE_DEATH_RIDE_THROUGH[row][usize::from(escalated)]
}

/// A wheel's volatile command-path state: what a blackout reset wipes
/// in one assignment.
struct CommandPath {
    /// Seal + freshness check of incoming commands.
    acceptor: CommandAcceptor,
    /// Last command words accepted, kept for replay injection.
    last_words: Option<Vec<u32>>,
    /// Next cycle's set-point: the last accepted one, held while
    /// `hold_left` lasts.
    setpoint: Option<u32>,
    /// Cycles the set-point may still be held without a fresh command.
    hold_left: u32,
}

impl CommandPath {
    fn new() -> Self {
        CommandPath {
            acceptor: CommandAcceptor::new(COMMAND_MAX_AGE),
            last_words: None,
            setpoint: None,
            hold_left: 0,
        }
    }
}

/// One wheel node's brake hardware, command path and service contract.
/// Like the bus, a wheel persists across `run` calls: the brake hardware
/// does not reset between phases of an experiment.
struct Wheel {
    /// This wheel's index in the CU's force payload.
    share: usize,
    actuator: WheelActuator,
    /// Demand-vs-measured divergence monitor. Once it trips, the actuator
    /// is failed to safe release and the node stays fail-silent, so
    /// membership reports the loss.
    monitor: ActuatorMonitor,
    /// Consecutive tolerance-overrun cycles (for silent-failure
    /// accounting — a healthy transient converges within the window).
    overrun_streak: u32,
    command: CommandPath,
    /// Scheduled command corruptions of this wheel's copy,
    /// `(cycle, word, mask)`, and replays of its last accepted command.
    corruptions: Vec<(u32, usize, u32)>,
    replays: Vec<u32>,
    /// The (m,k) service contract and its online monitor.
    contract: MkContract,
    contract_monitor: WeaklyHard,
}

impl Wheel {
    fn new(share: usize, contract: MkContract) -> Self {
        Wheel {
            share,
            actuator: WheelActuator::new(),
            monitor: ActuatorMonitor::new(ActuatorMonitorConfig::default()),
            overrun_streak: 0,
            command: CommandPath::new(),
            corruptions: Vec::new(),
            replays: Vec::new(),
            contract,
            contract_monitor: contract.monitor(),
        }
    }

    /// Drives the actuator with `force` (healthy: a first-order lag) and
    /// feeds the divergence monitor. Returns whether the monitor tripped:
    /// the actuator is then failed to safe release, and the wheel goes
    /// fail-silent at once — membership and the CU handle the rest.
    fn drive(&mut self, cycle: u32, force: u32, value: &mut ValueDomainReport) -> bool {
        let config = ActuatorMonitorConfig::default();
        let measured = self.actuator.apply(cycle, force);
        let verdict = self.monitor.observe(force, measured);
        let fault_active = matches!(self.actuator.fault(), Some((_, onset)) if cycle >= onset);
        if fault_active && !verdict.tripped && measured.abs_diff(force) > config.tolerance {
            self.overrun_streak += 1;
            if self.overrun_streak > config.window_cycles {
                value.undetected_actuator_cycles += 1;
            }
        } else {
            self.overrun_streak = 0;
        }
        if verdict.tripped {
            self.actuator.fail_safe();
        }
        verdict.tripped
    }

    /// The wheel-local command path: takes this cycle's CU words through
    /// the seal and freshness check into next cycle's set-point. A
    /// scheduled replay substitutes the last accepted command and a
    /// scheduled corruption flips bits in the wheel's copy — both *past*
    /// the bus CRC, which is why the application-level seal must catch
    /// them. Only those faults copy the words; a wheel otherwise reads the
    /// CU payload in place.
    fn take_command(&mut self, cycle: u32, sent: Option<&[u32]>, value: &mut ValueDomainReport) {
        let command = &mut self.command;
        let mut injected = self.replays.contains(&cycle);
        let mut presented = if injected {
            command.last_words.clone().map(Cow::Owned)
        } else {
            sent.map(Cow::Borrowed)
        };
        if let Some(words) = presented.as_mut() {
            for &(c, word, mask) in &self.corruptions {
                if c == cycle && word < words.len() && mask != 0 {
                    words.to_mut()[word] ^= mask;
                    injected = true;
                }
            }
        }
        if let Some(words) = presented.as_deref() {
            match command.acceptor.accept(words, cycle) {
                Ok(forces) if forces.len() == 4 => {
                    // An injected command fault the acceptor let through
                    // is a silent value failure.
                    value.undetected_command_accepts += u32::from(injected);
                    command.setpoint = Some(forces[self.share]);
                    command.hold_left = HOLD_CYCLES;
                    let last = command.last_words.get_or_insert_with(Vec::new);
                    last.clear();
                    last.extend_from_slice(words);
                    return;
                }
                Err(CommandReject::Stale { .. } | CommandReject::TooOld { .. }) => {
                    value.stale_rejects += 1;
                }
                // CRC mismatch, malformed frame, or a well-sealed payload
                // of the wrong shape.
                _ => value.seal_rejects += 1,
            }
            value.command_rejects += 1;
        }
        // Hold-last-safe: keep braking on the last accepted set-point for
        // a bounded window, then release and go quiet.
        if command.hold_left > 0 {
            command.hold_left -= 1;
            value.held_setpoint_cycles += 1;
        } else {
            command.setpoint = None;
        }
    }

    /// Charges one recorded cycle against the service contract. Returns
    /// whether a violation episode began: episodes are edge-triggered, so
    /// a long outage counts once per excursion, not once per cycle.
    fn record_service(&mut self, miss: bool) -> bool {
        let was_violated = self.contract_monitor.is_violated();
        self.contract_monitor.record(miss).violated && !was_violated
    }
}

/// What the phases of one communication cycle share before the bus
/// delivers.
struct Cycle {
    /// The bus cycle number.
    at: u32,
    /// What each node may transmit, by `NodeId.0`: nothing while the net
    /// injector holds it down, otherwise what the startup protocol (when
    /// enabled) allows. Stable for the whole cycle.
    intents: [TransmitIntent; 6],
}

/// The running cluster.
pub struct BbwCluster {
    bus: Bus,
    membership: Membership,
    cu_pair: DuplexPair,
    /// The six stations, indexed by `NodeId.0` (CUs 0–1, wheels 2–5).
    stations: [StationRuntime; 6],
    /// Network-level fault injector, when a storm is attached.
    net_injector: Option<NetFaultInjector>,
    /// TTP/C-style startup/reintegration protocol, when enabled. `None`
    /// keeps the pre-startup behaviour: returning nodes simply resume
    /// transmitting in their slot.
    startup: Option<StartupProtocol>,
    /// Per-CU state-resync endpoints, driven when a replica returns from an
    /// outage (index order: `CU_A`, `CU_B`).
    cu_resync: [StateResync; 2],
    /// Whether each CU was silent (enforced or net-crashed) last cycle.
    cu_silent_last: [bool; 2],
    /// Last delivery, fed into the resync endpoints next cycle.
    prev_delivery: Option<CycleDelivery>,
    /// First cycle of each node's current exclusion episode, by `NodeId.0`.
    exclusion_started: [Option<u32>; 6],
    /// Triplicated pedal sensor array feeding both CU replicas.
    pedal_sensors: PedalSensorArray,
    /// The four wheels (index order: front-left, front-right, rear-left,
    /// rear-right).
    wheels: [Wheel; 4],
    /// Scheduled core-death faults: `(cycle, node, escalated)`.
    core_deaths: Vec<(u32, NodeId, bool)>,
}

impl BbwCluster {
    /// Builds the six-node cluster with the standard workloads and a
    /// fixed sensor-noise seed. Campaigns that vary sensor noise per
    /// trial should use [`BbwCluster::with_rng`].
    pub fn new() -> Self {
        BbwCluster::with_rng(RngStream::new(0x00BB_5E50).fork("pedal-sensors"))
    }

    /// Builds the cluster with a dedicated stream for the pedal-sensor
    /// noise draws (healthy channels never draw, so a fixed seed is fine
    /// unless noise-burst faults are attached).
    pub fn with_rng(sensor_rng: RngStream) -> Self {
        let config = BusConfig::round_robin(6, 4);
        let bus = Bus::new(config.clone());
        // Exclusion after 2 silent cycles, reintegration after 2 good ones —
        // scaled-down versions of the paper's 1.6 s / 3 s windows.
        let membership = Membership::new(&config, 2, 2);

        let w = &*CLUSTER_WORKLOADS;
        let cu = || StationRuntime::new(w.dist.clone(), w.dist_cycles);
        let wheel = || StationRuntime::new(w.pid.clone(), w.pid_cycles);
        let cu_pair = DuplexPair::new(CU_A, CU_B);
        BbwCluster {
            bus,
            membership,
            cu_pair,
            stations: [cu(), cu(), wheel(), wheel(), wheel(), wheel()],
            net_injector: None,
            startup: None,
            cu_resync: [CU_A, CU_B].map(|id| StateResync::new(id, cu_pair)),
            cu_silent_last: [false; 2],
            prev_delivery: None,
            exclusion_started: [None; 6],
            pedal_sensors: PedalSensorArray::new(PedalVoterConfig::default(), sensor_rng),
            // The front axle carries most of the braking load, so its
            // service contracts are tighter: at most 1 missed cycle in any
            // 8, against 2-in-8 for the rear wheels.
            wheels: std::array::from_fn(|w| Wheel::new(w, MkContract::new([1, 1, 2, 2][w], 8))),
            core_deaths: Vec::new(),
        }
    }

    /// Attaches a value-domain fault to one pedal sensor channel from
    /// `onset` cycle on. The voter masks it; persistent implausibility
    /// demotes the channel.
    pub fn attach_sensor_fault(&mut self, channel: usize, fault: SensorFault, onset: u32) {
        self.pedal_sensors.attach_fault(channel, fault, onset);
    }

    /// Attaches a value-domain fault to one wheel's brake actuator from
    /// `onset` cycle on. The divergence monitor fails a misbehaving
    /// actuator to its safe release state.
    pub fn attach_actuator_fault(&mut self, wheel: usize, fault: ActuatorFault, onset: u32) {
        self.wheels[wheel].actuator.attach_fault(fault, onset);
    }

    /// Corrupts the command words *as seen by one wheel* in the given
    /// cycle — a wheel-local buffer/RAM fault past the bus CRC, which is
    /// exactly what the application-level seal exists to catch. `word`
    /// indexes the sealed message (`0` = sequence, last = CRC).
    pub fn corrupt_command_at_wheel(&mut self, cycle: u32, wheel: usize, word: usize, mask: u32) {
        if let Some(w) = self.wheels.get_mut(wheel) {
            w.corruptions.push((cycle, word, mask));
        }
    }

    /// Replays the last command one wheel accepted in place of the
    /// current one in the given cycle — a stale-buffer fault. The
    /// freshness check rejects it as stale.
    pub(crate) fn replay_command_at_wheel(&mut self, cycle: u32, wheel: usize) {
        if let Some(w) = self.wheels.get_mut(wheel) {
            w.replays.push(cycle);
        }
    }

    /// Schedules a machine-level fault injection.
    pub fn inject(&mut self, injection: ClusterInjection) {
        if let Some(s) = self.station_mut(injection.node) {
            let plan = InjectionPlan {
                copy: injection.copy,
                at_cycle: injection.at_cycle,
                fault: injection.fault,
            };
            s.injections.push((injection.cycle, plan));
        }
    }

    /// Attaches a network fault-injection plan, driven every cycle of
    /// subsequent [`BbwCluster::run`] calls. `rng` should be a dedicated
    /// fork of the experiment's master stream so cluster decisions and
    /// injection decisions never entangle.
    pub fn attach_net_faults(&mut self, plan: NetFaultPlan, rng: RngStream) {
        self.net_injector = Some(NetFaultInjector::new(plan, rng));
    }

    /// Replaces the attached plan (e.g. to quiesce the storm mid-run);
    /// outage windows already opened keep running. No-op when no storm is
    /// attached.
    pub fn set_net_fault_plan(&mut self, plan: NetFaultPlan) {
        if let Some(inj) = self.net_injector.as_mut() {
            inj.set_plan(plan);
        }
    }

    /// Enables the TTP/C-style startup/reintegration protocol over the
    /// six bus slots. The cluster is assumed already synchronised (every
    /// node starts `Active`, clique avoidance disarmed until the first
    /// heard majority); nodes knocked out by a blackout then re-enter
    /// service through Listen → cold-start contention → integration
    /// instead of simply transmitting again, and supervisors with
    /// [`EscalationPolicy::gate_reintegration`] set park on the
    /// integration gate until the protocol activates their node.
    pub fn enable_startup(&mut self) {
        self.startup = Some(StartupProtocol::all_active(StartupConfig::for_bus(
            self.bus.config(),
        )));
    }

    /// Startup metrics accumulated so far (`None` while disabled).
    pub fn startup_metrics(&self) -> Option<&StartupMetrics> {
        self.startup.as_ref().map(|s| s.metrics())
    }

    /// Injection decisions taken by the attached storm so far.
    pub(crate) fn net_injection_counts(&self) -> InjectionCounts {
        self.net_injector
            .as_ref()
            .map(|i| i.counts())
            .unwrap_or_default()
    }

    /// Forces a node silent for `cycles` cycles (models a fail-silent
    /// restart window without machine-level detail).
    pub fn silence_node(&mut self, node: NodeId, cycles: u32) {
        if let Some(s) = self.station_mut(node) {
            s.silent_for = cycles;
        }
    }

    /// `node`'s station; `None` for an id outside the cluster.
    fn station_mut(&mut self, node: NodeId) -> Option<&mut StationRuntime> {
        self.stations.get_mut(usize::from(node.0))
    }

    /// Replaces the per-wheel (m,k) service contracts (index order:
    /// front-left, front-right, rear-left, rear-right) and resets their
    /// monitors. The defaults hold the front axle to at most 1 missed
    /// cycle in any 8 and the rear axle to 2-in-8.
    pub(crate) fn set_wheel_contracts(&mut self, contracts: [MkContract; 4]) {
        for (wheel, contract) in self.wheels.iter_mut().zip(contracts) {
            wheel.contract = contract;
            wheel.contract_monitor = contract.monitor();
        }
    }

    /// Models `node` as a dual-core station whose two cores share their
    /// wheel/brake state through `protocol`. A scheduled core-death fault
    /// (see [`BbwCluster::attach_core_death`]) then becomes survivable:
    /// the node rides it out on the remaining core iff the protocol keeps
    /// the shared state reachable when a core dies mid-critical-section.
    pub(crate) fn enable_dual_core(&mut self, node: NodeId, protocol: ProtocolKind) {
        if let Some(s) = self.station_mut(node) {
            s.dual_core = Some(protocol);
        }
    }

    /// Schedules a core-death fault on `node` in the given cycle.
    /// `escalated` means the dying core is walked down the escalation
    /// ladder to fail-silence (orderly — held resources are revoked)
    /// instead of crashing mid-instruction. Whether the node survives is
    /// decided by a deterministic [`MulticoreExecutive`] replay of its
    /// substrate; any death on a single-core node, and a second death on
    /// a dual-core one, is always fatal.
    pub(crate) fn attach_core_death(&mut self, cycle: u32, node: NodeId, escalated: bool) {
        self.core_deaths.push((cycle, node, escalated));
    }

    /// Puts `node` under a diagnosis supervisor: its TEM error stream
    /// feeds an α-count, and the escalation ladder silences, restarts,
    /// reintegrates or retires the node. The resulting
    /// [`EscalationEvent`]s land in [`ClusterReport::escalations`].
    pub fn supervise(&mut self, node: NodeId, alpha: AlphaCountConfig, policy: EscalationPolicy) {
        if let Some(s) = self.station_mut(node) {
            s.supervisor = Some(NodeSupervisor::new(alpha, policy));
        }
    }

    /// Supervises all six nodes with the same configuration.
    pub(crate) fn supervise_all(&mut self, alpha: AlphaCountConfig, policy: EscalationPolicy) {
        for id in ALL_NODES {
            self.supervise(id, alpha, policy);
        }
    }

    /// Attaches a permanent stuck-at fault to `node`'s processor. It is
    /// re-asserted before every instruction of every TEM copy and — being
    /// hardware — survives node restarts.
    pub(crate) fn attach_stuck_at(&mut self, node: NodeId, fault: StuckAtFault) {
        if let Some(s) = self.station_mut(node) {
            s.stuck_at = Some(fault);
        }
    }

    /// Attaches an intermittent fault to `node`: from the next job slot
    /// on, the transient recurs with the fault's recurrence probability
    /// until its burst expires. `rng` should be a dedicated fork of the
    /// experiment's master stream.
    pub(crate) fn attach_intermittent(
        &mut self,
        node: NodeId,
        fault: IntermittentFault,
        rng: RngStream,
    ) {
        if let Some(s) = self.station_mut(node) {
            s.intermittent = Some(IntermittentRuntime {
                fault,
                slots_since_onset: 0,
                rng,
            });
        }
    }

    /// The ladder position of a supervised node (`None` when the node is
    /// not supervised).
    pub(crate) fn node_health(&self, node: NodeId) -> Option<NodeHealth> {
        self.stations
            .get(usize::from(node.0))
            .and_then(|s| s.supervisor.as_ref())
            .map(|sup| sup.health())
    }

    /// Runs the cluster for `cycles` communication cycles with the given
    /// pedal profile (the *true* pedal position per cycle; the cluster
    /// reads it through the triplicated sensor array, which clamps and
    /// flags out-of-range values at the boundary). May be called
    /// repeatedly: bus, membership, injector, sensor, acceptor and
    /// actuator state persist, so a storm phase can be followed by a
    /// quiet phase on the same cluster.
    pub fn run(&mut self, cycles: u32, pedal: impl Fn(u32) -> u32) -> ClusterReport {
        let mut report = self.start_report(cycles);
        for cycle in 0..cycles {
            self.step(pedal(cycle), &mut report);
        }
        self.finish_report(&mut report);
        report
    }

    /// An empty report for a run of `cycles` starting now. Until
    /// [`BbwCluster::finish_report`], its bus counters and its
    /// undetected-sensor count hold the cumulative counts at the start.
    fn start_report(&self, cycles: u32) -> ClusterReport {
        ClusterReport {
            records: Vec::with_capacity(cycles as usize),
            degraded_cycles: 0,
            omissions: 0,
            service_lost: false,
            split_membership: false,
            min_members: self.membership.members().len(),
            reintegration_latencies: Vec::new(),
            crc_rejects: self.bus.crc_rejects(),
            guardian_blocks: self.bus.guardian_blocks(),
            masquerade_rejects: self.bus.masquerade_rejects(),
            corruptions_applied: self.bus.corruptions_applied(),
            masquerades_applied: self.bus.masquerades_applied(),
            escalations: Vec::new(),
            restarts: 0,
            retired_nodes: Vec::new(),
            startup_events: Vec::new(),
            value: ValueDomainReport {
                undetected_sensor_cycles: self.pedal_sensors.stats().undetected_error_cycles,
                ..ValueDomainReport::default()
            },
            wheel_contracts: self.wheels.each_ref().map(|w| w.contract),
            wheel_contract_misses: [0; 4],
            wheel_contract_violations: [0; 4],
            core_deaths: Vec::new(),
        }
    }

    /// Turns the cumulative counts [`BbwCluster::start_report`] left in
    /// `report` into this run's deltas.
    fn finish_report(&self, report: &mut ClusterReport) {
        let bus = &self.bus;
        report.crc_rejects = bus.crc_rejects() - report.crc_rejects;
        report.guardian_blocks = bus.guardian_blocks() - report.guardian_blocks;
        report.masquerade_rejects = bus.masquerade_rejects() - report.masquerade_rejects;
        report.corruptions_applied = bus.corruptions_applied() - report.corruptions_applied;
        report.masquerades_applied = bus.masquerades_applied() - report.masquerades_applied;
        let sensors = self.pedal_sensors.stats().undetected_error_cycles;
        report.value.undetected_sensor_cycles = sensors - report.value.undetected_sensor_cycles;
    }

    /// One communication cycle (Fig. 4), phase by phase: the network storm
    /// and blackout resets, core deaths, the pedal vote, the CU and wheel
    /// jobs behind the slot gate, the integration gate; then, on what the
    /// bus delivered, omissions, startup and membership, the duplex value
    /// into the wheels' command paths, and service and contract
    /// accounting.
    fn step(&mut self, true_pedal: u32, report: &mut ClusterReport) {
        self.bus.start_cycle();
        let cycle = self.perturb_network();
        let at = cycle.at;
        self.fire_core_deaths(at, report);
        let pedal = self.read_pedal(at, true_pedal, &mut report.value);
        self.run_cus(&cycle, pedal, report);
        self.run_wheels(&cycle, report);
        self.integration_gate(at, report);

        let delivery = self.bus.finish_cycle();
        let events = self.observe_delivery(at, &delivery, report);
        let cu_single = self.deliver_commands(at, &delivery, &mut report.value);
        let record = CycleRecord {
            cycle: at,
            pedal,
            wheel_force: WHEELS.map(|id| {
                delivery
                    .from_node(self.bus.config(), id)
                    .and_then(|f| f.payload.first().copied())
            }),
            members: self.membership.members().len(),
            cu_single,
            degraded: self.serving_wheels() < 4,
            events,
        };
        self.account(&record, report);
        report.records.push(record);
        self.prev_delivery = Some(delivery);
    }

    /// The network storm and blackout resets. The storm goes first: it
    /// decides this cycle's wire faults and which nodes crash/clock
    /// outages hold down. Blackout victims then lose their volatile state
    /// (processor and command path) and, when the startup protocol is
    /// on, re-enter service through Listen / cold-start contention.
    fn perturb_network(&mut self) -> Cycle {
        let net_silenced = match self.net_injector.as_mut() {
            Some(injector) => injector.perturb_cycle(&mut self.bus),
            None => Vec::new(),
        };
        let at = self.bus.cycle();
        let resets = self.net_injector.as_ref().map(|i| i.resets_this_cycle());
        for &(node, down) in resets.unwrap_or_default() {
            if let Some(st) = self.startup.as_mut() {
                st.reset_node(node, down, at);
            }
            if let Some(station) = self.stations.get_mut(usize::from(node.0)) {
                station.reboot();
            }
            if let Some(w) = WHEELS.iter().position(|&id| id == node) {
                self.wheels[w].command = CommandPath::new();
            }
        }
        let intents = ALL_NODES.map(|id| match &self.startup {
            _ if net_silenced.contains(&id) => TransmitIntent::Silent,
            Some(st) => st.intent(id),
            None => TransmitIntent::Normal,
        });
        Cycle { at, intents }
    }

    /// Core-death faults scheduled for this cycle, fired before the nodes
    /// execute: a dual-core node survives iff the deterministic replay of
    /// its substrate stays clean under its resource protocol; anything
    /// else drops fail-silent for good.
    fn fire_core_deaths(&mut self, at: u32, report: &mut ClusterReport) {
        for &(cycle, node, escalated) in &self.core_deaths {
            if cycle == at {
                let station = self.stations.get_mut(usize::from(node.0));
                let survived = station.is_some_and(|s| s.lose_core(escalated));
                report.core_deaths.push((at, node, survived));
            }
        }
    }

    /// Reads the pedal through the triplicated sensor array: the voter
    /// masks channel faults, clamps out-of-range readings at the boundary
    /// and demotes persistently implausible channels. Returns the vote.
    fn read_pedal(&mut self, at: u32, true_pedal: u32, value: &mut ValueDomainReport) -> u32 {
        let sample = self.pedal_sensors.sample(at, true_pedal);
        if sample.clamped {
            value.pedal_clamped_cycles += 1;
        }
        value.sensor_implausible_flags += sample.implausible.iter().filter(|&&f| f).count() as u32;
        if sample.demoted_now.is_some() {
            value.sensor_demotions += 1;
        }
        sample.voted
    }

    /// Central units: past the slot gate, each replica computes the 4-way
    /// force distribution under TEM and sends it sealed.
    fn run_cus(&mut self, cycle: &Cycle, pedal: u32, report: &mut ClusterReport) {
        for (c, id) in [CU_A, CU_B].into_iter().enumerate() {
            let runs = self.slot_gate(id, cycle, report);
            if self.cu_silent_last[c] && runs {
                // The replica returns: it resumes transmitting at once
                // (the distribution task is stateless) while refreshing
                // soft state from its partner over the dynamic segment.
                self.cu_resync[c].begin_resync();
            }
            self.cu_silent_last[c] = !runs;
            if !runs {
                continue;
            }
            let station = &mut self.stations[usize::from(id.0)];
            let (result, events) = station.run_job(&[pedal], cycle.at);
            report.escalate(cycle.at, id, events);
            let mut our_state: Vec<u32> = Vec::new();
            if let Some(outputs) = result {
                // Degraded-mode redistribution: scale the shares of the
                // serving wheels when some are out of the membership.
                let serving = WHEELS.map(|n| self.membership.is_member(n));
                let scale_den = serving.iter().filter(|&&s| s).count() as u32;
                let mut payload = vec![0u32; 4];
                for w in (0..4).filter(|&w| serving[w]) {
                    payload[w] = outputs[w] * 4 / scale_den;
                }
                // Seal the set-points with a sequence number and CRC: the
                // wheel-side acceptor can then reject corrupted, stale or
                // replayed commands even when the corruption happens past
                // the bus CRC.
                let words = FreshSealedMessage::seal(cycle.at, payload).into_words();
                our_state = words.clone();
                let _ = self.bus.transmit_static(id, words);
            }
            let resync = &mut self.cu_resync[c];
            resync.tick(&mut self.bus);
            if let Some(prev) = &self.prev_delivery {
                let _ = resync.process_cycle(&mut self.bus, prev, &our_state);
            }
        }
    }

    /// Wheel nodes: past the slot gate, each runs PID on last cycle's
    /// set-point, drives its actuator under the divergence monitor and
    /// sends the force.
    fn run_wheels(&mut self, cycle: &Cycle, report: &mut ClusterReport) {
        for (w, id) in WHEELS.into_iter().enumerate() {
            if self.wheels[w].monitor.tripped() {
                // Failed-safe actuator: the brake releases and the node
                // stays fail-silent, so membership keeps it excluded and
                // the CU redistributes its share.
                self.wheels[w].actuator.apply(cycle.at, 0);
                continue;
            }
            if !self.slot_gate(id, cycle, report) {
                continue;
            }
            let wheel = &mut self.wheels[w];
            let sp = wheel.command.setpoint.expect("gated on a set-point");
            let inputs = [sp, wheel.actuator.measured()];
            let (result, events) = self.stations[usize::from(id.0)].run_job(&inputs, cycle.at);
            report.escalate(cycle.at, id, events);
            let Some(outputs) = result else {
                continue;
            };
            let force = outputs[0];
            if wheel.drive(cycle.at, force, &mut report.value) {
                report.value.actuator_trips.push((cycle.at, id));
            } else {
                let _ = self.bus.transmit_static(id, vec![force]);
            }
        }
    }

    /// The slot gate every node passes before its job, CUs and wheels
    /// alike. A node in cold-start contention sends only the marker
    /// offering its own time base. A node held down by the network outage,
    /// listening for a time base, or held silent by the escalation ladder
    /// does not execute, but wall time passes, so its supervisor's restart
    /// clock runs. A wheel with no set-point (none sent yet, or the CU
    /// silent beyond the hold window) stays quiet, and enforced silence
    /// (`silent_for`) passes, both without a tick. Returns whether the
    /// node runs its job.
    fn slot_gate(&mut self, id: NodeId, cycle: &Cycle, report: &mut ClusterReport) -> bool {
        let i = usize::from(id.0);
        let station = &mut self.stations[i];
        // Stations 2–5 are the wheels.
        let wheel = i.checked_sub(2).map(|w| &self.wheels[w]);
        let held = match cycle.intents[i] {
            TransmitIntent::ColdStartFrame => {
                let _ = self
                    .bus
                    .transmit_static(id, vec![COLD_START_MARKER, cycle.at]);
                return false;
            }
            TransmitIntent::Silent => true,
            // A wheel consults the ladder before its set-point and
            // `silent_for`; a CU consults `silent_for` first.
            _ if wheel.is_some() && station.supervised_silent() => true,
            _ if wheel.is_some_and(|w| w.command.setpoint.is_none()) => return false,
            _ if station.silent_for > 0 => {
                station.silent_for -= 1;
                return false;
            }
            TransmitIntent::Normal => station.supervised_silent(),
        };
        if held {
            report.escalate(cycle.at, id, station.tick_supervisor());
        }
        !held
    }

    /// Supervisors whose restart window elapsed under a gated policy park
    /// on the integration gate. Route them into the startup protocol
    /// (re-entering through Listen), or — with no protocol to gate on —
    /// admit them at once.
    fn integration_gate(&mut self, at: u32, report: &mut ClusterReport) {
        for (station, id) in self.stations.iter_mut().zip(ALL_NODES) {
            if !matches!(&station.supervisor, Some(sup) if sup.awaiting_integration()) {
                continue;
            }
            match self.startup.as_mut() {
                Some(st) if st.is_active(id) => st.reset_node(id, 0, at),
                Some(_) => {}
                None => report.escalate(at, id, station.complete_integration()),
            }
        }
    }

    /// What the bus delivered, seen by omission counting, the startup
    /// protocol and membership in that order. Returns the membership
    /// changes.
    fn observe_delivery(
        &mut self,
        at: u32,
        delivery: &CycleDelivery,
        report: &mut ClusterReport,
    ) -> Vec<MembershipEvent> {
        // Omissions: nodes that were members going *into* this cycle but
        // missed their slot. Wheels only start transmitting once the
        // first set-points arrive (cycle 1), so their silent first cycle
        // is not an omission.
        for id in ALL_NODES {
            let expected = id == CU_A || id == CU_B || at > 0;
            if expected
                && self.membership.is_member(id)
                && delivery.from_node(self.bus.config(), id).is_none()
            {
                report.omissions += 1;
            }
        }
        // Startup transitions. An `Activated` node has been counted into
        // the majority clique: release its parked supervisor, if any.
        if let Some(st) = self.startup.as_mut() {
            for ev in st.observe(at, delivery) {
                if let StartupEvent::Activated(n) = ev {
                    if let Some(station) = self.stations.get_mut(usize::from(n.0)) {
                        report.escalate(at, n, station.complete_integration());
                    }
                }
                report.startup_events.push((at, ev));
            }
        }
        // Membership, timing each readmission since its exclusion.
        let events = self.membership.observe(delivery);
        for ev in &events {
            match *ev {
                MembershipEvent::Excluded(n) => {
                    self.exclusion_started[usize::from(n.0)] = Some(at);
                }
                MembershipEvent::Reintegrated(n) => {
                    if let Some(started) = self.exclusion_started[usize::from(n.0)].take() {
                        report.reintegration_latencies.push(at - started);
                    }
                }
            }
        }
        events
    }

    /// Consumes the CU duplex value into next cycle's wheel set-points.
    /// The selection is membership-aware: a replica still outside the view
    /// (excluded, or restarted and not yet readmitted) cannot poison the
    /// pair with stale state. Returns whether the value came from a single
    /// replica.
    fn deliver_commands(
        &mut self,
        at: u32,
        delivery: &CycleDelivery,
        value: &mut ValueDomainReport,
    ) -> bool {
        let membership = &self.membership;
        let cu_value = select_duplex_among(self.bus.config(), delivery, self.cu_pair, |n| {
            membership.is_member(n)
        });
        for wheel in &mut self.wheels {
            wheel.take_command(at, cu_value.payload(), value);
        }
        matches!(cu_value, DuplexValue::Single { .. })
    }

    /// Wheels in the membership.
    fn serving_wheels(&self) -> usize {
        WHEELS
            .iter()
            .filter(|&&w| self.membership.is_member(w))
            .count()
    }

    /// Service and contract accounting for one recorded cycle: degraded
    /// mode, lost service (no CU, or fewer than three wheels serving), a
    /// split membership, and the per-wheel weakly-hard service contracts —
    /// once the bus has warmed up, a wheel delivering no brake force is
    /// charged one miss against its (m,k) contract.
    fn account(&mut self, record: &CycleRecord, report: &mut ClusterReport) {
        if record.degraded {
            report.degraded_cycles += 1;
        }
        let cu_alive = self.membership.is_member(CU_A) || self.membership.is_member(CU_B);
        if !cu_alive || self.serving_wheels() < 3 {
            report.service_lost = true;
        }
        if record.cycle > 0 {
            for (w, wheel) in self.wheels.iter_mut().enumerate() {
                let miss = record.wheel_force[w].is_none();
                if miss {
                    report.wheel_contract_misses[w] += 1;
                }
                if wheel.record_service(miss) {
                    report.wheel_contract_violations[w] += 1;
                }
            }
        }
        report.min_members = report.min_members.min(record.members);
        if record.members <= 3 {
            report.split_membership = true;
        }
    }
}

impl Default for BbwCluster {
    fn default() -> Self {
        BbwCluster::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_machine::mem::EccStats;
    use nlft_net::inject::{BlackoutSpec, NetFaultRates};
    use nlft_testkit::rng::TkRng;

    fn constant_pedal(_: u32) -> u32 {
        1000
    }

    /// Corrupts every frame `node` sends in cycles `[from, until)`: the
    /// injector flips one or two bits, which the frame CRC always rejects.
    fn garble_frames(cluster: &mut BbwCluster, node: NodeId, from: u32, until: u32) {
        let rates = NetFaultRates {
            corruption: 1.0,
            ..NetFaultRates::QUIET
        };
        let plan = NetFaultPlan::quiet()
            .with_node(node, rates)
            .window(from, until);
        cluster.attach_net_faults(plan, RngStream::new(0xC0DE).fork("net-injector"));
    }

    /// A braking profile that ramps, holds and dips, so set-points change
    /// from cycle to cycle.
    fn ramp_pedal(cycle: u32) -> u32 {
        match cycle % 24 {
            c @ 0..=11 => 300 + 220 * c,
            c => 2_800 - 90 * c,
        }
    }

    /// The `Debug` text of every report of a seeded sweep over the
    /// cluster's entry points, one line per report: one-shot, stuck-at and
    /// intermittent faults, core deaths under both protocols, value-domain
    /// faults, enforced silence on supervised CUs and wheels, the startup
    /// protocol under a blackout, replaced contracts and a storm followed
    /// by a quiet phase.
    fn cluster_sweep_text() -> String {
        use std::fmt::Write;
        let root = RngStream::new(0xC1A5_7E55);
        let mut text = String::new();
        fn pin(text: &mut String, case: &str, i: u64, observed: &dyn std::fmt::Debug) {
            writeln!(text, "{case} {i} {observed:?}").expect("write to string");
        }
        let stuck = StuckAtFault {
            target: FaultTarget::Pc,
            bit: 1 << 20,
            stuck_high: true,
        };
        let intermittent = IntermittentFault {
            fault: pc_fault(),
            recurrence: 0.9,
            burst_jobs: 12,
        };

        for i in 0..8 {
            let mut rng = root.fork_indexed("inject", i);
            let mut cluster = BbwCluster::new();
            for _ in 0..=i % 3 {
                cluster.inject(ClusterInjection::sample(
                    &mut rng,
                    16,
                    &FaultSpace::cpu_only(),
                ));
            }
            pin(&mut text, "inject", i, &cluster.run(16, ramp_pedal));
        }

        for (i, &node) in (0..).zip(&ALL_NODES) {
            let mut cluster = BbwCluster::new();
            if i % 2 == 1 {
                cluster.supervise(
                    node,
                    AlphaCountConfig::default(),
                    EscalationPolicy::default(),
                );
            }
            cluster.attach_stuck_at(node, stuck);
            pin(&mut text, "stuck-at", i, &cluster.run(40, ramp_pedal));
        }

        for (i, &node) in (0..).zip(&ALL_NODES) {
            let mut cluster = BbwCluster::new();
            cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
            cluster.attach_intermittent(node, intermittent, root.fork_indexed("intermittent", i));
            pin(&mut text, "intermittent", i, &cluster.run(45, ramp_pedal));
        }

        let protocols = [
            None,
            Some(ProtocolKind::LockBased),
            Some(ProtocolKind::LeftRs),
        ];
        for (i, (protocol, escalated)) in (0..).zip(
            protocols
                .into_iter()
                .flat_map(|p| [false, true].map(|e| (p, e))),
        ) {
            let node = [CU_B, WHEELS[0], WHEELS[3]][i as usize % 3];
            let mut cluster = BbwCluster::new();
            if let Some(kind) = protocol {
                cluster.enable_dual_core(node, kind);
            }
            cluster.attach_core_death(4, node, escalated);
            if i % 2 == 0 {
                cluster.attach_core_death(9, node, !escalated);
            }
            pin(&mut text, "core-death", i, &cluster.run(16, ramp_pedal));
        }

        let sensor_faults = [
            SensorFault::StuckAt(4095),
            SensorFault::Offset(-900),
            SensorFault::Drift { per_cycle: 80 },
            SensorFault::NoiseBurst {
                amplitude: 2000,
                cycles: 6,
            },
        ];
        let actuator_faults = [
            ActuatorFault::Stuck,
            ActuatorFault::Runaway { step: 400 },
            ActuatorFault::Offset(150),
            ActuatorFault::Offset(-40),
        ];
        for i in 0..8 {
            let mut rng = root.fork_indexed("value", i);
            let mut cluster = BbwCluster::with_rng(rng.fork("pedal-sensors"));
            let k = i as usize;
            cluster.attach_sensor_fault(k % 3, sensor_faults[k % 4], 2 + i as u32);
            cluster.attach_actuator_fault((k + 1) % 4, actuator_faults[(k / 2) % 4], 3);
            let wheel = rng.uniform_range(0, 4) as usize;
            let word = rng.uniform_range(0, 6) as usize;
            let mask = 1 << rng.uniform_range(0, 32);
            cluster.corrupt_command_at_wheel(5 + i as u32 % 4, wheel, word, mask);
            cluster.replay_command_at_wheel(7 + i as u32 % 5, (wheel + k) % 4);
            let report = if i == 7 {
                cluster.run(24, |c| if c % 5 == 0 { 100_000 } else { 1500 })
            } else {
                cluster.run(24, ramp_pedal)
            };
            pin(&mut text, "value", i, &report);
        }

        // Enforced silence laid over a supervisor's own silent window, on
        // a CU and on a wheel: the two gate the job slot in a different
        // order.
        for (i, (node, warm)) in (0..).zip(
            [CU_A, WHEELS[1]]
                .into_iter()
                .flat_map(|n| [0, 6, 9, 12, 15].map(|w| (n, w))),
        ) {
            let mut cluster = BbwCluster::new();
            cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
            cluster.attach_intermittent(node, intermittent, root.fork_indexed("silence", i));
            pin(&mut text, "silence-warm", i, &cluster.run(warm, ramp_pedal));
            cluster.silence_node(node, 5);
            pin(&mut text, "silence", i, &cluster.run(36, ramp_pedal));
        }

        for i in 0..6 {
            let mut cluster = BbwCluster::new();
            if i < 4 {
                cluster.enable_startup();
            }
            cluster.supervise_all(
                AlphaCountConfig::default(),
                EscalationPolicy {
                    gate_reintegration: i % 2 == 1,
                    ..EscalationPolicy::default()
                },
            );
            cluster.attach_intermittent(
                WHEELS[(i % 4) as usize],
                intermittent,
                root.fork_indexed("startup-intermittent", i),
            );
            let victims = [
                vec![CU_A, WHEELS[2]],
                vec![CU_A, CU_B, WHEELS[0], WHEELS[1]],
                vec![WHEELS[1], WHEELS[3]],
            ];
            let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
                at_cycle: 6 + i as u32,
                nodes: victims[(i % 3) as usize].clone(),
                down_cycles: 2 + i as u32 % 2,
                stagger: i as u32 % 3,
            });
            cluster.attach_net_faults(plan, root.fork_indexed("startup-net", i));
            let report = cluster.run(48, ramp_pedal);
            pin(&mut text, "startup", i, &report);
            pin(&mut text, "startup-metrics", i, &cluster.startup_metrics());
        }

        for i in 0..3 {
            let mut cluster = BbwCluster::new();
            cluster.set_wheel_contracts([
                MkContract::new(i, 4),
                MkContract::new(1, 4),
                MkContract::new(3, 8),
                MkContract::new(i, 8),
            ]);
            cluster.silence_node(WHEELS[i as usize], 2 + i);
            cluster.silence_node(WHEELS[3], 3);
            pin(
                &mut text,
                "contracts",
                u64::from(i),
                &cluster.run(24, ramp_pedal),
            );
        }

        for i in 0..4 {
            let mut rng = root.fork_indexed("two-phase", i);
            let mut cluster = BbwCluster::new();
            let intensity = 0.3 + 0.15 * i as f64;
            let plan = NetFaultPlan::quiet()
                .with_nodes(&ALL_NODES, NetFaultRates::storm(intensity))
                .with_dynamic(0.1 * intensity, 0.1 * intensity);
            cluster.attach_net_faults(plan, rng.fork("net-injector"));
            if i % 2 == 0 {
                cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default());
            }
            cluster.inject(ClusterInjection::sample(
                &mut rng,
                20,
                &FaultSpace::cpu_only(),
            ));
            pin(&mut text, "storm", i, &cluster.run(20, ramp_pedal));
            cluster.set_net_fault_plan(NetFaultPlan::quiet());
            pin(&mut text, "calm", i, &cluster.run(14, ramp_pedal));
            pin(
                &mut text,
                "storm-counts",
                i,
                &cluster.net_injection_counts(),
            );
        }
        text
    }

    /// Bit-level pin of [`BbwCluster::run`]: a change that claims to leave
    /// the cluster's behaviour alone must leave every report of the sweep
    /// — records, escalations in order, startup events, the value report,
    /// core deaths — where it is.
    #[test]
    fn cluster_report_sweep_digest_is_pinned() {
        let text = cluster_sweep_text();
        assert_eq!(text.lines().count(), 81);
        assert_eq!(
            nlft_sim::crc::crc32(text.as_bytes()),
            0xF3AB_2196,
            "cluster sweep digest moved"
        );
    }

    /// How the differential test's pedal moves: `levels` in turn, each
    /// held for `hold` cycles.
    #[derive(Debug)]
    struct Pedal {
        levels: [u32; 3],
        hold: u32,
    }

    impl Pedal {
        fn at(&self, cycle: u32) -> u32 {
            self.levels[(cycle / self.hold) as usize % 3]
        }
    }

    /// The network faults of a differential case.
    #[derive(Debug)]
    enum NetCase {
        Quiet,
        /// A storm over every node at this intensity, quiet in phase two.
        Storm(f64),
        /// The startup protocol and a blackout: its start, the victims'
        /// index in `BLACKOUT_VICTIMS`, its length and stagger.
        Blackout(u32, usize, u32, u32),
    }

    const BLACKOUT_VICTIMS: [&[NodeId]; 3] = [
        &[CU_A, WHEELS[2]],
        &[CU_A, CU_B, WHEELS[0], WHEELS[1]],
        &[WHEELS[1], WHEELS[3]],
    ];

    /// One random cluster of the repeat-skip differential: faults,
    /// supervision and storms through the sweep's entry points, run for
    /// `cycles.0`, then (after an optional enforced silence) `cycles.1`.
    #[derive(Debug)]
    struct SkipCase {
        seed: u64,
        pedal: Pedal,
        cycles: (u32, u32),
        supervise: Option<usize>,
        injections: u32,
        memory_faults: bool,
        /// A double-bit flip ECC cannot correct: its cycle, node and
        /// word address (in the code or at the state window).
        double_flip: Option<(u32, usize, u32)>,
        stuck_at: Option<usize>,
        intermittent: Option<(usize, f64)>,
        core_death: Option<(u32, usize, Option<ProtocolKind>, bool)>,
        value_faults: bool,
        net: NetCase,
        silence: Option<(usize, u32)>,
    }

    /// What the differential compares: every report's and the startup
    /// metrics' `Debug` text, then each station's memory words and ECC
    /// counters.
    type SkipRun = (String, Vec<(Vec<u32>, EccStats)>);

    impl SkipCase {
        fn draw(r: &mut TkRng) -> Self {
            let node = |r: &mut TkRng| r.usize_range(0, 6);
            let some = |r: &mut TkRng| r.range(0, 3) == 0;
            let level = |r: &mut TkRng| match r.range(0, 8) {
                0 => 100_000,
                _ => r.range(0, 4096) as u32,
            };
            let cycles = (r.range(3, 40) as u32, r.range(0, 20) as u32);
            SkipCase {
                seed: r.next_u64(),
                pedal: Pedal {
                    levels: [level(r), level(r), level(r)],
                    hold: [1, 2, 5, 12, 1000][r.usize_range(0, 5)],
                },
                cycles,
                supervise: some(r).then(|| r.usize_range(0, 7)),
                injections: r.range(0, 3) as u32,
                memory_faults: r.bool(),
                double_flip: some(r).then(|| {
                    let word = r.range(0, 48) as u32 * 4;
                    let addr = if r.bool() {
                        word
                    } else {
                        workloads::DATA_BASE + word
                    };
                    (r.range(1, cycles.0 as u64 - 1) as u32, node(r), addr)
                }),
                stuck_at: (r.range(0, 8) == 0).then(|| node(r)),
                intermittent: some(r).then(|| (node(r), [0.2, 0.9][r.usize_range(0, 2)])),
                core_death: some(r).then(|| {
                    let protocol = [
                        None,
                        Some(ProtocolKind::LockBased),
                        Some(ProtocolKind::LeftRs),
                    ][r.usize_range(0, 3)];
                    (r.range(0, 30) as u32, node(r), protocol, r.bool())
                }),
                value_faults: some(r),
                net: match r.range(0, 4) {
                    0 => NetCase::Storm(r.f64_range(0.05, 0.6)),
                    1 => NetCase::Blackout(
                        r.range(2, 12) as u32,
                        r.usize_range(0, 3),
                        r.range(1, 4) as u32,
                        r.range(0, 3) as u32,
                    ),
                    _ => NetCase::Quiet,
                },
                silence: some(r).then(|| (node(r), r.range(1, 8) as u32)),
            }
        }

        /// Builds and runs the case, skipping repeated jobs or not.
        fn run(&self, skip: bool) -> SkipRun {
            let root = RngStream::new(self.seed);
            let mut rng = root.fork("faults");
            let mut cluster = BbwCluster::with_rng(root.fork("pedal-sensors"));
            for station in &mut cluster.stations {
                station.skipped = skip.then_some(0);
            }
            match self.supervise {
                Some(6) => {
                    cluster.supervise_all(AlphaCountConfig::default(), EscalationPolicy::default())
                }
                Some(n) => cluster.supervise(
                    ALL_NODES[n],
                    AlphaCountConfig::default(),
                    EscalationPolicy::default(),
                ),
                None => {}
            }
            let space = if self.memory_faults {
                FaultSpace::seu(workloads::MEM_BYTES)
            } else {
                FaultSpace::cpu_only()
            };
            for _ in 0..self.injections {
                cluster.inject(ClusterInjection::sample(&mut rng, self.cycles.0, &space));
            }
            if let Some((cycle, n, addr)) = self.double_flip {
                cluster.inject(ClusterInjection {
                    cycle,
                    node: ALL_NODES[n],
                    copy: 0,
                    at_cycle: 1,
                    fault: TransientFault {
                        target: FaultTarget::MemoryWord(addr),
                        mask: 0b101,
                    },
                });
            }
            if let Some(n) = self.stuck_at {
                cluster.attach_stuck_at(
                    ALL_NODES[n],
                    StuckAtFault {
                        target: FaultTarget::Pc,
                        bit: 1 << 20,
                        stuck_high: true,
                    },
                );
            }
            if let Some((n, recurrence)) = self.intermittent {
                let fault = IntermittentFault {
                    fault: pc_fault(),
                    recurrence,
                    burst_jobs: 6,
                };
                cluster.attach_intermittent(ALL_NODES[n], fault, rng.fork("intermittent"));
            }
            if let Some((at, n, protocol, escalated)) = self.core_death {
                if let Some(kind) = protocol {
                    cluster.enable_dual_core(ALL_NODES[n], kind);
                }
                cluster.attach_core_death(at, ALL_NODES[n], escalated);
            }
            if self.value_faults {
                let k = rng.uniform_range(0, 4) as usize;
                cluster.attach_sensor_fault(k % 3, SensorFault::Drift { per_cycle: 80 }, 2);
                cluster.attach_actuator_fault(k, ActuatorFault::Offset(150), 3);
                let word = rng.uniform_range(0, 6) as usize;
                cluster.corrupt_command_at_wheel(4, k, word, 1 << rng.uniform_range(0, 32));
                cluster.replay_command_at_wheel(6, (k + 1) % 4);
            }
            match self.net {
                NetCase::Quiet => {}
                NetCase::Storm(intensity) => {
                    let plan = NetFaultPlan::quiet()
                        .with_nodes(&ALL_NODES, NetFaultRates::storm(intensity))
                        .with_dynamic(0.1 * intensity, 0.1 * intensity);
                    cluster.attach_net_faults(plan, rng.fork("net-injector"));
                }
                NetCase::Blackout(at_cycle, victims, down_cycles, stagger) => {
                    cluster.enable_startup();
                    let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
                        at_cycle,
                        nodes: BLACKOUT_VICTIMS[victims].to_vec(),
                        down_cycles,
                        stagger,
                    });
                    cluster.attach_net_faults(plan, rng.fork("net-injector"));
                }
            }
            let pedal = |c| self.pedal.at(c);
            let mut text = format!("{:?}\n", cluster.run(self.cycles.0, pedal));
            if let NetCase::Storm(_) = self.net {
                cluster.set_net_fault_plan(NetFaultPlan::quiet());
            }
            if let Some((n, cycles)) = self.silence {
                cluster.silence_node(ALL_NODES[n], cycles);
            }
            text += &format!("{:?}\n", cluster.run(self.cycles.1, pedal));
            text += &format!("{:?}", cluster.startup_metrics());
            let memories = cluster
                .stations
                .iter()
                .map(|s| {
                    let mem = &s.machine.mem;
                    let words = mem.peek_words(0, (mem.size_bytes() / 4) as usize);
                    (words.expect("whole memory").to_vec(), mem.ecc_stats())
                })
                .collect();
            (text, memories)
        }
    }

    /// Skipping a repeated clean job is invisible: seeded random clusters
    /// run with and without the skip give the same reports, and every
    /// station ends with the same memory words and ECC counters.
    #[test]
    fn skipping_repeated_jobs_changes_no_report_or_memory() {
        nlft_testkit::prop::Suite::new(0x5EED_5C1B)
            .cases(200)
            .check(
                "skipping_repeated_jobs_changes_no_report_or_memory",
                SkipCase::draw,
                |case| {
                    let (text, memories) = case.run(true);
                    let (reference, reference_memories) = case.run(false);
                    nlft_testkit::prop_assert!(
                        text == reference,
                        "reports differ:\n{text}\n{reference}"
                    );
                    for (i, (a, b)) in memories.iter().zip(&reference_memories).enumerate() {
                        nlft_testkit::prop_assert!(
                            a == b,
                            "station {i}: memory or ECC counters differ"
                        );
                    }
                    Ok(())
                },
            );
    }

    /// Steady braking repeats most jobs, and a pedal that moves every
    /// cycle repeats none of the wheels' jobs: the skip is taken where it
    /// should be, and only there.
    #[test]
    fn steady_braking_skips_repeated_jobs() {
        let skipped = |pedal: fn(u32) -> u32| {
            let mut cluster = BbwCluster::new();
            cluster.run(30, pedal);
            cluster.stations.map(|s| s.skipped.expect("skipping on"))
        };
        let steady = skipped(constant_pedal);
        assert!(steady.iter().all(|&n| n > 0), "{steady:?}");
        let moving = skipped(|c| 500 + 7 * c);
        assert_eq!(moving, [0; 6], "no job of a moving pedal repeats");
    }

    /// A job on changed memory is no repeat, even on the same inputs:
    /// the change counter, not the station's call pattern, vouches that
    /// memory is as the last job left it.
    #[test]
    fn a_memory_change_between_jobs_is_no_repeat() {
        let w = &*CLUSTER_WORKLOADS;
        let mut station = StationRuntime::new(w.pid.clone(), w.pid_cycles);
        let first = station.run_job(&[1000, 1000], 0).0.map(<[u32]>::to_vec);
        let again = station.run_job(&[1000, 1000], 1).0.map(<[u32]>::to_vec);
        assert_eq!(station.skipped, Some(1), "the clean repeat is skipped");
        assert_eq!(first, again);
        // Change the PID's state window behind the station's back.
        let integral = station.machine.mem.peek(workloads::DATA_BASE).unwrap();
        station
            .machine
            .mem
            .store(workloads::DATA_BASE, integral + 500)
            .unwrap();
        let changed = station.run_job(&[1000, 1000], 2).0.map(<[u32]>::to_vec);
        assert_eq!(station.skipped, Some(1), "changed memory reruns the job");
        assert_ne!(changed, again);
    }

    /// A job under another `TemConfig` is no repeat, even on the same
    /// inputs and unchanged memory: here the second config asks for
    /// three results but allows two copies, so the job omits.
    #[test]
    fn a_changed_tem_config_is_no_repeat() {
        let w = &*CLUSTER_WORKLOADS;
        let mut station = StationRuntime::new(w.dist.clone(), w.dist_cycles);
        let (first, _) = station.run_job(&[1000], 0);
        assert!(first.is_some());
        let (again, _) = station.run_job(&[1000], 1);
        assert!(again.is_some());
        assert_eq!(station.skipped, Some(1), "the clean repeat is skipped");
        station.tem_config.min_results = 3;
        station.tem_config.max_executions = 2;
        let (tripled, _) = station.run_job(&[1000], 2);
        assert_eq!(tripled, None, "two copies give no third result");
        assert_eq!(station.skipped, Some(1));
    }

    #[test]
    fn cached_core_death_replays_equal_fresh_ones() {
        for kind in [ProtocolKind::LockBased, ProtocolKind::LeftRs] {
            for escalated in [false, true] {
                assert_eq!(
                    rides_through_core_death(kind, escalated),
                    replay_core_death(kind, escalated),
                    "{} escalated={escalated}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn cached_workloads_equal_freshly_built_ones() {
        let cached = &*CLUSTER_WORKLOADS;
        for (cached, cycles, fresh, inputs) in [
            (
                &cached.dist,
                cached.dist_cycles,
                workloads::brake_distribution(),
                &[1000][..],
            ),
            (
                &cached.pid,
                cached.pid_cycles,
                workloads::pid_controller(),
                &[1000, 900][..],
            ),
        ] {
            assert_eq!(*cached, fresh);
            assert_eq!(cycles, fresh.golden_run(inputs).1, "{}", fresh.name);
        }
    }

    #[test]
    fn clean_run_brakes_all_wheels() {
        let mut cluster = BbwCluster::new();
        let report = cluster.run(10, constant_pedal);
        assert!(!report.service_lost);
        assert_eq!(report.degraded_cycles, 0);
        let last = report.records.last().unwrap();
        assert_eq!(last.members, 6);
        // After the pipeline fills, every wheel transmits a force.
        assert!(last.wheel_force.iter().all(|f| f.is_some()));
        // Front wheels get more force than rear (60/40 split).
        assert!(last.wheel_force[0].unwrap() > last.wheel_force[2].unwrap());
    }

    #[test]
    fn pedal_profile_flows_through() {
        let mut cluster = BbwCluster::new();
        let report = cluster.run(12, |c| if c < 6 { 0 } else { 2000 });
        let early = &report.records[4];
        let late = report.records.last().unwrap();
        let sum = |r: &CycleRecord| -> u32 { r.wheel_force.iter().map(|f| f.unwrap_or(0)).sum() };
        assert!(sum(late) > sum(early), "harder pedal → more total force");
    }

    #[test]
    fn masked_fault_is_invisible_at_cluster_level() {
        let mut cluster = BbwCluster::new();
        cluster.inject(ClusterInjection {
            cycle: 5,
            node: WHEELS[1],
            copy: 0,
            at_cycle: 5,
            fault: pc_fault(),
        });
        let report = cluster.run(10, constant_pedal);
        assert!(!report.service_lost);
        assert_eq!(report.omissions, 0, "TEM recovery hides the fault entirely");
        assert_eq!(report.records[5].members, 6);
    }

    #[test]
    fn silenced_wheel_triggers_degraded_redistribution() {
        let mut cluster = BbwCluster::new();
        cluster.silence_node(WHEELS[3], 6);
        let report = cluster.run(14, constant_pedal);
        assert!(!report.service_lost, "3-of-4 wheels keep braking");
        assert!(report.degraded_cycles > 0);
        assert!(report.omissions > 0);
        // Membership dropped to 5 at some point.
        assert!(report.records.iter().any(|r| r.members == 5));
        // During degraded operation, serving wheels carry scaled-up force:
        // find a degraded cycle with forces present.
        let degraded_rec = report
            .records
            .iter()
            .rev()
            .find(|r| r.degraded && r.wheel_force[0].is_some())
            .expect("a degraded cycle with force data");
        let clean_rec = report
            .records
            .iter()
            .find(|r| !r.degraded && r.wheel_force[0].is_some())
            .expect("a clean cycle");
        assert!(
            degraded_rec.wheel_force[0].unwrap() > clean_rec.wheel_force[0].unwrap(),
            "remaining wheels must take over the lost wheel's share"
        );
        // And the silenced node reintegrates eventually.
        assert_eq!(report.records.last().unwrap().members, 6);
    }

    #[test]
    fn cu_replica_outage_is_transparent() {
        let mut cluster = BbwCluster::new();
        cluster.silence_node(CU_A, 5);
        let report = cluster.run(12, constant_pedal);
        assert!(!report.service_lost);
        // While A is silent, the duplex value comes from a single replica.
        assert!(report.records.iter().any(|r| r.cu_single));
        // Wheels keep receiving set-points: no degraded mode from CU outage.
        let mid = &report.records[6];
        assert!(mid.wheel_force.iter().all(|f| f.is_some()));
    }

    #[test]
    fn losing_both_cu_replicas_loses_service() {
        let mut cluster = BbwCluster::new();
        cluster.silence_node(CU_A, 8);
        cluster.silence_node(CU_B, 8);
        let report = cluster.run(10, constant_pedal);
        assert!(report.service_lost);
    }

    #[test]
    fn losing_two_wheels_loses_service() {
        let mut cluster = BbwCluster::new();
        cluster.silence_node(WHEELS[0], 8);
        cluster.silence_node(WHEELS[1], 8);
        let report = cluster.run(10, constant_pedal);
        assert!(report.service_lost);
    }

    #[test]
    fn unknown_node_ids_are_no_ops() {
        let outside = NodeId(6);
        let mut cluster = BbwCluster::new();
        cluster.supervise(
            outside,
            AlphaCountConfig::default(),
            EscalationPolicy::default(),
        );
        cluster.silence_node(outside, 4);
        cluster.attach_stuck_at(
            outside,
            StuckAtFault {
                target: FaultTarget::Pc,
                bit: 1 << 20,
                stuck_high: true,
            },
        );
        assert_eq!(cluster.node_health(outside), None);
        assert_eq!(cluster.node_health(NodeId(u8::MAX)), None);
        let report = cluster.run(10, constant_pedal);
        assert_eq!(report, BbwCluster::new().run(10, constant_pedal));
    }

    #[test]
    fn held_down_wheel_keeps_wall_time() {
        // A supervised wheel with an intermittent fault is blacked out for
        // six cycles mid-burst. Wall time runs on while it is down: its
        // restart wait and its burst clock both advance, so it comes back
        // restarted once, past the burst, instead of relapsing.
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
            RngStream::new(0x1E7E).fork("intermittent-wheel"),
        );
        let blackout = BlackoutSpec {
            at_cycle: 7,
            nodes: vec![victim],
            down_cycles: 6,
            stagger: 0,
        };
        let plan = NetFaultPlan::quiet().with_blackout(blackout);
        cluster.attach_net_faults(plan, RngStream::new(0xB1AC).fork("net-injector"));
        let report = cluster.run(45, |_| 1200);
        assert_eq!(report.restarts, 1, "{:?}", report.escalations);
        assert!(report
            .escalations
            .contains(&(9, victim, EscalationEvent::Restarted)));
        assert_eq!(cluster.node_health(victim), Some(NodeHealth::Healthy));
    }

    #[test]
    fn wire_corruption_is_a_single_cycle_omission() {
        let mut cluster = BbwCluster::new();
        garble_frames(&mut cluster, WHEELS[2], 5, 6);
        let report = cluster.run(12, constant_pedal);
        assert!(!report.service_lost);
        assert_eq!(report.omissions, 1, "one rejected frame = one omission");
        // Below the exclusion threshold: membership never shrinks.
        assert!(report.records.iter().all(|r| r.members == 6));
        // The victim's force is absent exactly in cycle 5.
        assert!(report.records[5].wheel_force[2].is_none());
        assert!(report.records[6].wheel_force[2].is_some());
    }

    #[test]
    fn repeated_wire_corruption_triggers_exclusion() {
        let mut cluster = BbwCluster::new();
        garble_frames(&mut cluster, WHEELS[0], 3, 5);
        let report = cluster.run(12, constant_pedal);
        assert!(!report.service_lost);
        assert!(
            report.records.iter().any(|r| r.members == 5),
            "two consecutive losses must exclude the node"
        );
        // And it reintegrates once the wire is clean again.
        assert_eq!(report.records.last().unwrap().members, 6);
    }

    #[test]
    fn storm_on_one_wheel_degrades_but_never_loses_service() {
        let mut cluster = BbwCluster::new();
        // A total omission storm on one wheel: every frame it sends is
        // lost, so it is permanently excluded while the storm lasts.
        let plan = NetFaultPlan::quiet().with_node(
            WHEELS[2],
            NetFaultRates {
                omission: 1.0,
                ..NetFaultRates::QUIET
            },
        );
        cluster.attach_net_faults(plan, RngStream::new(0xACCE).fork("net-injector"));
        let storm = cluster.run(20, |_| 1200);
        assert!(!storm.service_lost, "3-of-4 wheels must keep braking");
        assert!(!storm.split_membership);
        assert!(
            storm.degraded_cycles >= 15,
            "wheel excluded almost throughout"
        );
        assert_eq!(storm.records.last().unwrap().members, 5);
        assert_eq!(storm.min_members, 5);

        // The storm subsides: the node's fault rate drops to zero and it
        // must reintegrate within `reintegrate_after` cycles of its first
        // clean transmission.
        cluster.set_net_fault_plan(NetFaultPlan::quiet());
        let calm = cluster.run(10, |_| 1200);
        let reintegrate_after = 2; // Membership::new(&config, 2, 2) above
        let back = calm
            .records
            .iter()
            .position(|r| r.members == 6)
            .expect("wheel must reintegrate once the storm ends");
        assert!(
            back < reintegrate_after + 1,
            "reintegration took {back} cycles, window is {reintegrate_after}"
        );
        assert!(!calm.service_lost);
        assert_eq!(calm.reintegration_latencies.len(), 1);
        assert_eq!(calm.records.last().unwrap().members, 6);
    }

    #[test]
    fn cluster_storm_bus_counters_reported_per_run() {
        let mut cluster = BbwCluster::new();
        let plan = NetFaultPlan::quiet().with_node(
            WHEELS[0],
            NetFaultRates {
                corruption: 1.0,
                ..NetFaultRates::QUIET
            },
        );
        cluster.attach_net_faults(plan, RngStream::new(0x0C2C).fork("net-injector"));
        let storm = cluster.run(10, |_| 1200);
        // The wheel transmits from cycle 1 on; every frame is corrupted and
        // every corruption is caught by the CRC.
        assert!(storm.corruptions_applied >= 8);
        assert_eq!(storm.crc_rejects, storm.corruptions_applied);
        // Counters are per-run deltas: a quiet second run reports zero.
        cluster.set_net_fault_plan(NetFaultPlan::quiet());
        let calm = cluster.run(5, |_| 1200);
        assert_eq!(calm.crc_rejects, 0);
        assert_eq!(calm.corruptions_applied, 0);
    }

    #[test]
    fn stuck_pedal_channel_is_masked_at_the_vehicle_boundary() {
        let mut clean = BbwCluster::new();
        let clean_report = clean.run(12, constant_pedal);
        let mut cluster = BbwCluster::new();
        cluster.attach_sensor_fault(1, SensorFault::StuckAt(4095), 3);
        let report = cluster.run(12, constant_pedal);
        // The median vote hides the stuck channel entirely: identical
        // forces, no degraded mode, and the failure is *detected* (the
        // channel ends up demoted), never silent.
        for (a, b) in clean_report.records.iter().zip(report.records.iter()) {
            assert_eq!(a.wheel_force, b.wheel_force, "vote must mask the channel");
        }
        assert_eq!(report.value.sensor_demotions, 1);
        assert_eq!(report.value.undetected_sensor_cycles, 0);
        assert!(!report.service_lost);
    }

    #[test]
    fn out_of_range_pedal_is_clamped_and_flagged() {
        let mut cluster = BbwCluster::new();
        let report = cluster.run(8, |_| 100_000);
        assert!(report.value.pedal_clamped_cycles >= 8);
        assert!(report
            .records
            .iter()
            .all(|r| r.pedal <= crate::sensor::PEDAL_MAX));
        assert!(!report.service_lost);
    }

    #[test]
    fn corrupted_command_at_wheel_is_rejected_and_held() {
        let mut cluster = BbwCluster::new();
        // Flip a payload bit in wheel 1's copy of the cycle-5 command —
        // past the bus CRC, so only the application seal can catch it.
        cluster.corrupt_command_at_wheel(5, 1, 2, 0x10);
        let report = cluster.run(12, constant_pedal);
        assert_eq!(report.value.seal_rejects, 1, "the seal must catch the flip");
        assert_eq!(report.value.undetected_command_accepts, 0);
        // Hold-last-safe: the wheel keeps braking on its previous
        // set-point, so no omission and no membership event at all.
        assert_eq!(report.value.held_setpoint_cycles, 1);
        assert_eq!(report.omissions, 0);
        assert!(report.records.iter().all(|r| r.members == 6));
        assert!(!report.service_lost);
    }

    #[test]
    fn replayed_command_is_rejected_as_stale() {
        let mut cluster = BbwCluster::new();
        cluster.replay_command_at_wheel(6, 2);
        let report = cluster.run(12, constant_pedal);
        assert_eq!(report.value.stale_rejects, 1, "replay must be caught");
        assert_eq!(report.value.undetected_command_accepts, 0);
        assert_eq!(report.value.held_setpoint_cycles, 1);
        assert!(!report.service_lost);
    }

    #[test]
    fn wheels_ride_through_a_short_cu_outage_on_held_setpoints() {
        let mut cluster = BbwCluster::new();
        // Warm up so the wheels have an accepted set-point to hold.
        let warmup = cluster.run(4, constant_pedal);
        assert!(!warmup.service_lost);
        cluster.silence_node(CU_A, 1);
        cluster.silence_node(CU_B, 1);
        let report = cluster.run(12, constant_pedal);
        // Both replicas silent for one cycle: without holding, all four
        // wheels would drop out; with HOLD_CYCLES = 3 they brake through
        // on their last accepted set-point.
        assert_eq!(report.value.held_setpoint_cycles, 4);
        assert!(!report.service_lost, "hold window must bridge the outage");
        // The only missed slots are the two silent CU frames — every
        // wheel kept transmitting on its held set-point.
        assert_eq!(report.omissions, 2);
        assert!(report.records.iter().all(|r| r.members == 6));
    }

    #[test]
    fn runaway_actuator_is_failed_safe_and_reported() {
        let mut cluster = BbwCluster::new();
        cluster.attach_actuator_fault(2, ActuatorFault::Runaway { step: 500 }, 4);
        let report = cluster.run(16, constant_pedal);
        // The monitor trips, the actuator releases, the wheel goes
        // fail-silent and membership excludes it — degraded, not lost.
        assert_eq!(report.value.actuator_trips.len(), 1);
        assert_eq!(report.value.actuator_trips[0].1, WHEELS[2]);
        assert_eq!(report.value.undetected_actuator_cycles, 0);
        assert!(cluster.wheels[2].monitor.tripped());
        let at_trip = cluster.wheels[2].actuator.measured();
        // The release decays geometrically toward zero from the trip on.
        let settle = cluster.run(20, constant_pedal);
        assert!(
            cluster.wheels[2].actuator.measured() < at_trip / 4,
            "brake must keep releasing toward zero"
        );
        assert!(!settle.service_lost);
        assert!(report.degraded_cycles > 0, "CU redistributes the share");
        assert!(!report.service_lost);
        assert!(report
            .records
            .iter()
            .flat_map(|r| r.events.iter())
            .any(|e| matches!(e, MembershipEvent::Excluded(n) if *n == WHEELS[2])));
    }

    #[test]
    fn small_actuator_offset_is_masked_without_a_trip() {
        let mut cluster = BbwCluster::new();
        cluster.attach_actuator_fault(0, ActuatorFault::Offset(40), 2);
        let report = cluster.run(20, constant_pedal);
        assert!(
            report.value.actuator_trips.is_empty(),
            "bounded bias masked"
        );
        assert_eq!(report.value.undetected_actuator_cycles, 0);
        assert!(!report.service_lost);
        assert_eq!(report.degraded_cycles, 0);
    }

    #[test]
    fn membership_events_reported() {
        let mut cluster = BbwCluster::new();
        cluster.silence_node(WHEELS[2], 4);
        let report = cluster.run(12, constant_pedal);
        let excluded: Vec<_> = report
            .records
            .iter()
            .flat_map(|r| r.events.iter())
            .collect();
        assert!(excluded
            .iter()
            .any(|e| matches!(e, MembershipEvent::Excluded(n) if *n == WHEELS[2])));
        assert!(excluded
            .iter()
            .any(|e| matches!(e, MembershipEvent::Reintegrated(n) if *n == WHEELS[2])));
    }

    #[test]
    fn default_wheel_contracts_are_heterogeneous_and_clean() {
        let mut cluster = BbwCluster::new();
        let report = cluster.run(20, constant_pedal);
        // Front axle tighter than rear, same window.
        assert!(
            report.wheel_contracts[0].max_misses < report.wheel_contracts[2].max_misses,
            "front contracts must be stricter than rear"
        );
        assert_eq!(report.wheel_contracts[0], MkContract::new(1, 8));
        assert_eq!(report.wheel_contracts[3], MkContract::new(2, 8));
        // A clean run charges no misses and trips nothing.
        assert_eq!(report.wheel_contract_misses, [0; 4]);
        assert_eq!(report.wheel_contract_violations, [0; 4]);
        assert!(report.core_deaths.is_empty());
    }

    #[test]
    fn front_contract_trips_where_rear_rides_through() {
        // The same 2-cycle outage lands differently per axle: 2 misses in
        // an 8-window break the front (1,8) contract but not the rear
        // (2,8) one — the heterogeneous-contract point of satellite 1.
        let mut front = BbwCluster::new();
        front.silence_node(WHEELS[0], 2);
        let fr = front.run(14, constant_pedal);
        assert!(fr.wheel_contract_misses[0] >= 2);
        assert!(
            fr.wheel_contract_violations[0] >= 1,
            "front (1,8) contract must trip on a 2-cycle outage"
        );

        let mut rear = BbwCluster::new();
        rear.silence_node(WHEELS[2], 2);
        let rr = rear.run(14, constant_pedal);
        assert!(rr.wheel_contract_misses[2] >= 2);
        assert_eq!(
            rr.wheel_contract_violations[2], 0,
            "rear (2,8) contract must absorb the same outage"
        );
    }

    #[test]
    fn set_wheel_contracts_replaces_monitors() {
        let mut cluster = BbwCluster::new();
        // Loosen the front axle to (3,8): the 2-cycle outage that trips
        // the default front contract is now absorbed.
        cluster.set_wheel_contracts([MkContract::new(3, 8); 4]);
        cluster.silence_node(WHEELS[0], 2);
        let report = cluster.run(14, constant_pedal);
        assert_eq!(report.wheel_contracts[0], MkContract::new(3, 8));
        assert!(report.wheel_contract_misses[0] >= 2);
        assert_eq!(report.wheel_contract_violations, [0; 4]);
    }

    #[test]
    fn dual_core_left_rs_wheel_rides_through_core_death() {
        let mut cluster = BbwCluster::new();
        cluster.enable_dual_core(WHEELS[1], ProtocolKind::LeftRs);
        cluster.attach_core_death(5, WHEELS[1], false);
        let report = cluster.run(16, constant_pedal);
        assert_eq!(report.core_deaths, vec![(5, WHEELS[1], true)]);
        // The node never misses a slot: no omissions, no degradation, and
        // its contract stays clean.
        assert_eq!(report.omissions, 0);
        assert_eq!(report.degraded_cycles, 0);
        assert_eq!(report.wheel_contract_violations, [0; 4]);
        assert!(!report.service_lost);
    }

    #[test]
    fn dual_core_lock_based_wheel_dies_on_core_death() {
        let mut cluster = BbwCluster::new();
        cluster.enable_dual_core(WHEELS[1], ProtocolKind::LockBased);
        cluster.attach_core_death(5, WHEELS[1], false);
        let report = cluster.run(16, constant_pedal);
        assert_eq!(report.core_deaths, vec![(5, WHEELS[1], false)]);
        // The crashed core leaks its spin lock mid-section; the substrate
        // wedges and the node drops fail-silent for good.
        assert!(report.omissions > 0);
        assert!(report.degraded_cycles > 0);
        assert!(
            report.wheel_contract_violations[1] >= 1,
            "a permanently silent front wheel must break its contract"
        );
        assert!(!report.service_lost, "3-of-4 wheels keep braking");
    }

    #[test]
    fn escalated_core_death_spares_even_the_lock_based_wheel() {
        // Satellite 2 at cluster level: the escalation ladder silences
        // the dying core in an orderly way, revoking its held lock, so
        // even the lock-based substrate survives the very placement that
        // kills it under a crash.
        let mut cluster = BbwCluster::new();
        cluster.enable_dual_core(WHEELS[1], ProtocolKind::LockBased);
        cluster.attach_core_death(5, WHEELS[1], true);
        let report = cluster.run(16, constant_pedal);
        assert_eq!(report.core_deaths, vec![(5, WHEELS[1], true)]);
        assert_eq!(report.omissions, 0);
        assert_eq!(report.degraded_cycles, 0);
    }

    #[test]
    fn single_core_node_dies_on_any_core_death() {
        let mut cluster = BbwCluster::new();
        cluster.attach_core_death(4, WHEELS[3], false);
        let report = cluster.run(16, constant_pedal);
        assert_eq!(report.core_deaths, vec![(4, WHEELS[3], false)]);
        assert!(report.omissions > 0);
        assert!(report.degraded_cycles > 0);
    }

    #[test]
    fn second_core_death_kills_a_surviving_dual_core_node() {
        let mut cluster = BbwCluster::new();
        cluster.enable_dual_core(WHEELS[2], ProtocolKind::LeftRs);
        cluster.attach_core_death(3, WHEELS[2], false);
        cluster.attach_core_death(8, WHEELS[2], false);
        let report = cluster.run(18, constant_pedal);
        assert_eq!(
            report.core_deaths,
            vec![(3, WHEELS[2], true), (8, WHEELS[2], false)],
            "the first death is survivable, the second exhausts the cores"
        );
        assert!(report.omissions > 0);
    }
}
