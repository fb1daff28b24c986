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
//! Since PR 4 the loop also carries the *value domain* end to end:
//!
//! * the pedal is read through a triplicated [`crate::sensor`] array
//!   (median vote + plausibility + weakly-hard demotion) instead of
//!   being a perfect oracle — the silent `min(4095)` clamp now happens
//!   at the sensor boundary and is flagged;
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
//! Since PR 8 the wheels carry heterogeneous weakly-hard *(m,k) service
//! contracts* (the front axle tighter than the rear), and any node can be
//! modelled as a *dual-core* station: a core-death fault then plays out
//! against the node's resource-sharing protocol — LEFT-RS rides the death
//! out on the remaining core, a lock-based substrate wedges and the node
//! drops fail-silent for good.

use std::collections::BTreeMap;

use nlft_core::diagnosis::{AlphaCountConfig, NodeSupervisor};
use nlft_kernel::contract::MkContract;
use nlft_kernel::escalation::{EscalationEvent, EscalationPolicy, NodeHealth};
use nlft_kernel::integrity::{CommandAcceptor, CommandReject, FreshSealedMessage};
use nlft_kernel::multicore::MulticoreExecutive;
use nlft_kernel::resources::ProtocolKind;
use nlft_kernel::tem::{InjectionPlan, JobFault, JobOutcome, TemConfig, TemExecutor};
use nlft_machine::fault::{CoreDeathFault, IntermittentFault, StuckAtFault, TransientFault};
use nlft_machine::machine::Machine;
use nlft_machine::workloads::{self, Workload};
use nlft_net::bus::{Bus, BusConfig, CycleDelivery, WireFault};
use nlft_net::frame::NodeId;
use nlft_net::inject::{InjectionCounts, NetFaultInjector, NetFaultPlan};
use nlft_net::membership::{Membership, MembershipEvent};
use nlft_net::replication::{select_duplex_among, DuplexPair, DuplexValue, StateResync};
use nlft_net::startup::{
    StartupConfig, StartupEvent, StartupMetrics, StartupProtocol, StartupState, TransmitIntent,
    COLD_START_MARKER,
};
use nlft_sim::rng::RngStream;
use nlft_sim::weakly_hard::WeaklyHard;

use crate::actuator::{ActuatorFault, ActuatorMonitor, ActuatorMonitorConfig, WheelActuator};
use crate::sensor::{PedalSensorArray, PedalStats, PedalVoterConfig, SensorFault};

/// Cycles a wheel keeps braking on its last accepted set-point when the
/// command stream dries up (rejected or missing commands), before it
/// releases and goes silent.
pub const HOLD_CYCLES: u32 = 3;

/// Maximum accepted command age in cycles (commands are consumed in the
/// cycle they arrive, so a healthy age is 0).
pub const COMMAND_MAX_AGE: u32 = 2;

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
    /// The escalation events of one node, in order.
    pub fn escalations_for(&self, node: NodeId) -> Vec<EscalationEvent> {
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

struct StationRuntime {
    workload: Workload,
    machine: Machine,
    tem_config: TemConfig,
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
        StationRuntime {
            workload,
            machine,
            tem_config: TemConfig::with_budget(clean_cycles * 2 + 50),
            clean_cycles,
            silent_for: 0,
            supervisor: None,
            stuck_at: None,
            intermittent: None,
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
        let Some(sup) = self.supervisor.as_mut() else {
            return Vec::new();
        };
        let events = sup.tick_silent();
        if events.contains(&EscalationEvent::Restarted) {
            self.reboot();
        }
        events
    }

    /// Reboots the node's processor: fresh machine state, same hardware
    /// (a stuck-at survives because it lives in the silicon).
    fn reboot(&mut self) {
        self.machine = self.workload.instantiate();
    }

    /// The startup protocol admitted this node into the majority clique:
    /// release a supervisor parked on the integration gate. A resulting
    /// `Restarted` reboots the machine exactly like an ungated restart.
    fn complete_integration(&mut self) -> Vec<EscalationEvent> {
        let Some(sup) = self.supervisor.as_mut() else {
            return Vec::new();
        };
        let events = sup.integration_complete();
        if events.contains(&EscalationEvent::Restarted) {
            self.reboot();
        }
        events
    }

    /// The fault manifesting in this job, merging the node's persistent
    /// faults with an externally scheduled one-shot plan.
    fn job_fault(&mut self, plan: Option<InjectionPlan>) -> Option<JobFault> {
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
        plan.map(JobFault::Transient)
    }

    fn run_job(
        &mut self,
        inputs: &[u32],
        plan: Option<InjectionPlan>,
    ) -> (Option<Vec<u32>>, Vec<EscalationEvent>) {
        if self.silent_for > 0 {
            self.silent_for -= 1;
            return (None, Vec::new());
        }
        if self.supervised_silent() {
            return (None, self.tick_supervisor());
        }
        let fault = self.job_fault(plan);
        let mut config = self.tem_config;
        if self.supervisor.as_ref().is_some_and(|s| s.tem_triples()) {
            // Suspect / reintegrating: TEM always triples (three copies +
            // majority vote on every job).
            config.min_results = 3;
        }
        let tem = TemExecutor::new(config);
        let report = tem.run_job_with_fault(&mut self.machine, &self.workload, inputs, fault);
        let errored = matches!(
            report.outcome,
            JobOutcome::DeliveredMasked { .. } | JobOutcome::Omission { .. }
        );
        let events = match self.supervisor.as_mut() {
            Some(sup) => sup.observe_job(errored),
            None => Vec::new(),
        };
        let outputs = match report.outcome {
            JobOutcome::DeliveredClean | JobOutcome::DeliveredMasked { .. } => {
                let outputs = report.outputs.expect("delivered");
                Some(
                    self.workload
                        .output_ports
                        .iter()
                        .map(|&p| outputs[p].unwrap_or(0))
                        .collect(),
                )
            }
            JobOutcome::Omission { .. } => None,
        };
        (outputs, events)
    }
}

/// The running cluster.
pub struct BbwCluster {
    bus: Bus,
    membership: Membership,
    cu_pair: DuplexPair,
    cu: BTreeMap<NodeId, StationRuntime>,
    wheels: BTreeMap<NodeId, StationRuntime>,
    injections: Vec<ClusterInjection>,
    wire_corruptions: Vec<(u32, NodeId)>,
    /// Network-level fault injector, when a storm is attached.
    net_injector: Option<NetFaultInjector>,
    /// TTP/C-style startup/reintegration protocol, when enabled. `None`
    /// keeps the pre-startup behaviour: returning nodes simply resume
    /// transmitting in their slot.
    startup: Option<StartupProtocol>,
    /// Per-CU state-resync endpoints, driven when a replica returns from an
    /// outage.
    cu_resync: BTreeMap<NodeId, StateResync>,
    /// Whether each CU was silent (enforced or net-crashed) last cycle.
    cu_silent_last: BTreeMap<NodeId, bool>,
    /// Last delivery, fed into the resync endpoints next cycle.
    prev_delivery: Option<CycleDelivery>,
    /// First cycle of each node's current exclusion episode.
    exclusion_started: BTreeMap<NodeId, u32>,
    /// Triplicated pedal sensor array feeding both CU replicas.
    pedal_sensors: PedalSensorArray,
    /// Per-wheel brake actuators (persist across `run` calls — the brake
    /// hardware does not reset between phases of an experiment).
    actuators: [WheelActuator; 4],
    /// Per-wheel demand-vs-measured divergence monitors.
    monitors: [ActuatorMonitor; 4],
    /// Wheels whose actuator has been failed to safe release: the node
    /// stays fail-silent so membership reports the loss.
    actuator_failed: [bool; 4],
    /// Consecutive tolerance-overrun cycles per wheel (for silent-failure
    /// accounting — a healthy transient converges within the window).
    overrun_streak: [u32; 4],
    /// Per-wheel command acceptors (seal + freshness check).
    acceptors: [CommandAcceptor; 4],
    /// Last command words each wheel accepted, kept for replay injection.
    last_command_words: [Option<Vec<u32>>; 4],
    /// Next cycle's set-points, as accepted/held by each wheel.
    setpoints: [Option<u32>; 4],
    /// Last accepted set-point per wheel and remaining hold budget.
    last_good: [Option<u32>; 4],
    hold_left: [u32; 4],
    /// Scheduled wheel-local command corruptions:
    /// `(cycle, wheel, word, mask)`.
    command_corruptions: Vec<(u32, usize, usize, u32)>,
    /// Scheduled wheel-local command replays: `(cycle, wheel)`.
    command_replays: Vec<(u32, usize)>,
    /// Per-wheel (m,k) service contracts (front axle tighter than rear)
    /// and their online monitors; like the rest of the wheel state, the
    /// monitors persist across `run` calls.
    wheel_contracts: [MkContract; 4],
    wheel_monitors: [WeaklyHard; 4],
    /// Whether each wheel's contract was violated after the last recorded
    /// cycle (for edge-triggered episode counting).
    wheel_violated: [bool; 4],
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

        let dist = workloads::brake_distribution();
        let (_, dist_cycles) = dist.golden_run(&[1000]);
        let pid = workloads::pid_controller();
        let (_, pid_cycles) = pid.golden_run(&[1000, 900]);

        let mut cu = BTreeMap::new();
        for id in [CU_A, CU_B] {
            cu.insert(id, StationRuntime::new(dist.clone(), dist_cycles));
        }
        let mut wheels = BTreeMap::new();
        for id in WHEELS {
            wheels.insert(id, StationRuntime::new(pid.clone(), pid_cycles));
        }
        let cu_pair = DuplexPair::new(CU_A, CU_B);
        // The front axle carries most of the braking load, so its service
        // contracts are tighter: at most 1 missed cycle in any 8, against
        // 2-in-8 for the rear wheels.
        let wheel_contracts = [
            MkContract::new(1, 8),
            MkContract::new(1, 8),
            MkContract::new(2, 8),
            MkContract::new(2, 8),
        ];
        BbwCluster {
            bus,
            membership,
            cu_pair,
            cu,
            wheels,
            injections: Vec::new(),
            wire_corruptions: Vec::new(),
            net_injector: None,
            startup: None,
            cu_resync: [CU_A, CU_B]
                .into_iter()
                .map(|id| (id, StateResync::new(id, cu_pair)))
                .collect(),
            cu_silent_last: [CU_A, CU_B].into_iter().map(|id| (id, false)).collect(),
            prev_delivery: None,
            exclusion_started: BTreeMap::new(),
            pedal_sensors: PedalSensorArray::new(PedalVoterConfig::default(), sensor_rng),
            actuators: std::array::from_fn(|_| WheelActuator::new()),
            monitors: std::array::from_fn(|_| {
                ActuatorMonitor::new(ActuatorMonitorConfig::default())
            }),
            actuator_failed: [false; 4],
            overrun_streak: [0; 4],
            acceptors: std::array::from_fn(|_| CommandAcceptor::new(COMMAND_MAX_AGE)),
            last_command_words: std::array::from_fn(|_| None),
            setpoints: [None; 4],
            last_good: [None; 4],
            hold_left: [0; 4],
            command_corruptions: Vec::new(),
            command_replays: Vec::new(),
            wheel_monitors: std::array::from_fn(|w| wheel_contracts[w].monitor()),
            wheel_contracts,
            wheel_violated: [false; 4],
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
        self.actuators[wheel].attach_fault(fault, onset);
    }

    /// Corrupts the command words *as seen by one wheel* in the given
    /// cycle — a wheel-local buffer/RAM fault past the bus CRC, which is
    /// exactly what the application-level seal exists to catch. `word`
    /// indexes the sealed message (`0` = sequence, last = CRC).
    pub fn corrupt_command_at_wheel(&mut self, cycle: u32, wheel: usize, word: usize, mask: u32) {
        self.command_corruptions.push((cycle, wheel, word, mask));
    }

    /// Replays the last command one wheel accepted in place of the
    /// current one in the given cycle — a stale-buffer fault. The
    /// freshness check rejects it as stale.
    pub fn replay_command_at_wheel(&mut self, cycle: u32, wheel: usize) {
        self.command_replays.push((cycle, wheel));
    }

    /// Cumulative pedal-sensor statistics (across all `run` calls).
    pub fn sensor_stats(&self) -> &PedalStats {
        self.pedal_sensors.stats()
    }

    /// Whether a wheel's actuator has been failed to safe release.
    pub fn actuator_failed(&self, wheel: usize) -> bool {
        self.actuator_failed[wheel]
    }

    /// Schedules a machine-level fault injection.
    pub fn inject(&mut self, injection: ClusterInjection) {
        self.injections.push(injection);
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

    /// Detaches the network fault injector entirely.
    pub fn clear_net_faults(&mut self) {
        self.net_injector = None;
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

    /// A node's current startup state (`None` while startup is disabled).
    pub fn startup_state(&self, node: NodeId) -> Option<StartupState> {
        self.startup.as_ref().map(|s| s.state(node))
    }

    /// Startup metrics accumulated so far (`None` while disabled).
    pub fn startup_metrics(&self) -> Option<&StartupMetrics> {
        self.startup.as_ref().map(|s| s.metrics())
    }

    /// Injection decisions taken by the attached storm so far.
    pub fn net_injection_counts(&self) -> InjectionCounts {
        self.net_injector
            .as_ref()
            .map(|i| i.counts())
            .unwrap_or_default()
    }

    /// Corrupts `node`'s frame on the wire in the given cycle: the CRC
    /// rejects it at every receiver, so the node is effectively silent for
    /// that cycle — the network-level end-to-end detection of §2.6.
    pub fn corrupt_frame(&mut self, cycle: u32, node: NodeId) {
        self.wire_corruptions.push((cycle, node));
    }

    /// Forces a node silent for `cycles` cycles (models a fail-silent
    /// restart window without machine-level detail).
    pub fn silence_node(&mut self, node: NodeId, cycles: u32) {
        if let Some(s) = self.station_mut(node) {
            s.silent_for = cycles;
        }
    }

    fn station_mut(&mut self, node: NodeId) -> Option<&mut StationRuntime> {
        self.cu
            .get_mut(&node)
            .or_else(|| self.wheels.get_mut(&node))
    }

    /// Replaces the per-wheel (m,k) service contracts (index order:
    /// front-left, front-right, rear-left, rear-right) and resets their
    /// monitors. The defaults hold the front axle to at most 1 missed
    /// cycle in any 8 and the rear axle to 2-in-8.
    pub fn set_wheel_contracts(&mut self, contracts: [MkContract; 4]) {
        self.wheel_contracts = contracts;
        self.wheel_monitors = std::array::from_fn(|w| contracts[w].monitor());
        self.wheel_violated = [false; 4];
    }

    /// The per-wheel service contracts currently in force.
    pub fn wheel_contracts(&self) -> [MkContract; 4] {
        self.wheel_contracts
    }

    /// Models `node` as a dual-core station whose two cores share their
    /// wheel/brake state through `protocol`. A scheduled core-death fault
    /// (see [`BbwCluster::attach_core_death`]) then becomes survivable:
    /// the node rides it out on the remaining core iff the protocol keeps
    /// the shared state reachable when a core dies mid-critical-section.
    pub fn enable_dual_core(&mut self, node: NodeId, protocol: ProtocolKind) {
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
    pub fn attach_core_death(&mut self, cycle: u32, node: NodeId, escalated: bool) {
        self.core_deaths.push((cycle, node, escalated));
    }

    /// Fires one core-death fault on `node`; returns whether it survived.
    fn fire_core_death(&mut self, node: NodeId, escalated: bool) -> bool {
        let Some(station) = self.station_mut(node) else {
            return false;
        };
        let survived = match station.dual_core {
            Some(kind) if !station.core_dead => {
                // Replay the death against the node's substrate: the
                // reference 2-core workload with the fault placed
                // mid-critical-section on core 0, exactly as in
                // `nlft_core::run_multicore_campaign`. The node lives iff
                // the surviving core's tasks stay clean — LEFT-RS ignores
                // the dead snapshot holder, a leaked spin lock wedges the
                // lock-based substrate.
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
            _ => false,
        };
        station.core_dead = true;
        if !survived {
            // The node is gone for good: it never transmits again, so
            // membership reports the loss from here on.
            station.silent_for = u32::MAX;
        }
        survived
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
    pub fn supervise_all(&mut self, alpha: AlphaCountConfig, policy: EscalationPolicy) {
        for id in [CU_A, CU_B].iter().chain(WHEELS.iter()).copied() {
            self.supervise(id, alpha, policy);
        }
    }

    /// Attaches a permanent stuck-at fault to `node`'s processor. It is
    /// re-asserted before every instruction of every TEM copy and — being
    /// hardware — survives node restarts.
    pub fn attach_stuck_at(&mut self, node: NodeId, fault: StuckAtFault) {
        if let Some(s) = self.station_mut(node) {
            s.stuck_at = Some(fault);
        }
    }

    /// Attaches an intermittent fault to `node`: from the next job slot
    /// on, the transient recurs with the fault's recurrence probability
    /// until its burst expires. `rng` should be a dedicated fork of the
    /// experiment's master stream.
    pub fn attach_intermittent(&mut self, node: NodeId, fault: IntermittentFault, rng: RngStream) {
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
    pub fn node_health(&self, node: NodeId) -> Option<NodeHealth> {
        self.cu
            .get(&node)
            .or_else(|| self.wheels.get(&node))
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
        let mut records = Vec::with_capacity(cycles as usize);
        let mut value = ValueDomainReport::default();
        let undetected_sensor_base = self.pedal_sensors.stats().undetected_error_cycles;
        let mon_cfg = ActuatorMonitorConfig::default();
        let mut degraded_cycles = 0;
        let mut omissions = 0;
        let mut service_lost = false;
        let mut split_membership = false;
        let mut min_members = self.membership.members().len();
        let mut reintegration_latencies = Vec::new();
        let mut escalations: Vec<(u32, NodeId, EscalationEvent)> = Vec::new();
        let mut restarts = 0;
        let mut retired_nodes: Vec<NodeId> = Vec::new();
        let mut startup_events: Vec<(u32, StartupEvent)> = Vec::new();
        let mut wheel_contract_misses = [0u32; 4];
        let mut wheel_contract_violations = [0u32; 4];
        let mut core_death_records: Vec<(u32, NodeId, bool)> = Vec::new();
        let crc_rejects_0 = self.bus.crc_rejects();
        let guardian_blocks_0 = self.bus.guardian_blocks();
        let masquerade_rejects_0 = self.bus.masquerade_rejects();
        let corruptions_applied_0 = self.bus.corruptions_applied();
        let masquerades_applied_0 = self.bus.masquerades_applied();
        for cycle in 0..cycles {
            self.bus.start_cycle();

            // Network storm first: decide this cycle's wire faults and
            // which nodes are held down by crash/clock outages.
            let net_silenced: Vec<NodeId> = match self.net_injector.as_mut() {
                Some(inj) => inj.perturb_cycle(&mut self.bus),
                None => Vec::new(),
            };
            let bus_cycle = self.bus.cycle();

            // Blackout resets decided this cycle: the victims lose their
            // volatile state (processor, acceptor window, held set-point)
            // and, when the startup protocol is on, re-enter service
            // through Listen / cold-start contention.
            let resets: Vec<(NodeId, u32)> = self
                .net_injector
                .as_ref()
                .map(|inj| inj.resets_this_cycle().to_vec())
                .unwrap_or_default();
            for &(node, down) in &resets {
                if let Some(st) = self.startup.as_mut() {
                    st.reset_node(node, down, bus_cycle);
                }
                if let Some(station) = self.station_mut(node) {
                    station.reboot();
                }
                if let Some(w) = WHEELS.iter().position(|&id| id == node) {
                    self.acceptors[w] = CommandAcceptor::new(COMMAND_MAX_AGE);
                    self.last_command_words[w] = None;
                    self.setpoints[w] = None;
                    self.last_good[w] = None;
                    self.hold_left[w] = 0;
                }
            }

            // Core-death faults scheduled for this cycle, fired before
            // the nodes execute: a dual-core node survives iff the
            // deterministic replay of its substrate stays clean under its
            // resource protocol; anything else drops fail-silent for good.
            let deaths_now: Vec<(NodeId, bool)> = self
                .core_deaths
                .iter()
                .filter(|&&(c, _, _)| c == bus_cycle)
                .map(|&(_, n, e)| (n, e))
                .collect();
            for (node, escalated) in deaths_now {
                let survived = self.fire_core_death(node, escalated);
                core_death_records.push((bus_cycle, node, survived));
            }

            // Read the pedal through the triplicated sensor array: the
            // voter masks channel faults, clamps out-of-range readings at
            // the boundary and demotes persistently implausible channels.
            let pedal_sample = self.pedal_sensors.sample(bus_cycle, pedal(cycle));
            let pedal_now = pedal_sample.voted;
            if pedal_sample.clamped {
                value.pedal_clamped_cycles += 1;
            }
            value.sensor_implausible_flags +=
                pedal_sample.implausible.iter().filter(|&&f| f).count() as u32;
            if pedal_sample.demoted_now.is_some() {
                value.sensor_demotions += 1;
            }

            // Central units: compute the 4-way force distribution under TEM.
            for (&id, station) in self.cu.iter_mut() {
                let plan = plan_for(&self.injections, bus_cycle, id);
                if self.wire_corruptions.contains(&(bus_cycle, id)) {
                    let slot = self.bus.config().slot_of(id).expect("CU owns a slot");
                    self.bus.stage_wire_fault(WireFault::CorruptStatic {
                        slot,
                        byte: 7,
                        mask: 0x40,
                    });
                }
                let net_down = net_silenced.contains(&id);
                let intent = self
                    .startup
                    .as_ref()
                    .map(|s| s.intent(id))
                    .unwrap_or(TransmitIntent::Normal);
                let was_silent = self.cu_silent_last[&id];
                let silent_now = net_down
                    || intent != TransmitIntent::Normal
                    || station.silent_for > 0
                    || station.supervised_silent();
                let resync = self.cu_resync.get_mut(&id).expect("CU endpoint");
                if was_silent && !silent_now {
                    // The replica returns: it resumes transmitting at once
                    // (the distribution task is stateless) while refreshing
                    // soft state from its partner over the dynamic segment.
                    resync.begin_resync();
                }
                self.cu_silent_last.insert(id, silent_now);
                let mut our_state: Vec<u32> = Vec::new();
                if net_down || intent == TransmitIntent::Silent {
                    // Held down by the network outage, or still listening
                    // for a time base: the node does not execute, but its
                    // supervisor's restart clock still runs.
                    for ev in station.tick_supervisor() {
                        record_escalation(
                            &mut escalations,
                            &mut restarts,
                            &mut retired_nodes,
                            bus_cycle,
                            id,
                            ev,
                        );
                    }
                } else if intent == TransmitIntent::ColdStartFrame {
                    // Cold-start contention: the only frame this node may
                    // send is the marker offering its own time base.
                    let _ = self
                        .bus
                        .transmit_static(id, vec![COLD_START_MARKER, bus_cycle]);
                } else {
                    let (result, events) = station.run_job(&[pedal_now], plan);
                    for ev in events {
                        record_escalation(
                            &mut escalations,
                            &mut restarts,
                            &mut retired_nodes,
                            bus_cycle,
                            id,
                            ev,
                        );
                    }
                    if let Some(outputs) = result {
                        // Degraded-mode redistribution: scale the shares of the
                        // serving wheels when some are out of the membership.
                        let serving: Vec<usize> = (0..4)
                            .filter(|&w| self.membership.is_member(WHEELS[w]))
                            .collect();
                        let mut payload = vec![0u32; 4];
                        if !serving.is_empty() {
                            let scale_num = 4_u32;
                            let scale_den = serving.len() as u32;
                            for &w in &serving {
                                payload[w] = outputs[w] * scale_num / scale_den;
                            }
                        }
                        // Seal the set-points with a sequence number and
                        // CRC: the wheel-side acceptor can then reject
                        // corrupted, stale or replayed commands even when
                        // the corruption happens past the bus CRC.
                        let words = FreshSealedMessage::seal(bus_cycle, payload).to_words();
                        our_state = words.clone();
                        let _ = self.bus.transmit_static(id, words);
                    }
                }
                if !silent_now {
                    resync.tick(&mut self.bus);
                    if let Some(prev) = &self.prev_delivery {
                        let _ = resync.process_cycle(&mut self.bus, prev, &our_state);
                    }
                }
            }

            // Wheel nodes: run PID on last cycle's set-point.
            for (w, &id) in WHEELS.iter().enumerate() {
                if self.actuator_failed[w] {
                    // Failed-safe actuator: the brake releases and the
                    // node stays fail-silent, so membership keeps it
                    // excluded and the CU redistributes its share.
                    self.actuators[w].apply(bus_cycle, 0);
                    continue;
                }
                let station = self.wheels.get_mut(&id).expect("wheel exists");
                if net_silenced.contains(&id) {
                    // Crashed / clock-lost: the node does not execute.
                    continue;
                }
                match self
                    .startup
                    .as_ref()
                    .map(|s| s.intent(id))
                    .unwrap_or(TransmitIntent::Normal)
                {
                    TransmitIntent::Silent => {
                        // Listening for a time base, or reverted by clique
                        // avoidance: fail-silent by construction.
                        continue;
                    }
                    TransmitIntent::ColdStartFrame => {
                        let _ = self
                            .bus
                            .transmit_static(id, vec![COLD_START_MARKER, bus_cycle]);
                        continue;
                    }
                    TransmitIntent::Normal => {}
                }
                if station.supervised_silent() {
                    // The escalation ladder holds this wheel down (silent,
                    // restarting or retired): advance its restart clock.
                    for ev in station.tick_supervisor() {
                        record_escalation(
                            &mut escalations,
                            &mut restarts,
                            &mut retired_nodes,
                            bus_cycle,
                            id,
                            ev,
                        );
                    }
                    continue;
                }
                let Some(sp) = self.setpoints[w] else {
                    // No set-point yet (first cycle, CU silent beyond the
                    // hold window, or persistent command rejection): stay
                    // quiet.
                    continue;
                };
                let plan = plan_for(&self.injections, bus_cycle, id);
                if self.wire_corruptions.contains(&(bus_cycle, id)) {
                    let slot = self.bus.config().slot_of(id).expect("wheel owns a slot");
                    self.bus.stage_wire_fault(WireFault::CorruptStatic {
                        slot,
                        byte: 7,
                        mask: 0x40,
                    });
                }
                let (result, events) = station.run_job(&[sp, self.actuators[w].measured()], plan);
                for ev in events {
                    record_escalation(
                        &mut escalations,
                        &mut restarts,
                        &mut retired_nodes,
                        bus_cycle,
                        id,
                        ev,
                    );
                }
                if let Some(outputs) = result {
                    let force = outputs[0];
                    // Drive the actuator (healthy: a first-order lag) and
                    // feed the wheel-local divergence monitor.
                    let measured = self.actuators[w].apply(bus_cycle, force);
                    let verdict = self.monitors[w].observe(force, measured);
                    let error = measured.abs_diff(force);
                    let fault_active = self.actuators[w]
                        .fault()
                        .is_some_and(|(_, onset)| bus_cycle >= onset);
                    if fault_active && !verdict.tripped && error > mon_cfg.tolerance {
                        self.overrun_streak[w] += 1;
                        if self.overrun_streak[w] > mon_cfg.window_cycles {
                            value.undetected_actuator_cycles += 1;
                        }
                    } else {
                        self.overrun_streak[w] = 0;
                    }
                    if verdict.tripped {
                        // The monitor caught a misbehaving actuator: fail
                        // it to safe release and go fail-silent at once —
                        // membership and the CU handle the rest.
                        self.actuators[w].fail_safe();
                        self.actuator_failed[w] = true;
                        value.actuator_trips.push((bus_cycle, id));
                        continue;
                    }
                    let _ = self.bus.transmit_static(id, vec![force]);
                }
            }

            // Supervisors whose restart window elapsed under a gated
            // policy park on the integration gate. Route them into the
            // startup protocol (re-entering through Listen), or — with no
            // protocol to gate on — admit them at once.
            let parked: Vec<NodeId> = [CU_A, CU_B]
                .iter()
                .chain(WHEELS.iter())
                .copied()
                .filter(|id| {
                    self.cu
                        .get(id)
                        .or_else(|| self.wheels.get(id))
                        .and_then(|s| s.supervisor.as_ref())
                        .is_some_and(|sup| sup.awaiting_integration())
                })
                .collect();
            for id in parked {
                if let Some(st) = self.startup.as_mut() {
                    if st.is_active(id) {
                        st.reset_node(id, 0, bus_cycle);
                    }
                } else if let Some(station) = self.station_mut(id) {
                    for ev in station.complete_integration() {
                        record_escalation(
                            &mut escalations,
                            &mut restarts,
                            &mut retired_nodes,
                            bus_cycle,
                            id,
                            ev,
                        );
                    }
                }
            }

            let delivery = self.bus.finish_cycle();

            // Count omissions: nodes that were members going *into* this
            // cycle but missed their slot. Wheels only start transmitting
            // once the first set-points arrive (cycle 1), so their silent
            // first cycle is not an omission.
            for id in [CU_A, CU_B].iter().chain(WHEELS.iter()) {
                let expected = *id == CU_A || *id == CU_B || bus_cycle > 0;
                if expected
                    && self.membership.is_member(*id)
                    && delivery.from_node(self.bus.config(), *id).is_none()
                {
                    omissions += 1;
                }
            }

            // Startup transitions: fed the same delivery, after
            // membership. An `Activated` node has been counted into the
            // majority clique — release its parked supervisor, if any.
            let cycle_startup_events = match self.startup.as_mut() {
                Some(st) => st.observe(bus_cycle, &delivery),
                None => Vec::new(),
            };
            for ev in cycle_startup_events {
                if let StartupEvent::Activated(n) = ev {
                    if let Some(station) = self.station_mut(n) {
                        for sev in station.complete_integration() {
                            record_escalation(
                                &mut escalations,
                                &mut restarts,
                                &mut retired_nodes,
                                bus_cycle,
                                n,
                                sev,
                            );
                        }
                    }
                }
                startup_events.push((bus_cycle, ev));
            }

            let events = self.membership.observe(&delivery);
            for ev in &events {
                match ev {
                    MembershipEvent::Excluded(n) => {
                        self.exclusion_started.insert(*n, bus_cycle);
                    }
                    MembershipEvent::Reintegrated(n) => {
                        if let Some(started) = self.exclusion_started.remove(n) {
                            reintegration_latencies.push(bus_cycle - started);
                        }
                    }
                }
            }

            // Consume CU duplex value → next cycle's wheel set-points. The
            // selection is membership-aware: a replica still outside the
            // view (excluded, or restarted and not yet readmitted) cannot
            // poison the pair with stale state.
            let cu_value = select_duplex_among(self.bus.config(), &delivery, self.cu_pair, |n| {
                self.membership.is_member(n)
            });
            let cu_single = matches!(cu_value, DuplexValue::Single { .. });
            let cu_words: Option<Vec<u32>> = cu_value.payload().map(|p| p.to_vec());
            for w in 0..4 {
                // Wheel-local command path: a replay fault substitutes an
                // old buffered command, a corruption fault flips bits in
                // the wheel's copy — both *past* the bus CRC, which is
                // why the application-level seal must catch them.
                let replayed = self.command_replays.contains(&(bus_cycle, w));
                let mut presented = if replayed {
                    self.last_command_words[w].clone()
                } else {
                    cu_words.clone()
                };
                let mut injected_corruption = false;
                if let Some(words) = presented.as_mut() {
                    for &(c, cw, word, mask) in &self.command_corruptions {
                        if c == bus_cycle && cw == w && word < words.len() && mask != 0 {
                            words[word] ^= mask;
                            injected_corruption = true;
                        }
                    }
                }
                let accepted = presented
                    .as_deref()
                    .map(|words| self.acceptors[w].accept(words, bus_cycle));
                match accepted {
                    Some(Ok(forces)) if forces.len() == 4 => {
                        if injected_corruption || replayed {
                            // The acceptor let an injected command fault
                            // through: a silent value failure.
                            value.undetected_command_accepts += 1;
                        }
                        self.setpoints[w] = Some(forces[w]);
                        self.last_good[w] = Some(forces[w]);
                        self.hold_left[w] = HOLD_CYCLES;
                        self.last_command_words[w] = presented;
                    }
                    other => {
                        match other {
                            Some(Err(CommandReject::Stale { .. }))
                            | Some(Err(CommandReject::TooOld { .. })) => {
                                value.stale_rejects += 1;
                                value.command_rejects += 1;
                            }
                            Some(Err(_)) | Some(Ok(_)) => {
                                // CRC mismatch, malformed frame, or a
                                // well-sealed payload of the wrong shape.
                                value.seal_rejects += 1;
                                value.command_rejects += 1;
                            }
                            None => {}
                        }
                        // Hold-last-safe: keep braking on the last
                        // accepted set-point for a bounded window, then
                        // release and go quiet.
                        if self.hold_left[w] > 0 && self.last_good[w].is_some() {
                            self.hold_left[w] -= 1;
                            self.setpoints[w] = self.last_good[w];
                            value.held_setpoint_cycles += 1;
                        } else {
                            self.setpoints[w] = None;
                        }
                    }
                }
            }

            let serving_wheels = WHEELS
                .iter()
                .filter(|&&w| self.membership.is_member(w))
                .count();
            let degraded = serving_wheels < 4;
            if degraded {
                degraded_cycles += 1;
            }
            let cu_alive = self.membership.is_member(CU_A) || self.membership.is_member(CU_B);
            if !cu_alive || serving_wheels < 3 {
                service_lost = true;
            }

            let mut wheel_force = [None; 4];
            for (w, &id) in WHEELS.iter().enumerate() {
                wheel_force[w] = delivery
                    .from_node(self.bus.config(), id)
                    .and_then(|f| f.payload.first().copied());
            }

            // Per-wheel weakly-hard service contracts: once the bus has
            // warmed up, a wheel delivering no brake force this cycle is
            // charged one service miss against its (m,k) contract.
            // Violation episodes are edge-triggered so a long outage
            // counts once per excursion, not once per cycle.
            if bus_cycle > 0 {
                for w in 0..4 {
                    let miss = wheel_force[w].is_none();
                    if miss {
                        wheel_contract_misses[w] += 1;
                    }
                    let verdict = self.wheel_monitors[w].record(miss);
                    if verdict.violated && !self.wheel_violated[w] {
                        wheel_contract_violations[w] += 1;
                    }
                    self.wheel_violated[w] = verdict.violated;
                }
            }

            let members = self.membership.members().len();
            min_members = min_members.min(members);
            if members <= 3 {
                split_membership = true;
            }

            records.push(CycleRecord {
                cycle: bus_cycle,
                pedal: pedal_now,
                wheel_force,
                members,
                cu_single,
                degraded,
                events,
            });
            self.prev_delivery = Some(delivery);
        }

        ClusterReport {
            records,
            degraded_cycles,
            omissions,
            service_lost,
            split_membership,
            min_members,
            reintegration_latencies,
            crc_rejects: self.bus.crc_rejects() - crc_rejects_0,
            guardian_blocks: self.bus.guardian_blocks() - guardian_blocks_0,
            masquerade_rejects: self.bus.masquerade_rejects() - masquerade_rejects_0,
            corruptions_applied: self.bus.corruptions_applied() - corruptions_applied_0,
            masquerades_applied: self.bus.masquerades_applied() - masquerades_applied_0,
            escalations,
            restarts,
            retired_nodes,
            startup_events,
            value: ValueDomainReport {
                undetected_sensor_cycles: self.pedal_sensors.stats().undetected_error_cycles
                    - undetected_sensor_base,
                ..value
            },
            wheel_contracts: self.wheel_contracts,
            wheel_contract_misses,
            wheel_contract_violations,
            core_deaths: core_death_records,
        }
    }
}

fn record_escalation(
    escalations: &mut Vec<(u32, NodeId, EscalationEvent)>,
    restarts: &mut u32,
    retired_nodes: &mut Vec<NodeId>,
    cycle: u32,
    node: NodeId,
    event: EscalationEvent,
) {
    if matches!(event, EscalationEvent::RestartScheduled { .. }) {
        *restarts += 1;
    }
    if event == EscalationEvent::Retired && !retired_nodes.contains(&node) {
        retired_nodes.push(node);
    }
    escalations.push((cycle, node, event));
}

impl Default for BbwCluster {
    fn default() -> Self {
        BbwCluster::new()
    }
}

fn plan_for(injections: &[ClusterInjection], cycle: u32, node: NodeId) -> Option<InjectionPlan> {
    injections
        .iter()
        .find(|i| i.cycle == cycle && i.node == node)
        .map(|i| InjectionPlan {
            copy: i.copy,
            at_cycle: i.at_cycle,
            fault: i.fault,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_machine::fault::FaultTarget;

    fn constant_pedal(_: u32) -> u32 {
        1000
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
            fault: TransientFault {
                target: FaultTarget::Pc,
                mask: 1 << 20,
            },
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
    fn wire_corruption_is_a_single_cycle_omission() {
        let mut cluster = BbwCluster::new();
        cluster.corrupt_frame(5, WHEELS[2]);
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
        cluster.corrupt_frame(3, WHEELS[0]);
        cluster.corrupt_frame(4, WHEELS[0]);
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
        use nlft_net::inject::NetFaultRates;

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
        use nlft_net::inject::NetFaultRates;

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
        assert!(cluster.actuator_failed(2));
        let at_trip = cluster.actuators[2].measured();
        // The release decays geometrically toward zero from the trip on.
        let settle = cluster.run(20, constant_pedal);
        assert!(
            cluster.actuators[2].measured() < at_trip / 4,
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
