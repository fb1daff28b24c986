//! Deterministic network fault injection.
//!
//! The machine-level campaigns (`nlft-core`) perturb one node's internals;
//! this module perturbs the *communication substrate* itself, cycle after
//! cycle, with configurable per-node rates of every failure mode the
//! paper's system-level argument must survive:
//!
//! * **frame corruption** — random bit damage on the wire, caught by the
//!   frame CRC (end-to-end detection, §2.6);
//! * **slot omission** — a frame lost in transit, indistinguishable from a
//!   silent sender;
//! * **crash-and-restart** — a node goes silent for a restart window and
//!   then returns (the paper's `μ_R` path);
//! * **babbling idiot** — transmission attempts in foreign slots, blocked
//!   by the bus guardian;
//! * **masquerade** — well-formed frames carrying a forged sender id,
//!   rejected by the receiver-side identity check;
//! * **clock glitch** — a node's oscillator jumps, costing it a calibrated
//!   number of cycles of slot alignment (see [`crate::sync`]);
//! * **duplication / reorder** — dynamic-segment delivery anomalies that
//!   protocols over the mini-slots must tolerate.
//!
//! # Determinism
//!
//! Every decision for `(cycle, node)` is drawn from its own labelled
//! [`RngStream`] fork, so outcomes depend only on the master seed, never
//! on call order, the set of transmitting nodes, or thread scheduling.
//! Campaigns built on the injector are therefore bit-reproducible and
//! thread-count invariant.
//!
//! # Examples
//!
//! ```
//! use nlft_net::bus::{Bus, BusConfig};
//! use nlft_net::frame::NodeId;
//! use nlft_net::inject::{NetFaultInjector, NetFaultPlan, NetFaultRates};
//! use nlft_sim::rng::RngStream;
//!
//! let config = BusConfig::round_robin(3, 2);
//! let mut bus = Bus::new(config.clone());
//! let plan = NetFaultPlan::quiet()
//!     .with_node(NodeId(2), NetFaultRates { corruption: 1.0, ..NetFaultRates::QUIET });
//! let mut injector = NetFaultInjector::new(plan, RngStream::new(7));
//!
//! bus.start_cycle();
//! let silent = injector.perturb_cycle(&mut bus);
//! assert!(silent.is_empty(), "corruption does not silence the sender");
//! for n in 0..3 {
//!     bus.transmit_static(NodeId(n), vec![n.into()]).unwrap();
//! }
//! let d = bus.finish_cycle();
//! assert!(d.from_node(&config, NodeId(2)).is_none(), "corrupted frame rejected");
//! assert_eq!(injector.counts().corruptions, 1);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use nlft_sim::rng::RngStream;

use crate::bus::{Bus, WireFault};
use crate::frame::{NodeId, SlotId};

/// Why a fault-plan ingredient was rejected at construction. Every rate
/// and probability in a plan must be a real number in `[0, 1]`; NaN and
/// out-of-range values are rejected here instead of silently clamped or
/// left to misbehave deep inside an injector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// A rate or probability was NaN or outside `[0, 1]`.
    NotAProbability {
        /// Which field was rejected (e.g. `"corruption"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A blackout listed no victim nodes.
    BlackoutWithoutVictims,
    /// A blackout with `down_cycles == 0` would be a no-op.
    BlackoutZeroDown,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NotAProbability { field, value } => {
                write!(f, "{field} rate {value} outside [0, 1]")
            }
            PlanError::BlackoutWithoutVictims => write!(f, "blackout without victims"),
            PlanError::BlackoutZeroDown => write!(f, "blackout must last at least 1 cycle"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Checks one probability field, rejecting NaN and out-of-range values.
fn probability(field: &'static str, value: f64) -> Result<(), PlanError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(PlanError::NotAProbability { field, value })
    }
}

/// Per-cycle fault probabilities for one node. All rates are per
/// node-cycle and must lie in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetFaultRates {
    /// Probability the node's static frame is bit-corrupted on the wire.
    pub corruption: f64,
    /// Probability the node's static frame is dropped (slot omission).
    pub omission: f64,
    /// Probability the node crashes, staying silent for the plan's
    /// `restart_cycles` before returning.
    pub crash: f64,
    /// Probability the node attempts a transmission in a foreign slot
    /// (babbling idiot).
    pub babble: f64,
    /// Probability the node's frame carries a forged sender id.
    pub masquerade: f64,
    /// Probability the node's clock glitches, costing it the plan's
    /// `clock_outage_cycles` of slot alignment.
    pub clock_glitch: f64,
}

impl NetFaultRates {
    /// No faults at all.
    pub const QUIET: NetFaultRates = NetFaultRates {
        corruption: 0.0,
        omission: 0.0,
        crash: 0.0,
        babble: 0.0,
        masquerade: 0.0,
        clock_glitch: 0.0,
    };

    /// A mixed storm scaled by `intensity` in `[0, 1]`: at 1.0 the node
    /// corrupts or loses roughly half its frames and occasionally crashes,
    /// babbles, masquerades and glitches.
    pub fn storm(intensity: f64) -> Self {
        NetFaultRates {
            corruption: 0.30 * intensity,
            omission: 0.20 * intensity,
            crash: 0.02 * intensity,
            babble: 0.10 * intensity,
            masquerade: 0.05 * intensity,
            clock_glitch: 0.02 * intensity,
        }
    }

    /// Whether every rate is zero.
    pub(crate) fn is_quiet(&self) -> bool {
        *self == NetFaultRates::QUIET
    }

    /// Validates every rate: each must be a real number in `[0, 1]`.
    /// NaN is rejected like any out-of-range value.
    pub fn check(&self) -> Result<(), PlanError> {
        for (name, r) in [
            ("corruption", self.corruption),
            ("omission", self.omission),
            ("crash", self.crash),
            ("babble", self.babble),
            ("masquerade", self.masquerade),
            ("clock_glitch", self.clock_glitch),
        ] {
            probability(name, r)?;
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// A correlated blackout / brown-out: in one slot of `at_cycle`, every
/// listed node is reset simultaneously — the EMI-burst / power-dip
/// failure mode that takes out several (optionally all, including both
/// CU replicas) nodes at once. Each victim stays down for `down_cycles`
/// plus an individual stagger drawn uniformly from `[0, stagger]`
/// (supply capacitors discharge at different rates), then re-enters the
/// cluster through the startup protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackoutSpec {
    /// Cycle in which the burst hits.
    pub at_cycle: u32,
    /// The nodes reset by the burst.
    pub nodes: Vec<NodeId>,
    /// Minimum cycles every victim stays powered down (≥ 1).
    pub down_cycles: u32,
    /// Upper bound of the per-node additional power-up stagger.
    pub stagger: u32,
}

impl BlackoutSpec {
    /// Validates the spec: it must reset at least one node for at least
    /// one cycle.
    pub fn check(&self) -> Result<(), PlanError> {
        if self.nodes.is_empty() {
            return Err(PlanError::BlackoutWithoutVictims);
        }
        if self.down_cycles == 0 {
            return Err(PlanError::BlackoutZeroDown);
        }
        Ok(())
    }
}

/// A full injection plan: per-node rates, outage geometry, dynamic-segment
/// perturbation rates and an activity window.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    node_rates: BTreeMap<NodeId, NetFaultRates>,
    /// Scheduled correlated blackouts. Unlike the stochastic rates these
    /// fire at absolute cycles, ignoring the activity window.
    pub blackouts: Vec<BlackoutSpec>,
    /// Cycles a crashed node stays silent before returning.
    pub restart_cycles: u32,
    /// Cycles a clock-glitched node loses slot alignment for.
    pub clock_outage_cycles: u32,
    /// Probability per cycle that one dynamic frame is delivered twice.
    pub duplicate_dynamic: f64,
    /// Probability per cycle that the dynamic segment is delivered in
    /// reversed arbitration order.
    pub reorder_dynamic: f64,
    /// First cycle (inclusive) in which the plan's rates apply.
    pub from_cycle: u32,
    /// First cycle (exclusive) in which they no longer apply. Outage
    /// windows opened inside the window still run to completion.
    pub until_cycle: u32,
}

impl NetFaultPlan {
    /// A plan with no faults anywhere and paper-like outage geometry.
    pub fn quiet() -> Self {
        NetFaultPlan {
            node_rates: BTreeMap::new(),
            blackouts: Vec::new(),
            restart_cycles: 8,
            clock_outage_cycles: 2,
            duplicate_dynamic: 0.0,
            reorder_dynamic: 0.0,
            from_cycle: 0,
            until_cycle: u32::MAX,
        }
    }

    /// Sets the rates for one node.
    ///
    /// # Panics
    ///
    /// Panics on invalid rates; see [`NetFaultPlan::try_with_node`] for
    /// the non-panicking form.
    pub fn with_node(self, node: NodeId, rates: NetFaultRates) -> Self {
        match self.try_with_node(node, rates) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Sets the rates for one node, rejecting NaN or out-of-`[0, 1]`
    /// rates with a typed error.
    pub fn try_with_node(mut self, node: NodeId, rates: NetFaultRates) -> Result<Self, PlanError> {
        rates.check()?;
        self.node_rates.insert(node, rates);
        Ok(self)
    }

    /// Sets the same rates for several nodes.
    ///
    /// # Panics
    ///
    /// Panics on invalid rates; see [`NetFaultPlan::try_with_nodes`] for
    /// the non-panicking form.
    pub fn with_nodes(self, nodes: &[NodeId], rates: NetFaultRates) -> Self {
        match self.try_with_nodes(nodes, rates) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Sets the same rates for several nodes, rejecting NaN or
    /// out-of-`[0, 1]` rates with a typed error.
    pub fn try_with_nodes(
        mut self,
        nodes: &[NodeId],
        rates: NetFaultRates,
    ) -> Result<Self, PlanError> {
        rates.check()?;
        for &n in nodes {
            self.node_rates.insert(n, rates);
        }
        Ok(self)
    }

    /// Sets dynamic-segment duplication/reorder rates.
    ///
    /// # Panics
    ///
    /// Panics if either rate is NaN or outside `[0, 1]`; see
    /// [`NetFaultPlan::try_with_dynamic`] for the non-panicking form.
    pub fn with_dynamic(self, duplicate: f64, reorder: f64) -> Self {
        match self.try_with_dynamic(duplicate, reorder) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Sets dynamic-segment duplication/reorder rates, rejecting NaN or
    /// out-of-`[0, 1]` rates with a typed error.
    pub fn try_with_dynamic(mut self, duplicate: f64, reorder: f64) -> Result<Self, PlanError> {
        probability("duplicate", duplicate)?;
        probability("reorder", reorder)?;
        self.duplicate_dynamic = duplicate;
        self.reorder_dynamic = reorder;
        Ok(self)
    }

    /// Schedules a correlated blackout.
    ///
    /// # Panics
    ///
    /// Panics if the spec lists no nodes or has `down_cycles == 0`; see
    /// [`NetFaultPlan::try_with_blackout`] for the non-panicking form.
    pub fn with_blackout(self, spec: BlackoutSpec) -> Self {
        match self.try_with_blackout(spec) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Schedules a correlated blackout, rejecting an empty victim list or
    /// a zero-cycle outage with a typed error.
    pub fn try_with_blackout(mut self, spec: BlackoutSpec) -> Result<Self, PlanError> {
        spec.check()?;
        self.blackouts.push(spec);
        Ok(self)
    }

    /// Restricts the plan to cycles `[from, until)`.
    pub fn window(mut self, from: u32, until: u32) -> Self {
        self.from_cycle = from;
        self.until_cycle = until;
        self
    }

    /// The rates applying to `node` (quiet if never configured).
    pub(crate) fn rates_for(&self, node: NodeId) -> NetFaultRates {
        self.node_rates
            .get(&node)
            .copied()
            .unwrap_or(NetFaultRates::QUIET)
    }

    /// Whether the plan is active in `cycle`.
    pub(crate) fn active_in(&self, cycle: u32) -> bool {
        (self.from_cycle..self.until_cycle).contains(&cycle)
    }
}

/// Tally of injection *decisions* (attempts), by fault kind. Compare with
/// the [`Bus`] counters of *applied* faults and rejects to estimate
/// bus-level coverage parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Frame corruptions decided.
    pub corruptions: u64,
    /// Slot omissions decided.
    pub omissions: u64,
    /// Crashes decided.
    pub crashes: u64,
    /// Babbling-idiot attempts decided (and immediately attempted).
    pub babbles: u64,
    /// Masquerades decided.
    pub masquerades: u64,
    /// Clock glitches decided.
    pub clock_glitches: u64,
    /// Dynamic-frame duplications decided.
    pub duplicates: u64,
    /// Dynamic-segment reorders decided.
    pub reorders: u64,
    /// Node resets caused by scheduled blackouts.
    pub blackout_resets: u64,
}

impl InjectionCounts {
    /// Sum of all decisions.
    pub fn total(&self) -> u64 {
        self.corruptions
            + self.omissions
            + self.crashes
            + self.babbles
            + self.masquerades
            + self.clock_glitches
            + self.duplicates
            + self.reorders
            + self.blackout_resets
    }

    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &InjectionCounts) {
        self.corruptions += other.corruptions;
        self.omissions += other.omissions;
        self.crashes += other.crashes;
        self.babbles += other.babbles;
        self.masquerades += other.masquerades;
        self.clock_glitches += other.clock_glitches;
        self.duplicates += other.duplicates;
        self.reorders += other.reorders;
        self.blackout_resets += other.blackout_resets;
    }
}

/// The stateful injector driving a [`NetFaultPlan`] against a [`Bus`].
#[derive(Debug, Clone)]
pub struct NetFaultInjector {
    plan: NetFaultPlan,
    root: RngStream,
    /// Nodes currently held down: cycle (exclusive) until which each stays
    /// silent.
    down_until: BTreeMap<NodeId, u32>,
    /// Nodes reset by a blackout in the most recent perturbed cycle,
    /// with their total down windows (refreshed every `perturb_cycle`).
    last_resets: Vec<(NodeId, u32)>,
    counts: InjectionCounts,
}

impl NetFaultInjector {
    /// Creates an injector. `rng` should be a dedicated fork of the
    /// experiment's master stream (e.g. `root.fork("net-injector")`).
    pub fn new(plan: NetFaultPlan, rng: RngStream) -> Self {
        for rates in plan.node_rates.values() {
            rates.validate();
        }
        NetFaultInjector {
            plan,
            root: rng,
            down_until: BTreeMap::new(),
            last_resets: Vec::new(),
            counts: InjectionCounts::default(),
        }
    }

    /// Nodes reset by a scheduled blackout in the most recently
    /// perturbed cycle, with the total number of cycles each stays down
    /// (base `down_cycles` plus its individual stagger draw). The caller
    /// uses this to wipe node-local state — a reset node reboots, it
    /// does not merely miss a slot.
    pub fn resets_this_cycle(&self) -> &[(NodeId, u32)] {
        &self.last_resets
    }

    /// The active plan.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Replaces the plan mid-experiment (e.g. to quiesce a storm).
    /// Outage windows already opened keep running.
    pub fn set_plan(&mut self, plan: NetFaultPlan) {
        self.plan = plan;
    }

    /// Decisions taken so far.
    pub fn counts(&self) -> InjectionCounts {
        self.counts
    }

    /// Whether `node` is being held silent in `cycle` by a crash or clock
    /// outage window.
    pub(crate) fn is_down(&self, node: NodeId, cycle: u32) -> bool {
        self.down_until
            .get(&node)
            .is_some_and(|&until| cycle < until)
    }

    /// Perturbs the cycle that `bus` currently has open. Call exactly once
    /// per cycle, after [`Bus::start_cycle`] and before any legitimate
    /// transmission. Decides per-node fates, performs babbling-idiot
    /// attempts, stages wire faults and dynamic-segment perturbations, and
    /// returns the nodes that must stay silent this cycle (crash or clock
    /// outage) in slot order.
    pub fn perturb_cycle(&mut self, bus: &mut Bus) -> Vec<NodeId> {
        let cycle = bus.cycle();
        self.last_resets.clear();
        // Scheduled blackouts fire first: a reset node is down from this
        // very cycle, before any stochastic per-node fate is drawn.
        let due: Vec<BlackoutSpec> = self
            .plan
            .blackouts
            .iter()
            .filter(|spec| spec.at_cycle == cycle)
            .cloned()
            .collect();
        for spec in due {
            for &node in &spec.nodes {
                let stagger = if spec.stagger == 0 {
                    0
                } else {
                    // One labelled fork per (cycle, node), like every
                    // other injection decision.
                    self.root
                        .fork_indexed("net-blackout", (u64::from(cycle) << 8) | u64::from(node.0))
                        .uniform_range(0, u64::from(spec.stagger) + 1) as u32
                };
                // A blackout longer than the run keeps the node down for
                // the rest of it.
                let down = spec.down_cycles.saturating_add(stagger);
                self.down_until.insert(node, cycle.saturating_add(down));
                self.counts.blackout_resets += 1;
                self.last_resets.push((node, down));
            }
        }
        let active = self.plan.active_in(cycle);
        let nodes: Vec<NodeId> = bus.config().static_slots.clone();
        let mut silenced = Vec::new();
        for node in nodes {
            let slot = bus.config().slot_of(node).expect("node owns a slot");
            if self.is_down(node, cycle) {
                silenced.push(node);
                continue;
            }
            if !active {
                continue;
            }
            let rates = self.plan.rates_for(node);
            if rates.is_quiet() {
                continue;
            }
            // One labelled fork per (cycle, node): decisions are a pure
            // function of (seed, cycle, node).
            let mut rng = self
                .root
                .fork_indexed("net-fault", (u64::from(cycle) << 8) | u64::from(node.0));
            if rng.bernoulli(rates.crash) {
                self.counts.crashes += 1;
                self.down_until
                    .insert(node, cycle + self.plan.restart_cycles.max(1));
                silenced.push(node);
                continue;
            }
            if rng.bernoulli(rates.clock_glitch) {
                self.counts.clock_glitches += 1;
                self.down_until
                    .insert(node, cycle + self.plan.clock_outage_cycles.max(1));
                silenced.push(node);
                continue;
            }
            // Omission and corruption are mutually exclusive per cycle so
            // the applied-corruption counter stays a clean denominator.
            if rng.bernoulli(rates.omission) {
                self.counts.omissions += 1;
                bus.stage_wire_fault(WireFault::DropStatic { slot });
            } else if rng.bernoulli(rates.corruption) {
                self.counts.corruptions += 1;
                let byte = rng.uniform_range(0, 64) as usize;
                // One or two flipped bits within one byte: the worst case
                // the frame CRC is *guaranteed* to catch.
                let bit1 = 1u8 << rng.uniform_range(0, 8);
                let bit2 = 1u8 << rng.uniform_range(0, 8);
                let mask = if rng.bernoulli(0.5) {
                    bit1
                } else {
                    bit1 | bit2
                };
                bus.stage_wire_fault(WireFault::CorruptStatic { slot, byte, mask });
            }
            if rng.bernoulli(rates.masquerade) {
                self.counts.masquerades += 1;
                let n = bus.config().static_slots.len() as u64;
                let shift = rng.uniform_range(1, n.max(2));
                let claim = bus.config().static_slots[((u64::from(slot.0) + shift) % n) as usize];
                bus.stage_wire_fault(WireFault::MasqueradeStatic { slot, claim });
            }
            if rng.bernoulli(rates.babble) {
                self.counts.babbles += 1;
                let n = bus.config().static_slots.len() as u64;
                let shift = rng.uniform_range(1, n.max(2));
                let foreign = SlotId(((u64::from(slot.0) + shift) % n) as u8);
                // The guardian must block this; a panic-free error return
                // is the contract under test.
                let _ = bus.transmit_in_slot(node, foreign, vec![0xBABB_1E00]);
            }
        }
        if active {
            let mut rng = self.root.fork_indexed("net-dynamic", u64::from(cycle));
            if rng.bernoulli(self.plan.duplicate_dynamic) {
                self.counts.duplicates += 1;
                let index = rng.uniform_range(0, 4) as usize;
                bus.stage_wire_fault(WireFault::DuplicateDynamic { index });
            }
            if rng.bernoulli(self.plan.reorder_dynamic) {
                self.counts.reorders += 1;
                bus.stage_wire_fault(WireFault::ReorderDynamic);
            }
        }
        silenced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;

    fn storm_bus() -> (Bus, NetFaultInjector) {
        let config = BusConfig::round_robin(4, 2);
        let plan = NetFaultPlan::quiet()
            .with_nodes(&config.static_slots.clone(), NetFaultRates::storm(1.0));
        (
            Bus::new(config),
            NetFaultInjector::new(plan, RngStream::new(0x57A3)),
        )
    }

    fn run_cycles(bus: &mut Bus, injector: &mut NetFaultInjector, cycles: u32) {
        for _ in 0..cycles {
            bus.start_cycle();
            let silent = injector.perturb_cycle(bus);
            for &n in &bus.config().static_slots.clone() {
                if !silent.contains(&n) {
                    let _ = bus.transmit_static(n, vec![1, 2, 3]);
                }
            }
            bus.finish_cycle();
        }
    }

    #[test]
    fn storm_exercises_every_fault_kind() {
        let (mut bus, mut injector) = storm_bus();
        run_cycles(&mut bus, &mut injector, 400);
        let c = injector.counts();
        assert!(c.corruptions > 0, "{c:?}");
        assert!(c.omissions > 0, "{c:?}");
        assert!(c.crashes > 0, "{c:?}");
        assert!(c.babbles > 0, "{c:?}");
        assert!(c.masquerades > 0, "{c:?}");
        assert!(c.clock_glitches > 0, "{c:?}");
    }

    #[test]
    fn injector_is_deterministic() {
        let (mut bus_a, mut inj_a) = storm_bus();
        let (mut bus_b, mut inj_b) = storm_bus();
        run_cycles(&mut bus_a, &mut inj_a, 200);
        run_cycles(&mut bus_b, &mut inj_b, 200);
        assert_eq!(inj_a.counts(), inj_b.counts());
        assert_eq!(bus_a.crc_rejects(), bus_b.crc_rejects());
        assert_eq!(bus_a.guardian_blocks(), bus_b.guardian_blocks());
        assert_eq!(bus_a.masquerade_rejects(), bus_b.masquerade_rejects());
    }

    #[test]
    fn every_applied_corruption_is_crc_rejected() {
        let config = BusConfig::round_robin(4, 0);
        let plan = NetFaultPlan::quiet().with_nodes(
            &config.static_slots.clone(),
            NetFaultRates {
                corruption: 0.5,
                ..NetFaultRates::QUIET
            },
        );
        let mut bus = Bus::new(config);
        let mut injector = NetFaultInjector::new(plan, RngStream::new(9));
        run_cycles(&mut bus, &mut injector, 300);
        assert!(bus.corruptions_applied() > 100);
        assert_eq!(
            bus.crc_rejects(),
            bus.corruptions_applied(),
            "the CRC must reject every 1-2 bit wire corruption"
        );
    }

    #[test]
    fn guardian_blocks_every_babble() {
        let config = BusConfig::round_robin(4, 0);
        let plan = NetFaultPlan::quiet().with_nodes(
            &config.static_slots.clone(),
            NetFaultRates {
                babble: 0.7,
                ..NetFaultRates::QUIET
            },
        );
        let mut bus = Bus::new(config);
        let mut injector = NetFaultInjector::new(plan, RngStream::new(10));
        run_cycles(&mut bus, &mut injector, 200);
        assert!(injector.counts().babbles > 50);
        assert_eq!(bus.guardian_blocks(), injector.counts().babbles);
    }

    #[test]
    fn crash_holds_node_down_for_restart_window() {
        let config = BusConfig::round_robin(2, 0);
        let mut plan = NetFaultPlan::quiet().with_node(
            NodeId(1),
            NetFaultRates {
                crash: 1.0,
                ..NetFaultRates::QUIET
            },
        );
        plan.restart_cycles = 5;
        // Only cycle 0 can crash the node; afterwards the plan is idle.
        let plan = plan.window(0, 1);
        let mut bus = Bus::new(config);
        let mut injector = NetFaultInjector::new(plan, RngStream::new(3));
        let mut down_cycles = 0;
        for cycle in 0..10 {
            bus.start_cycle();
            let silent = injector.perturb_cycle(&mut bus);
            if silent.contains(&NodeId(1)) {
                down_cycles += 1;
                assert!(injector.is_down(NodeId(1), cycle));
            }
            bus.finish_cycle();
        }
        assert_eq!(down_cycles, 5, "crash window is exactly restart_cycles");
        assert_eq!(injector.counts().crashes, 1);
    }

    #[test]
    fn plan_window_bounds_activity() {
        let config = BusConfig::round_robin(2, 0);
        let plan = NetFaultPlan::quiet()
            .with_node(
                NodeId(0),
                NetFaultRates {
                    omission: 1.0,
                    ..NetFaultRates::QUIET
                },
            )
            .window(3, 6);
        let mut bus = Bus::new(config);
        let mut injector = NetFaultInjector::new(plan, RngStream::new(4));
        run_cycles(&mut bus, &mut injector, 10);
        assert_eq!(injector.counts().omissions, 3, "cycles 3, 4, 5 only");
    }

    #[test]
    fn quiesced_plan_lets_outage_finish() {
        let config = BusConfig::round_robin(2, 0);
        let mut plan = NetFaultPlan::quiet().with_node(
            NodeId(0),
            NetFaultRates {
                crash: 1.0,
                ..NetFaultRates::QUIET
            },
        );
        plan.restart_cycles = 6;
        let mut bus = Bus::new(config);
        let mut injector = NetFaultInjector::new(plan, RngStream::new(5));
        bus.start_cycle();
        assert_eq!(injector.perturb_cycle(&mut bus), vec![NodeId(0)]);
        bus.finish_cycle();
        injector.set_plan(NetFaultPlan::quiet());
        let mut still_down = 0;
        for _ in 1..10 {
            bus.start_cycle();
            if !injector.perturb_cycle(&mut bus).is_empty() {
                still_down += 1;
            }
            bus.finish_cycle();
        }
        assert_eq!(
            still_down, 5,
            "outage opened before quiescing still completes"
        );
    }

    #[test]
    fn masquerade_storm_rejected_by_identity_check() {
        let config = BusConfig::round_robin(3, 0);
        let plan = NetFaultPlan::quiet().with_nodes(
            &config.static_slots.clone(),
            NetFaultRates {
                masquerade: 1.0,
                ..NetFaultRates::QUIET
            },
        );
        let mut bus = Bus::new(config);
        let mut injector = NetFaultInjector::new(plan, RngStream::new(6));
        run_cycles(&mut bus, &mut injector, 50);
        assert_eq!(bus.masquerades_applied(), 150);
        assert_eq!(bus.masquerade_rejects(), 150);
        assert_eq!(bus.crc_rejects(), 0, "masquerades are well-formed frames");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_rates_rejected() {
        NetFaultPlan::quiet().with_node(
            NodeId(0),
            NetFaultRates {
                corruption: 1.5,
                ..NetFaultRates::QUIET
            },
        );
    }

    #[test]
    fn blackout_resets_all_victims_in_one_cycle() {
        let config = BusConfig::round_robin(4, 0);
        let mut bus = Bus::new(config);
        let victims = vec![NodeId(0), NodeId(1), NodeId(3)];
        let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: 2,
            nodes: victims.clone(),
            down_cycles: 3,
            stagger: 0,
        });
        let mut injector = NetFaultInjector::new(plan, RngStream::new(0xB1AC));
        for cycle in 0..2 {
            bus.start_cycle();
            assert!(injector.perturb_cycle(&mut bus).is_empty());
            assert!(injector.resets_this_cycle().is_empty(), "cycle {cycle}");
            bus.finish_cycle();
        }
        bus.start_cycle();
        let silenced = injector.perturb_cycle(&mut bus);
        assert_eq!(silenced, victims, "all victims drop in the same cycle");
        assert_eq!(
            injector.resets_this_cycle(),
            &[(NodeId(0), 3), (NodeId(1), 3), (NodeId(3), 3)],
            "zero stagger: every victim is down exactly down_cycles"
        );
        assert_eq!(injector.counts().blackout_resets, 3);
        assert_eq!(injector.counts().total(), 3);
        bus.finish_cycle();
        // Down for cycles 2, 3, 4; back in cycle 5.
        for cycle in 3..=5 {
            bus.start_cycle();
            let silenced = injector.perturb_cycle(&mut bus);
            if cycle < 5 {
                assert_eq!(silenced, victims, "cycle {cycle}");
            } else {
                assert!(silenced.is_empty(), "victims return in cycle 5");
            }
            assert!(injector.resets_this_cycle().is_empty());
            bus.finish_cycle();
        }
    }

    #[test]
    fn blackout_stagger_is_bounded_and_deterministic() {
        let config = BusConfig::round_robin(6, 0);
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let spec = BlackoutSpec {
            at_cycle: 0,
            nodes: nodes.clone(),
            down_cycles: 2,
            stagger: 3,
        };
        let run = || {
            let mut bus = Bus::new(config.clone());
            let plan = NetFaultPlan::quiet().with_blackout(spec.clone());
            let mut injector = NetFaultInjector::new(plan, RngStream::new(0x0FF));
            bus.start_cycle();
            injector.perturb_cycle(&mut bus);
            let resets = injector.resets_this_cycle().to_vec();
            bus.finish_cycle();
            resets
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "stagger draws are a pure function of the seed");
        assert_eq!(a.len(), 6);
        for &(_, down) in &a {
            assert!((2..=5).contains(&down), "down {down} outside [2, 2+3]");
        }
        assert!(
            a.iter().any(|&(_, down)| down != a[0].1),
            "a 3-cycle stagger over 6 nodes should not be uniform"
        );
    }

    #[test]
    fn blackout_longer_than_any_run_saturates() {
        let config = BusConfig::round_robin(4, 0);
        let mut bus = Bus::new(config);
        let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: 2,
            nodes: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            down_cycles: u32::MAX,
            stagger: 3,
        });
        let mut injector = NetFaultInjector::new(plan, RngStream::new(0x5A7));
        for cycle in 0..12 {
            bus.start_cycle();
            let silenced = injector.perturb_cycle(&mut bus);
            if cycle == 2 {
                assert!(
                    injector
                        .resets_this_cycle()
                        .iter()
                        .all(|&(_, down)| down == u32::MAX),
                    "{:?}",
                    injector.resets_this_cycle()
                );
            }
            let expected = if cycle < 2 { 0 } else { 4 };
            assert_eq!(silenced.len(), expected, "cycle {cycle}: down for good");
            bus.finish_cycle();
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 cycle")]
    fn zero_length_blackout_rejected() {
        NetFaultPlan::quiet().with_blackout(BlackoutSpec {
            at_cycle: 0,
            nodes: vec![NodeId(0)],
            down_cycles: 0,
            stagger: 0,
        });
    }

    /// Every rate field rejects NaN, negative and > 1 values with a typed
    /// error naming the offending field — no clamping, no silent misuse.
    #[test]
    fn typed_rejection_per_rate_field() {
        type RateCtor = fn(f64) -> NetFaultRates;
        let fields: [(&str, RateCtor); 6] = [
            ("corruption", |v| NetFaultRates {
                corruption: v,
                ..NetFaultRates::QUIET
            }),
            ("omission", |v| NetFaultRates {
                omission: v,
                ..NetFaultRates::QUIET
            }),
            ("crash", |v| NetFaultRates {
                crash: v,
                ..NetFaultRates::QUIET
            }),
            ("babble", |v| NetFaultRates {
                babble: v,
                ..NetFaultRates::QUIET
            }),
            ("masquerade", |v| NetFaultRates {
                masquerade: v,
                ..NetFaultRates::QUIET
            }),
            ("clock_glitch", |v| NetFaultRates {
                clock_glitch: v,
                ..NetFaultRates::QUIET
            }),
        ];
        for (name, make) in fields {
            for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
                let err = make(bad).check().unwrap_err();
                match err {
                    PlanError::NotAProbability { field, value } => {
                        assert_eq!(field, name);
                        assert!(value.is_nan() == bad.is_nan() && (bad.is_nan() || value == bad));
                    }
                    other => panic!("wrong error for {name}={bad}: {other:?}"),
                }
                let plan = NetFaultPlan::quiet().try_with_node(NodeId(0), make(bad));
                assert!(plan.is_err(), "{name}={bad} must be rejected by the plan");
            }
            assert!(make(0.0).check().is_ok());
            assert!(make(1.0).check().is_ok());
        }
    }

    #[test]
    fn typed_rejection_of_dynamic_rates() {
        for bad in [f64::NAN, -0.2, 1.01] {
            let err = NetFaultPlan::quiet()
                .try_with_dynamic(bad, 0.0)
                .unwrap_err();
            assert!(matches!(
                err,
                PlanError::NotAProbability {
                    field: "duplicate",
                    ..
                }
            ));
            let err = NetFaultPlan::quiet()
                .try_with_dynamic(0.0, bad)
                .unwrap_err();
            assert!(matches!(
                err,
                PlanError::NotAProbability {
                    field: "reorder",
                    ..
                }
            ));
        }
        assert!(NetFaultPlan::quiet().try_with_dynamic(1.0, 0.0).is_ok());
    }

    #[test]
    fn typed_rejection_of_bad_blackouts() {
        let empty = BlackoutSpec {
            at_cycle: 1,
            nodes: Vec::new(),
            down_cycles: 2,
            stagger: 0,
        };
        assert_eq!(empty.check(), Err(PlanError::BlackoutWithoutVictims));
        assert!(NetFaultPlan::quiet().try_with_blackout(empty).is_err());
        let zero = BlackoutSpec {
            at_cycle: 1,
            nodes: vec![NodeId(2)],
            down_cycles: 0,
            stagger: 0,
        };
        assert_eq!(zero.check(), Err(PlanError::BlackoutZeroDown));
        assert!(NetFaultPlan::quiet().try_with_blackout(zero).is_err());
    }
}
