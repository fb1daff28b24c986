//! Membership and reintegration.
//!
//! The distributed redundancy management the paper leans on: every node
//! observes every static slot, so a silent node is noticed within one
//! cycle. A node missing its slot for `exclude_after` consecutive cycles is
//! excluded from the membership view; an excluded node that transmits
//! correctly again for `reintegrate_after` consecutive cycles is
//! readmitted. The exclusion/readmission latencies are what the paper's
//! repair rates `μ_R` (restart, ~3 s) and `μ_OM` (omission reintegration,
//! ~1.6 s) abstract.

use std::collections::BTreeMap;

use crate::bus::{BusConfig, CycleDelivery};
use crate::frame::NodeId;

/// Membership status of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// In the membership; `missed` consecutive slots currently unanswered.
    Active {
        /// Consecutive missed cycles (0 = healthy).
        missed: u32,
    },
    /// Out of the membership; `seen` consecutive correct cycles so far.
    Excluded {
        /// Consecutive correct cycles while excluded.
        seen: u32,
    },
}

/// A membership change produced by one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Node missed too many slots and was excluded.
    Excluded(NodeId),
    /// Node transmitted correctly long enough and was readmitted.
    Reintegrated(NodeId),
}

/// The membership monitor every node runs.
///
/// # Examples
///
/// ```
/// use nlft_net::bus::{Bus, BusConfig};
/// use nlft_net::frame::NodeId;
/// use nlft_net::membership::{Membership, MembershipEvent};
///
/// let config = BusConfig::round_robin(2, 0);
/// let mut bus = Bus::new(config.clone());
/// let mut membership = Membership::new(&config, 2, 2);
///
/// // Node 1 stays silent for two cycles → excluded.
/// for _ in 0..2 {
///     bus.start_cycle();
///     bus.transmit_static(NodeId(0), vec![1]).unwrap();
///     let d = bus.finish_cycle();
///     let _ = membership.observe(&d);
/// }
/// assert!(!membership.is_member(NodeId(1)));
/// assert!(membership.is_member(NodeId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Membership {
    states: BTreeMap<NodeId, MemberState>,
    config: BusConfig,
    exclude_after: u32,
    reintegrate_after: u32,
}

impl Membership {
    /// Creates a monitor for all slot-owning nodes, all initially members.
    /// Exclusion is purely consecutive: `exclude_after` missed cycles in a
    /// row. Intermittent senders that always recover in time are never
    /// excluded.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is zero.
    pub fn new(config: &BusConfig, exclude_after: u32, reintegrate_after: u32) -> Self {
        assert!(exclude_after > 0, "exclude_after must be positive");
        assert!(reintegrate_after > 0, "reintegrate_after must be positive");
        Membership {
            states: config
                .static_slots
                .iter()
                .map(|&n| (n, MemberState::Active { missed: 0 }))
                .collect(),
            config: config.clone(),
            exclude_after,
            reintegrate_after,
        }
    }

    /// Whether a node is currently in the membership.
    pub fn is_member(&self, node: NodeId) -> bool {
        matches!(self.states.get(&node), Some(MemberState::Active { .. }))
    }

    /// All current members.
    pub fn members(&self) -> Vec<NodeId> {
        self.states
            .iter()
            .filter(|(_, s)| matches!(s, MemberState::Active { .. }))
            .map(|(&n, _)| n)
            .collect()
    }

    /// State of one node, if it owns a slot.
    pub fn state(&self, node: NodeId) -> Option<MemberState> {
        self.states.get(&node).copied()
    }

    /// Feeds one cycle's delivery into the monitor, returning any
    /// membership changes.
    pub fn observe(&mut self, delivery: &CycleDelivery) -> Vec<MembershipEvent> {
        let mut events = Vec::new();
        for (&node, state) in &mut self.states {
            let transmitted = self
                .config
                .slot_of(node)
                .is_some_and(|s| delivery.static_frames.contains_key(&s));
            match state {
                MemberState::Active { missed } => {
                    if transmitted {
                        *missed = 0;
                    } else {
                        *missed += 1;
                    }
                    if *missed >= self.exclude_after {
                        *state = MemberState::Excluded { seen: 0 };
                        events.push(MembershipEvent::Excluded(node));
                    }
                }
                MemberState::Excluded { seen } => {
                    if transmitted {
                        *seen += 1;
                        if *seen >= self.reintegrate_after {
                            // Readmitted with a clean slate: old misses must
                            // not count against the fresh membership.
                            *state = MemberState::Active { missed: 0 };
                            events.push(MembershipEvent::Reintegrated(node));
                        }
                    } else {
                        *seen = 0;
                    }
                }
            }
        }
        events
    }

    /// Cycles from first correct slot to readmission.
    pub(crate) fn reintegration_latency_cycles(&self) -> u32 {
        self.reintegrate_after
    }
}

/// Senders that must be heard in one cycle for the observer to count
/// itself in the majority clique: `n/2 + 1` of `n` slot owners.
pub(crate) fn clique_majority_threshold(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;

    fn setup(exclude: u32, reint: u32) -> (Bus, Membership) {
        let config = BusConfig::round_robin(3, 0);
        let bus = Bus::new(config.clone());
        let membership = Membership::new(&config, exclude, reint);
        (bus, membership)
    }

    /// Runs one cycle where exactly the `senders` transmit.
    fn cycle(bus: &mut Bus, membership: &mut Membership, senders: &[u8]) -> Vec<MembershipEvent> {
        bus.start_cycle();
        for &s in senders {
            bus.transmit_static(NodeId(s), vec![s as u32]).unwrap();
        }
        let d = bus.finish_cycle();
        membership.observe(&d)
    }

    #[test]
    fn all_members_initially() {
        let (_, m) = setup(2, 2);
        assert_eq!(m.members().len(), 3);
    }

    #[test]
    fn silent_node_excluded_after_threshold() {
        let (mut bus, mut m) = setup(2, 2);
        assert!(
            cycle(&mut bus, &mut m, &[0, 1]).is_empty(),
            "one miss tolerated"
        );
        let ev = cycle(&mut bus, &mut m, &[0, 1]);
        assert_eq!(ev, vec![MembershipEvent::Excluded(NodeId(2))]);
        assert!(!m.is_member(NodeId(2)));
        assert_eq!(m.members(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn single_miss_recovers_without_exclusion() {
        let (mut bus, mut m) = setup(2, 2);
        cycle(&mut bus, &mut m, &[0, 1]);
        // Node 2 returns before the threshold.
        assert!(cycle(&mut bus, &mut m, &[0, 1, 2]).is_empty());
        assert!(m.is_member(NodeId(2)));
        assert_eq!(m.state(NodeId(2)), Some(MemberState::Active { missed: 0 }));
    }

    #[test]
    fn reintegration_after_consecutive_good_cycles() {
        let (mut bus, mut m) = setup(1, 3);
        cycle(&mut bus, &mut m, &[0, 1]); // node 2 excluded immediately
        assert!(!m.is_member(NodeId(2)));
        cycle(&mut bus, &mut m, &[0, 1, 2]);
        cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert!(!m.is_member(NodeId(2)), "needs 3 good cycles");
        let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert_eq!(ev, vec![MembershipEvent::Reintegrated(NodeId(2))]);
        assert!(m.is_member(NodeId(2)));
    }

    #[test]
    fn reintegration_counter_resets_on_silence() {
        let (mut bus, mut m) = setup(1, 2);
        cycle(&mut bus, &mut m, &[0, 1]); // exclude node 2
        cycle(&mut bus, &mut m, &[0, 1, 2]); // 1 good
        cycle(&mut bus, &mut m, &[0, 1]); // silent again → reset
        cycle(&mut bus, &mut m, &[0, 1, 2]); // 1 good
        assert!(!m.is_member(NodeId(2)));
        cycle(&mut bus, &mut m, &[0, 1, 2]); // 2 good → in
        assert!(m.is_member(NodeId(2)));
    }

    #[test]
    fn corrupted_frame_counts_as_silence() {
        let config = BusConfig::round_robin(2, 0);
        let mut bus = Bus::new(config.clone());
        let mut m = Membership::new(&config, 1, 1);
        bus.start_cycle();
        bus.stage_wire_fault(crate::bus::WireFault::CorruptStatic {
            slot: crate::frame::SlotId(0),
            byte: 3,
            mask: 0x01,
        });
        bus.transmit_static(NodeId(0), vec![5]).unwrap();
        bus.transmit_static(NodeId(1), vec![6]).unwrap();
        let d = bus.finish_cycle();
        let ev = m.observe(&d);
        assert_eq!(ev, vec![MembershipEvent::Excluded(NodeId(0))]);
    }

    #[test]
    fn multiple_simultaneous_exclusions() {
        let (mut bus, mut m) = setup(1, 1);
        let ev = cycle(&mut bus, &mut m, &[1]);
        assert!(ev.contains(&MembershipEvent::Excluded(NodeId(0))));
        assert!(ev.contains(&MembershipEvent::Excluded(NodeId(2))));
        assert_eq!(m.members(), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "exclude_after")]
    fn zero_threshold_rejected() {
        let config = BusConfig::round_robin(2, 0);
        Membership::new(&config, 0, 1);
    }

    #[test]
    fn exclude_after_one_is_immediate() {
        let (mut bus, mut m) = setup(1, 1);
        let ev = cycle(&mut bus, &mut m, &[0, 1]);
        assert_eq!(ev, vec![MembershipEvent::Excluded(NodeId(2))]);
        // And a single good cycle readmits (reintegrate_after = 1).
        let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert_eq!(ev, vec![MembershipEvent::Reintegrated(NodeId(2))]);
    }

    #[test]
    fn readmission_exactly_at_reintegrate_after() {
        let reint = 4;
        let (mut bus, mut m) = setup(1, reint);
        cycle(&mut bus, &mut m, &[0, 1]); // exclude node 2
        for good in 1..reint {
            let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
            assert!(ev.is_empty(), "good cycle {good}: still excluded");
            assert_eq!(
                m.state(NodeId(2)),
                Some(MemberState::Excluded { seen: good })
            );
        }
        let ev = cycle(&mut bus, &mut m, &[0, 1, 2]);
        assert_eq!(
            ev,
            vec![MembershipEvent::Reintegrated(NodeId(2))],
            "readmitted exactly at cycle {reint}, not one later"
        );
    }

    #[test]
    fn alternating_misses_evade_consecutive_rule() {
        // An every-other-cycle node is never excluded: the consecutive
        // counter resets on each hit.
        let (mut bus, mut m) = setup(2, 2);
        for i in 0..40 {
            let senders: &[u8] = if i % 2 == 0 { &[0, 1] } else { &[0, 1, 2] };
            assert!(cycle(&mut bus, &mut m, senders).is_empty());
        }
        assert!(m.is_member(NodeId(2)), "50% loss yet still a member");
    }

    #[test]
    fn clique_threshold_is_strict_majority() {
        assert_eq!(clique_majority_threshold(3), 2);
        assert_eq!(clique_majority_threshold(4), 3);
        assert_eq!(clique_majority_threshold(6), 4);
        assert_eq!(clique_majority_threshold(7), 4);
    }
}
