//! Duplex active replication and state resynchronisation.
//!
//! The paper's central unit is a duplex configuration in *active
//! replication*: both replicas compute and transmit every cycle, and
//! consumers accept the value from either replica — an omission or
//! fail-silence of one replica is invisible as long as the partner
//! delivers. Replica determinism is assumed (both replicas see the same
//! inputs and compute the same outputs), so a *disagreement* between two
//! valid replica frames indicates an undetected error and is surfaced
//! rather than hidden.
//!
//! [`StateResync`] implements the future-work idea of §4: a replica
//! returning from an omission asks its partner for fresh state through the
//! event-triggered (dynamic) segment, while critical traffic continues in
//! the static slots.

use std::fmt;

use crate::bus::{Bus, BusConfig, CycleDelivery, TransmitError};
use crate::frame::NodeId;

/// A duplex pair of replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplexPair {
    /// First replica.
    pub a: NodeId,
    /// Second replica.
    pub b: NodeId,
}

impl DuplexPair {
    /// Creates a pair.
    ///
    /// # Panics
    ///
    /// Panics if both ids are the same node.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "a duplex pair needs two distinct nodes");
        DuplexPair { a, b }
    }

    /// The partner of `node`, if `node` is in the pair.
    pub(crate) fn partner_of(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Result of selecting a value from a duplex pair in one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DuplexValue {
    /// Both replicas delivered and agreed.
    Agreed(Vec<u32>),
    /// Only one replica delivered (the other omitted / is down).
    Single {
        /// The replica that delivered.
        from: NodeId,
        /// Its payload.
        payload: Vec<u32>,
    },
    /// Both delivered but the payloads differ — replica determinism is
    /// broken or an error escaped a node's EDMs. Consumers must treat the
    /// pair as failed.
    Disagreement {
        /// Payload from replica `a`.
        a: Vec<u32>,
        /// Payload from replica `b`.
        b: Vec<u32>,
    },
    /// Neither replica delivered.
    Silent,
}

impl DuplexValue {
    /// The usable payload, if any.
    pub fn payload(&self) -> Option<&[u32]> {
        match self {
            DuplexValue::Agreed(p) => Some(p),
            DuplexValue::Single { payload, .. } => Some(payload),
            DuplexValue::Disagreement { .. } | DuplexValue::Silent => None,
        }
    }
}

impl fmt::Display for DuplexValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DuplexValue::Agreed(_) => write!(f, "agreed"),
            DuplexValue::Single { from, .. } => write!(f, "single ({from})"),
            DuplexValue::Disagreement { .. } => write!(f, "disagreement"),
            DuplexValue::Silent => write!(f, "silent"),
        }
    }
}

/// Selects the duplex pair's value considering only replicas that
/// `is_member` accepts. A replica outside the membership view — excluded,
/// or freshly restarted and not yet reintegrated — may transmit with stale
/// state; consumers must not let it poison the pair, so its frames are
/// treated as silence.
pub fn select_duplex_among(
    config: &BusConfig,
    delivery: &CycleDelivery,
    pair: DuplexPair,
    is_member: impl Fn(NodeId) -> bool,
) -> DuplexValue {
    let fa = delivery
        .from_node(config, pair.a)
        .filter(|_| is_member(pair.a));
    let fb = delivery
        .from_node(config, pair.b)
        .filter(|_| is_member(pair.b));
    match (fa, fb) {
        (Some(x), Some(y)) => {
            if x.payload == y.payload {
                DuplexValue::Agreed(x.payload.clone())
            } else {
                DuplexValue::Disagreement {
                    a: x.payload.clone(),
                    b: y.payload.clone(),
                }
            }
        }
        (Some(x), None) => DuplexValue::Single {
            from: pair.a,
            payload: x.payload.clone(),
        },
        (None, Some(y)) => DuplexValue::Single {
            from: pair.b,
            payload: y.payload.clone(),
        },
        (None, None) => DuplexValue::Silent,
    }
}

/// Message kinds of the state-resynchronisation protocol, encoded as the
/// first payload word of dynamic-segment frames.
const RESYNC_REQUEST: u32 = 0x5259_0001; // "RY" 1
const RESYNC_RESPONSE: u32 = 0x5259_0002;

/// Retry schedule for [`StateResync::tick`]: bounded attempts with capped
/// exponential backoff. Under a network fault storm a resync request or its
/// answer can be lost like any other frame, so a single-shot request is not
/// enough — but unbounded aggressive retries would squat the dynamic
/// segment the rest of the cluster also needs. The compromise is classic:
/// retry, back off exponentially, cap the backoff, bound the attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResyncPolicy {
    /// Cycles to wait for an answer to the first request.
    pub initial_wait_cycles: u32,
    /// Cap on the exponentially growing wait.
    pub max_wait_cycles: u32,
    /// Requests sent before giving up.
    pub max_attempts: u32,
}

impl Default for ResyncPolicy {
    fn default() -> Self {
        ResyncPolicy {
            initial_wait_cycles: 2,
            max_wait_cycles: 16,
            max_attempts: 5,
        }
    }
}

impl ResyncPolicy {
    /// The wait after the `attempt`-th request (1-based): capped
    /// exponential.
    fn wait_after(&self, attempt: u32) -> u32 {
        self.initial_wait_cycles
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_wait_cycles)
            .max(1)
    }
}

/// The state-resync endpoint a replica runs.
///
/// Protocol (all in the dynamic segment, priority 0 = most urgent):
///
/// 1. the recovering replica broadcasts `Request { requester }`;
/// 2. the partner answers `Response { requester, state… }` next cycle;
/// 3. the requester installs the state and resumes active replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateResync {
    node: NodeId,
    pair: DuplexPair,
    outstanding: bool,
    policy: ResyncPolicy,
    resyncing: bool,
    attempts: u32,
    wait: u32,
}

/// An event produced by the resync endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResyncEvent {
    /// The partner asked for our state; we responded with `state`.
    ServedPartner(Vec<u32>),
    /// Our own request was answered; install this state.
    StateReceived(Vec<u32>),
}

impl StateResync {
    /// Creates the endpoint for `node`, which must belong to `pair`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the pair.
    pub fn new(node: NodeId, pair: DuplexPair) -> Self {
        Self::with_policy(node, pair, ResyncPolicy::default())
    }

    /// Creates the endpoint with an explicit retry policy.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the pair or `max_attempts` is zero.
    pub(crate) fn with_policy(node: NodeId, pair: DuplexPair, policy: ResyncPolicy) -> Self {
        assert!(
            pair.partner_of(node).is_some(),
            "{node} is not part of the duplex pair"
        );
        assert!(policy.max_attempts > 0, "max_attempts must be positive");
        StateResync {
            node,
            pair,
            outstanding: false,
            policy,
            resyncing: false,
            attempts: 0,
            wait: 0,
        }
    }

    /// Whether a request is waiting for an answer.
    #[cfg(test)]
    pub(crate) fn awaiting_state(&self) -> bool {
        self.outstanding
    }

    /// Whether a [`StateResync::begin_resync`] episode is still running.
    #[cfg(test)]
    pub(crate) fn is_resyncing(&self) -> bool {
        self.resyncing
    }

    /// Requests sent in the current/last episode.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Starts (or restarts) a resynchronisation episode: [`StateResync::tick`]
    /// will send the first request on its next call and retry per the
    /// endpoint's retry policy until an answer arrives or the budget runs out.
    pub fn begin_resync(&mut self) {
        self.resyncing = true;
        self.outstanding = false;
        self.attempts = 0;
        self.wait = 0;
    }

    /// Drives one cycle of the retry schedule. Call once per cycle between
    /// [`Bus::start_cycle`] and [`Bus::finish_cycle`] while an episode is
    /// running; a no-op otherwise. Infallible by design: a full dynamic
    /// segment simply consumes the attempt — under a storm that *is* a
    /// failed request.
    pub fn tick(&mut self, bus: &mut Bus) {
        if !self.resyncing {
            return;
        }
        if self.wait > 0 {
            self.wait -= 1;
            return;
        }
        if self.attempts >= self.policy.max_attempts {
            self.resyncing = false;
            self.outstanding = false;
            return;
        }
        self.attempts += 1;
        self.wait = self.policy.wait_after(self.attempts);
        let _ = self.request_state(bus);
    }

    /// Broadcasts a state request in the dynamic segment (on return from an
    /// omission).
    ///
    /// # Errors
    ///
    /// Propagates [`TransmitError::DynamicSegmentFull`] — the request is
    /// retried next cycle by calling this again.
    pub(crate) fn request_state(&mut self, bus: &mut Bus) -> Result<(), TransmitError> {
        bus.transmit_dynamic(self.node, 0, vec![RESYNC_REQUEST, u32::from(self.node.0)])?;
        self.outstanding = true;
        Ok(())
    }

    /// Processes one cycle's dynamic frames: answers partner requests with
    /// `our_state` and receives answers to our own request.
    ///
    /// # Errors
    ///
    /// Propagates transmit errors when answering a partner request.
    pub fn process_cycle(
        &mut self,
        bus: &mut Bus,
        delivery: &CycleDelivery,
        our_state: &[u32],
    ) -> Result<Vec<ResyncEvent>, TransmitError> {
        let mut events = Vec::new();
        let partner = self.pair.partner_of(self.node).expect("validated in new");
        for frame in &delivery.dynamic_frames {
            match frame.payload.split_first() {
                Some((&RESYNC_REQUEST, rest)) => {
                    let requester = rest.first().map(|&r| NodeId(r as u8));
                    if frame.sender == partner && requester == Some(partner) {
                        let mut payload = vec![RESYNC_RESPONSE, u32::from(partner.0)];
                        payload.extend_from_slice(our_state);
                        bus.transmit_dynamic(self.node, 1, payload)?;
                        events.push(ResyncEvent::ServedPartner(our_state.to_vec()));
                    }
                }
                Some((&RESYNC_RESPONSE, rest))
                    if self.outstanding
                        && frame.sender == partner
                        && rest.first() == Some(&u32::from(self.node.0)) =>
                {
                    self.outstanding = false;
                    self.resyncing = false;
                    self.wait = 0;
                    events.push(ResyncEvent::StateReceived(rest[1..].to_vec()));
                }
                _ => {}
            }
        }
        Ok(events)
    }
}

/// Convenience: does a dynamic frame belong to the resync protocol?
/// (Filtering keeps application traffic separate.)
#[cfg(test)]
pub(crate) fn is_resync_frame(frame: &crate::frame::Frame) -> bool {
    matches!(
        frame.payload.first(),
        Some(&RESYNC_REQUEST) | Some(&RESYNC_RESPONSE)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn setup() -> (Bus, BusConfig, DuplexPair) {
        let config = BusConfig::round_robin(2, 4);
        (
            Bus::new(config.clone()),
            config,
            DuplexPair::new(NodeId(0), NodeId(1)),
        )
    }

    #[test]
    fn agreed_when_replicas_match() {
        let (mut bus, config, pair) = setup();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![42]).unwrap();
        bus.transmit_static(NodeId(1), vec![42]).unwrap();
        let d = bus.finish_cycle();
        assert_eq!(
            select_duplex_among(&config, &d, pair, |_| true),
            DuplexValue::Agreed(vec![42])
        );
    }

    #[test]
    fn single_when_one_replica_silent() {
        let (mut bus, config, pair) = setup();
        bus.start_cycle();
        bus.transmit_static(NodeId(1), vec![7]).unwrap();
        let d = bus.finish_cycle();
        let v = select_duplex_among(&config, &d, pair, |_| true);
        assert_eq!(
            v,
            DuplexValue::Single {
                from: NodeId(1),
                payload: vec![7]
            }
        );
        assert_eq!(v.payload(), Some(&[7u32][..]));
    }

    #[test]
    fn disagreement_surfaces_divergence() {
        let (mut bus, config, pair) = setup();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        bus.transmit_static(NodeId(1), vec![2]).unwrap();
        let d = bus.finish_cycle();
        let v = select_duplex_among(&config, &d, pair, |_| true);
        assert!(matches!(v, DuplexValue::Disagreement { .. }));
        assert_eq!(v.payload(), None, "divergent pair yields no usable value");
    }

    #[test]
    fn silent_when_both_down() {
        let (mut bus, config, pair) = setup();
        bus.start_cycle();
        let d = bus.finish_cycle();
        assert_eq!(
            select_duplex_among(&config, &d, pair, |_| true),
            DuplexValue::Silent
        );
    }

    #[test]
    fn partner_lookup() {
        let pair = DuplexPair::new(NodeId(3), NodeId(5));
        assert_eq!(pair.partner_of(NodeId(3)), Some(NodeId(5)));
        assert_eq!(pair.partner_of(NodeId(5)), Some(NodeId(3)));
        assert_eq!(pair.partner_of(NodeId(9)), None);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_pair_rejected() {
        DuplexPair::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn full_resync_handshake() {
        let (mut bus, _, pair) = setup();
        let mut recovering = StateResync::new(NodeId(1), pair);
        let mut healthy = StateResync::new(NodeId(0), pair);
        let healthy_state = vec![101, 202, 303];

        // Cycle 1: the recovering node requests state.
        bus.start_cycle();
        recovering.request_state(&mut bus).unwrap();
        let d1 = bus.finish_cycle();
        assert!(recovering.awaiting_state());

        // Cycle 2: the healthy partner sees the request and answers.
        bus.start_cycle();
        let ev_h = healthy
            .process_cycle(&mut bus, &d1, &healthy_state)
            .unwrap();
        assert_eq!(
            ev_h,
            vec![ResyncEvent::ServedPartner(healthy_state.clone())]
        );
        let d2 = bus.finish_cycle();

        // Cycle 3: the recovering node installs the state.
        bus.start_cycle();
        let ev_r = recovering.process_cycle(&mut bus, &d2, &[]).unwrap();
        assert_eq!(ev_r, vec![ResyncEvent::StateReceived(healthy_state)]);
        assert!(!recovering.awaiting_state());
        bus.finish_cycle();
    }

    #[test]
    fn resync_ignores_foreign_and_application_frames() {
        let (mut bus, _, pair) = setup();
        let mut node = StateResync::new(NodeId(0), pair);
        bus.start_cycle();
        bus.transmit_dynamic(NodeId(1), 2, vec![0x1234, 5]).unwrap(); // app frame
        let d = bus.finish_cycle();
        bus.start_cycle();
        let ev = node.process_cycle(&mut bus, &d, &[9]).unwrap();
        assert!(ev.is_empty());
        bus.finish_cycle();
    }

    #[test]
    fn response_only_accepted_when_outstanding() {
        let (mut bus, _, pair) = setup();
        let mut node = StateResync::new(NodeId(1), pair);
        // A spurious response arrives without a request.
        bus.start_cycle();
        bus.transmit_dynamic(NodeId(0), 1, vec![RESYNC_RESPONSE, 1, 99])
            .unwrap();
        let d = bus.finish_cycle();
        bus.start_cycle();
        let ev = node.process_cycle(&mut bus, &d, &[]).unwrap();
        assert!(ev.is_empty(), "unsolicited state must not be installed");
        bus.finish_cycle();
    }

    #[test]
    fn membership_aware_selection_ignores_non_members() {
        let (mut bus, config, pair) = setup();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        bus.transmit_static(NodeId(1), vec![2]).unwrap();
        let d = bus.finish_cycle();
        // Node 0 is outside the membership: its (divergent, stale) frame
        // must not produce a Disagreement — the healthy replica rules.
        let v = select_duplex_among(&config, &d, pair, |n| n != NodeId(0));
        assert_eq!(
            v,
            DuplexValue::Single {
                from: NodeId(1),
                payload: vec![2]
            }
        );
        // With both members it is the usual disagreement.
        assert!(matches!(
            select_duplex_among(&config, &d, pair, |_| true),
            DuplexValue::Disagreement { .. }
        ));
        // With neither, silence.
        assert_eq!(
            select_duplex_among(&config, &d, pair, |_| false),
            DuplexValue::Silent
        );
    }

    #[test]
    fn tick_retries_with_capped_exponential_backoff() {
        let (mut bus, _, pair) = setup();
        let policy = ResyncPolicy {
            initial_wait_cycles: 2,
            max_wait_cycles: 4,
            max_attempts: 4,
        };
        let mut node = StateResync::with_policy(NodeId(1), pair, policy);
        node.begin_resync();
        // The partner never answers; record which cycles carry a request.
        let mut request_cycles = Vec::new();
        for cycle in 0..30u32 {
            bus.start_cycle();
            node.tick(&mut bus);
            let d = bus.finish_cycle();
            if d.dynamic_frames.iter().any(is_resync_frame) {
                request_cycles.push(cycle);
            }
        }
        // Waits: 2, 4, 4 (capped) → requests at cycles 0, 3, 8, 13.
        assert_eq!(request_cycles, vec![0, 3, 8, 13]);
        assert_eq!(node.attempts(), 4);
        assert!(!node.is_resyncing(), "budget exhausted without an answer");
    }

    #[test]
    fn tick_stops_once_state_received() {
        let (mut bus, _, pair) = setup();
        let mut recovering = StateResync::new(NodeId(1), pair);
        let mut healthy = StateResync::new(NodeId(0), pair);
        recovering.begin_resync();

        // Cycle 1: first request goes out.
        bus.start_cycle();
        recovering.tick(&mut bus);
        let d1 = bus.finish_cycle();
        assert!(recovering.awaiting_state());

        // Cycle 2: partner answers.
        bus.start_cycle();
        recovering.tick(&mut bus);
        healthy.process_cycle(&mut bus, &d1, &[55]).unwrap();
        let d2 = bus.finish_cycle();

        // Cycle 3: state installed; the episode ends.
        bus.start_cycle();
        recovering.tick(&mut bus);
        let ev = recovering.process_cycle(&mut bus, &d2, &[]).unwrap();
        assert_eq!(ev, vec![ResyncEvent::StateReceived(vec![55])]);
        assert!(!recovering.is_resyncing());
        bus.finish_cycle();

        // Further ticks are no-ops: no more requests on the wire.
        for _ in 0..10 {
            bus.start_cycle();
            recovering.tick(&mut bus);
            let d = bus.finish_cycle();
            assert!(!d.dynamic_frames.iter().any(is_resync_frame));
        }
        assert_eq!(recovering.attempts(), 1);
    }

    #[test]
    fn begin_resync_resets_a_given_up_episode() {
        let (mut bus, _, pair) = setup();
        let policy = ResyncPolicy {
            initial_wait_cycles: 1,
            max_wait_cycles: 1,
            max_attempts: 1,
        };
        let mut node = StateResync::with_policy(NodeId(0), pair, policy);
        node.begin_resync();
        for _ in 0..3 {
            bus.start_cycle();
            node.tick(&mut bus);
            bus.finish_cycle();
        }
        assert!(!node.is_resyncing(), "the one attempt went unanswered");
        node.begin_resync();
        assert!(node.is_resyncing());
        assert_eq!(node.attempts(), 0);
    }

    #[test]
    fn resync_frames_identified() {
        let f = Frame::new(
            NodeId(0),
            crate::frame::SlotId(255),
            0,
            vec![RESYNC_REQUEST, 0],
        );
        assert!(is_resync_frame(&f));
        let g = Frame::new(NodeId(0), crate::frame::SlotId(255), 0, vec![7]);
        assert!(!is_resync_frame(&g));
    }
}
