//! TTP/C-style cluster startup, cold-start contention and reintegration.
//!
//! Every scenario before this module began from the golden synchronized
//! state: all six nodes already agree on time and membership. A correlated
//! transient — an EMI burst, a power brown-out — resets several or *all*
//! nodes at once, and then nothing the paper assumes ("the network
//! interface provides reliable transmission") exists any more. This
//! module re-establishes it from scratch, following the TTP/C startup
//! design:
//!
//! 1. **Listen** — a powered-up node stays silent and listens. If it
//!    hears a cold-start frame (or regular traffic from an already
//!    running cluster) it adopts that timing and moves to *Integrate*.
//! 2. **Cold-start contention** — if the bus stays silent for the node's
//!    *unique* listen timeout, the node transmits a cold-start frame
//!    itself, offering its own clock as the cluster time base.
//! 3. **Collision / big bang** — two nodes whose timeouts expire in the
//!    same cycle both transmit; neither frame can serve as an unambiguous
//!    time base, so both contenders back off into *Listen* again. Because
//!    every timeout is unique, the repeat contention cannot collide the
//!    same way twice, so the collision resolves in bounded time.
//! 4. **Integrate** — a node with adopted (or offered) timing transmits
//!    normally but is not yet *Active*; it becomes Active once it hears a
//!    majority (`n/2 + 1`) of slot owners in a single cycle.
//! 5. **Clique avoidance** — an Active node that suddenly hears only a
//!    minority of senders must assume *it* is in the minority clique
//!    (e.g. on the wrong side of a post-glitch partition) and reverts to
//!    integration — falling silent and re-listening — instead of babbling
//!    against the majority.
//!
//! The protocol itself is fully deterministic: all randomness in blackout
//! scenarios comes from the fault injector (power-up stagger), never from
//! the state machine. That is what makes the DTMC cross-check in
//! [`cold_start_chain`] exact rather than statistical.

use std::collections::BTreeMap;

use crate::bus::{BusConfig, CycleDelivery};
use crate::frame::NodeId;
use crate::membership::clique_majority_threshold;

/// First payload word of a cold-start frame on the wire. Regular traffic
/// in the BBW cluster never starts a static payload with this value (CU
/// set-point frames start with the bus cycle, wheel frames with a brake
/// force), so receivers can classify frames by inspection.
pub const COLD_START_MARKER: u32 = 0xC01D_57A2;

/// Listen timeout (cycles) of the node owning slot 0. Each later slot
/// adds one cycle, which keeps every timeout unique — the TTP/C condition
/// for big-bang collisions to resolve on the next contention round.
pub const BASE_LISTEN_TIMEOUT: u32 = 4;

/// Startup state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartupState {
    /// Still resetting after a power loss; deaf and mute.
    PoweredDown {
        /// Cycles until the node enters [`StartupState::Listen`].
        until_listen: u32,
    },
    /// Silent, listening for a time base to adopt.
    Listen {
        /// Remaining silent-bus cycles before this node contends.
        remaining: u32,
    },
    /// Transmitting a cold-start frame this cycle, offering its own
    /// clock as the cluster time base.
    ColdStart,
    /// Timing adopted (or successfully offered); transmitting, but not
    /// yet counted on until a majority of senders is heard.
    Integrate,
    /// Fully synchronized, agreed member of the majority clique.
    Active,
}

/// What a node is allowed to put on the bus this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitIntent {
    /// Nothing — powered down, listening, or reverted by clique
    /// avoidance.
    Silent,
    /// A cold-start frame (`[COLD_START_MARKER, cycle]`).
    ColdStartFrame,
    /// Regular application traffic.
    Normal,
}

/// Startup milestones, reported by [`StartupProtocol::observe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartupEvent {
    /// A node finished its power-up delay and entered Listen.
    PoweredUp(NodeId),
    /// A node's listen timeout expired; it contends next cycle.
    Contending(NodeId),
    /// A cold-start frame was transmitted alone and won: its sender is
    /// now the cluster time base.
    ColdStartWon(NodeId),
    /// Two or more cold-start frames collided in the same cycle (the
    /// big-bang scenario); every contender backs off into Listen.
    BigBang(Vec<NodeId>),
    /// A listening node adopted timing from an observed frame.
    TimingAdopted(NodeId),
    /// An integrating node heard a majority of senders and went Active.
    Activated(NodeId),
    /// An Active node heard only a minority clique and reverted to
    /// integration (fell silent) instead of babbling.
    CliqueReverted(NodeId),
}

/// Static parameters of the startup protocol.
#[derive(Debug, Clone)]
pub struct StartupConfig {
    nodes: Vec<NodeId>,
    /// Unique per-node listen timeouts, indexed like `nodes`.
    pub listen_timeouts: Vec<u32>,
    /// Senders that must be heard in one cycle to count as a majority
    /// clique (`n/2 + 1`).
    pub integration_threshold: usize,
}

impl StartupConfig {
    /// Derives the standard configuration from a bus schedule: one
    /// startup participant per static slot, listen timeout
    /// [`BASE_LISTEN_TIMEOUT`]` + slot index`, majority threshold
    /// `n/2 + 1`.
    pub fn for_bus(bus: &BusConfig) -> Self {
        let nodes = bus.static_slots.clone();
        let listen_timeouts = (0..nodes.len())
            .map(|i| BASE_LISTEN_TIMEOUT + i as u32)
            .collect();
        StartupConfig {
            integration_threshold: clique_majority_threshold(nodes.len()),
            nodes,
            listen_timeouts,
        }
    }

    /// The participating nodes, in slot order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn timeout_of(&self, node: NodeId) -> u32 {
        let i = self
            .nodes
            .iter()
            .position(|&n| n == node)
            .expect("node not in startup config");
        self.listen_timeouts[i]
    }

    fn validate(&self) {
        assert!(!self.nodes.is_empty(), "startup config without nodes");
        assert_eq!(
            self.nodes.len(),
            self.listen_timeouts.len(),
            "one listen timeout per node"
        );
        assert!(
            self.listen_timeouts.iter().all(|&t| t > 0),
            "listen timeouts must be positive"
        );
        let mut sorted = self.listen_timeouts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            self.listen_timeouts.len(),
            "listen timeouts must be unique or big-bang collisions repeat forever"
        );
        assert!(
            (1..=self.nodes.len()).contains(&self.integration_threshold),
            "integration threshold must be in 1..=n"
        );
    }
}

/// Counters and latencies accumulated by a [`StartupProtocol`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StartupMetrics {
    /// Cycle of the first *winning* (uncollided) cold-start frame.
    pub first_cold_start_cycle: Option<u32>,
    /// Cold-start frames put on the bus (collided ones included).
    pub cold_starts_sent: u32,
    /// Big-bang collision rounds observed.
    pub big_bangs: u32,
    /// Active nodes that reverted to integration on a minority clique.
    pub clique_reverts: u32,
    /// Per-node reset→Active latencies in activation order: the number
    /// of observed cycles from the cycle the node was reset (inclusive)
    /// to the cycle it went Active (inclusive).
    pub integration_latencies: Vec<(NodeId, u32)>,
}

#[derive(Debug, Clone)]
struct NodeStartup {
    state: StartupState,
    /// Clique avoidance only arms once the node has seen a majority
    /// while Active — otherwise the golden all-active bootstrap (where
    /// wheels are idle until set-points arrive) would trip it.
    armed: bool,
    /// Cycle this node last began a (re)start episode.
    reset_at: u32,
}

/// The cluster-wide startup state machine.
///
/// The protocol is driven in lock-step with the bus: query
/// [`StartupProtocol::intent`] for each node before transmitting in a
/// cycle, then feed the completed cycle's delivery to
/// [`StartupProtocol::observe`], which performs all state transitions.
///
/// # Examples
///
/// ```
/// use nlft_net::bus::{Bus, BusConfig};
/// use nlft_net::frame::NodeId;
/// use nlft_net::startup::{StartupConfig, StartupProtocol, TransmitIntent, COLD_START_MARKER};
///
/// let config = BusConfig::round_robin(4, 2);
/// let mut bus = Bus::new(config.clone());
/// let mut startup = StartupProtocol::all_active(StartupConfig::for_bus(&config));
/// startup.reset_node(NodeId(2), 0, 0); // node 2 restarts and listens
/// for cycle in 0..100 {
///     bus.start_cycle();
///     for &node in config.static_slots.clone().iter() {
///         match startup.intent(node) {
///             TransmitIntent::Silent => {}
///             TransmitIntent::ColdStartFrame => {
///                 let _ = bus.transmit_static(node, vec![COLD_START_MARKER, cycle]);
///             }
///             TransmitIntent::Normal => {
///                 let _ = bus.transmit_static(node, vec![7]);
///             }
///         }
///     }
///     let delivery = bus.finish_cycle();
///     startup.observe(cycle, &delivery);
///     if startup.is_active(NodeId(2)) {
///         break;
///     }
/// }
/// // The running traffic was adopted: no cold start was needed.
/// assert!(startup.is_active(NodeId(2)));
/// assert_eq!(startup.metrics().cold_starts_sent, 0);
/// ```
#[derive(Debug, Clone)]
pub struct StartupProtocol {
    config: StartupConfig,
    nodes: BTreeMap<NodeId, NodeStartup>,
    metrics: StartupMetrics,
}

impl StartupProtocol {
    fn with_state(config: StartupConfig, state: StartupState, armed: bool) -> Self {
        config.validate();
        let nodes = config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let state = match state {
                    StartupState::Listen { .. } => StartupState::Listen {
                        remaining: config.listen_timeouts[i],
                    },
                    s => s,
                };
                (
                    n,
                    NodeStartup {
                        state,
                        armed,
                        reset_at: 0,
                    },
                )
            })
            .collect();
        StartupProtocol {
            config,
            nodes,
            metrics: StartupMetrics::default(),
        }
    }

    /// All nodes already Active: the golden synchronized state every
    /// pre-blackout scenario starts from. Clique avoidance arms on the
    /// first majority cycle each node observes.
    pub fn all_active(config: StartupConfig) -> Self {
        Self::with_state(config, StartupState::Active, false)
    }

    /// All nodes powered up simultaneously into Listen with their own
    /// timeouts: a cluster-wide cold boot.
    #[cfg(test)]
    pub(crate) fn cold_boot(config: StartupConfig) -> Self {
        Self::with_state(config, StartupState::Listen { remaining: 0 }, false)
    }

    /// The static configuration.
    pub fn config(&self) -> &StartupConfig {
        &self.config
    }

    /// The node's current startup state.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a startup participant.
    pub fn state(&self, node: NodeId) -> StartupState {
        self.nodes.get(&node).expect("unknown startup node").state
    }

    /// Whether `node` is a fully synchronized member.
    pub fn is_active(&self, node: NodeId) -> bool {
        matches!(self.state(node), StartupState::Active)
    }

    /// Whether every participant is Active.
    #[cfg(test)]
    pub(crate) fn all_ready(&self) -> bool {
        self.nodes
            .values()
            .all(|n| matches!(n.state, StartupState::Active))
    }

    /// Accumulated milestones and latencies.
    pub fn metrics(&self) -> &StartupMetrics {
        &self.metrics
    }

    /// Resets `node` as of cycle `cycle`: it spends `down_cycles`
    /// observed cycles in [`StartupState::PoweredDown`] (0 → it starts
    /// listening immediately) and then re-enters the bus through the
    /// full Listen / Cold-Start / Integrate path.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a startup participant.
    pub fn reset_node(&mut self, node: NodeId, down_cycles: u32, cycle: u32) {
        let timeout = self.config.timeout_of(node);
        let entry = self.nodes.get_mut(&node).expect("unknown startup node");
        entry.state = if down_cycles == 0 {
            StartupState::Listen { remaining: timeout }
        } else {
            StartupState::PoweredDown {
                until_listen: down_cycles,
            }
        };
        entry.armed = true;
        entry.reset_at = cycle;
    }

    /// What `node` may transmit this cycle. The mapping is stable for a
    /// whole cycle because transitions only happen in
    /// [`StartupProtocol::observe`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a startup participant.
    pub fn intent(&self, node: NodeId) -> TransmitIntent {
        match self.state(node) {
            StartupState::PoweredDown { .. } | StartupState::Listen { .. } => {
                TransmitIntent::Silent
            }
            StartupState::ColdStart => TransmitIntent::ColdStartFrame,
            StartupState::Integrate | StartupState::Active => TransmitIntent::Normal,
        }
    }

    /// Feeds one completed bus cycle and performs every state
    /// transition, returning the milestones it caused.
    pub fn observe(&mut self, cycle: u32, delivery: &CycleDelivery) -> Vec<StartupEvent> {
        let cold_start_senders: Vec<NodeId> = delivery
            .static_frames
            .values()
            .filter(|f| f.payload.first() == Some(&COLD_START_MARKER))
            .map(|f| f.sender)
            .collect();
        let senders_heard = delivery.static_frames.len();
        let normal_senders = senders_heard - cold_start_senders.len();
        let threshold = self.config.integration_threshold;

        let mut events = Vec::new();
        let mut big_bang: Option<Vec<NodeId>> = None;
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for node in ids {
            let timeout = self.config.timeout_of(node);
            let entry = self.nodes.get_mut(&node).expect("unknown startup node");
            match entry.state {
                StartupState::PoweredDown { until_listen } => {
                    // Deaf while resetting: only the power-up countdown
                    // advances.
                    if until_listen <= 1 {
                        entry.state = StartupState::Listen { remaining: timeout };
                        events.push(StartupEvent::PoweredUp(node));
                    } else {
                        entry.state = StartupState::PoweredDown {
                            until_listen: until_listen - 1,
                        };
                    }
                }
                StartupState::Listen { remaining } => {
                    let lone_cold_start =
                        cold_start_senders.len() == 1 && cold_start_senders[0] != node;
                    if lone_cold_start || normal_senders > 0 {
                        // An unambiguous time base: a winning cold-start
                        // frame, or a cluster already running.
                        entry.state = StartupState::Integrate;
                        events.push(StartupEvent::TimingAdopted(node));
                    } else if cold_start_senders.len() >= 2 {
                        // Colliding cold-start frames carry no usable
                        // timing; the bus was not silent either, so the
                        // listen timeout does not advance.
                    } else if remaining <= 1 {
                        entry.state = StartupState::ColdStart;
                        events.push(StartupEvent::Contending(node));
                    } else {
                        entry.state = StartupState::Listen {
                            remaining: remaining - 1,
                        };
                    }
                }
                StartupState::ColdStart => {
                    self.metrics.cold_starts_sent += 1;
                    let mine_arrived = cold_start_senders.contains(&node);
                    if cold_start_senders.len() >= 2 {
                        // Big bang: back off into Listen. Unique timeouts
                        // guarantee the rematch is not simultaneous.
                        entry.state = StartupState::Listen { remaining: timeout };
                        if mine_arrived {
                            big_bang
                                .get_or_insert_with(|| cold_start_senders.clone())
                                .sort_unstable_by_key(|n| n.0);
                        }
                    } else if mine_arrived {
                        self.metrics.first_cold_start_cycle =
                            Some(self.metrics.first_cold_start_cycle.unwrap_or(cycle));
                        entry.state = StartupState::Integrate;
                        events.push(StartupEvent::ColdStartWon(node));
                    } else if cold_start_senders.len() == 1 {
                        // My frame was lost on the wire but a rival's got
                        // through: adopt the rival's timing.
                        entry.state = StartupState::Integrate;
                        events.push(StartupEvent::TimingAdopted(node));
                    } else {
                        // My frame was lost and nothing else was heard:
                        // re-listen and contend again.
                        entry.state = StartupState::Listen { remaining: timeout };
                    }
                }
                StartupState::Integrate => {
                    if senders_heard >= threshold {
                        entry.state = StartupState::Active;
                        entry.armed = true;
                        let latency = cycle - entry.reset_at + 1;
                        self.metrics.integration_latencies.push((node, latency));
                        events.push(StartupEvent::Activated(node));
                    }
                }
                StartupState::Active => {
                    if senders_heard >= threshold {
                        entry.armed = true;
                    } else if entry.armed {
                        // Clique avoidance: a minority of senders means
                        // *this* node may be the one partitioned off.
                        // Fall silent and reintegrate; never babble.
                        entry.state = StartupState::Listen { remaining: timeout };
                        entry.reset_at = cycle;
                        self.metrics.clique_reverts += 1;
                        events.push(StartupEvent::CliqueReverted(node));
                    }
                }
            }
        }
        if let Some(contenders) = big_bang {
            self.metrics.big_bangs += 1;
            events.push(StartupEvent::BigBang(contenders));
        }
        events
    }
}

/// Unfolds the deterministic full-blackout cold-start of the contention
/// winner into an absorbing DTMC, one state per cycle: `down_cycles`
/// powered-down states, `listen_timeout` listening states, one cold-start
/// contention state, `integrate_cycles` integrating states, and the
/// absorbing Active state. Returns `(matrix, start, absorbing)` for
/// `reliability`'s fundamental-matrix machinery; the expected steps to
/// absorption from `start` equal the winner's reset→Active integration
/// latency as measured by [`StartupMetrics::integration_latencies`].
///
/// Every transition has probability 1 because the protocol is
/// deterministic — the point of the cross-check is that the simulated
/// campaign and the chain are *derived independently* (cycle-driven state
/// machine vs. phase arithmetic) and must still agree exactly.
pub fn cold_start_chain(
    down_cycles: u32,
    listen_timeout: u32,
    integrate_cycles: u32,
) -> (Vec<Vec<f64>>, usize, Vec<usize>) {
    let transient = (down_cycles + listen_timeout + 1 + integrate_cycles) as usize;
    let states = transient + 1;
    let mut matrix = vec![vec![0.0; states]; states];
    for (i, row) in matrix.iter_mut().enumerate().take(transient) {
        row[i + 1] = 1.0;
    }
    matrix[transient][transient] = 1.0;
    (matrix, 0, vec![transient])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;

    /// Drives a bus + protocol for `cycles` cycles; `allowed` gates which
    /// nodes may actually reach the bus (None = all).
    fn drive(
        bus: &mut Bus,
        startup: &mut StartupProtocol,
        from_cycle: u32,
        cycles: u32,
        allowed: Option<&[NodeId]>,
    ) -> Vec<(u32, StartupEvent)> {
        let config = bus.config().clone();
        let mut events = Vec::new();
        for cycle in from_cycle..from_cycle + cycles {
            bus.start_cycle();
            for &node in &config.static_slots {
                if allowed.is_some_and(|a| !a.contains(&node)) {
                    continue;
                }
                match startup.intent(node) {
                    TransmitIntent::Silent => {}
                    TransmitIntent::ColdStartFrame => {
                        bus.transmit_static(node, vec![COLD_START_MARKER, cycle])
                            .expect("cold-start frame");
                    }
                    TransmitIntent::Normal => {
                        bus.transmit_static(node, vec![cycle]).expect("i-frame");
                    }
                }
            }
            let delivery = bus.finish_cycle();
            for ev in startup.observe(cycle, &delivery) {
                events.push((cycle, ev));
            }
        }
        events
    }

    fn six_node() -> (Bus, StartupConfig) {
        let config = BusConfig::round_robin(6, 4);
        (Bus::new(config.clone()), StartupConfig::for_bus(&config))
    }

    #[test]
    fn cold_boot_reaches_all_active_in_bounded_cycles() {
        let (mut bus, config) = six_node();
        let mut startup = StartupProtocol::cold_boot(config);
        // Node 0 has the smallest timeout (BASE), so it wins the first
        // contention: BASE silent listen cycles, cold-start frame in
        // cycle BASE, everyone integrates and activates right after.
        let bound = BASE_LISTEN_TIMEOUT + 3;
        drive(&mut bus, &mut startup, 0, bound, None);
        assert!(startup.all_ready(), "cold boot must finish within bound");
        let m = startup.metrics();
        assert_eq!(m.first_cold_start_cycle, Some(BASE_LISTEN_TIMEOUT));
        assert_eq!(m.big_bangs, 0);
        assert_eq!(m.cold_starts_sent, 1);
        // The winner offered its own timing; everyone else adopted it.
        assert_eq!(bus.guardian_blocks(), 0, "startup never babbles");
    }

    #[test]
    fn big_bang_collision_backs_off_and_resolves() {
        let (mut bus, config) = six_node();
        let mut startup = StartupProtocol::cold_boot(config);
        // Stagger power-up so nodes 0 and 1 contend in the same cycle:
        // node 0 listens from cycle 2 (timeout 4), node 1 from cycle 1
        // (timeout 5) — both expire observing cycle 5 and collide in
        // cycle 6. Wheels stay down long enough to listen quietly.
        startup.reset_node(NodeId(0), 2, 0);
        startup.reset_node(NodeId(1), 1, 0);
        for wheel in 2..6 {
            startup.reset_node(NodeId(wheel), 12, 0);
        }
        let events = drive(&mut bus, &mut startup, 0, 16, None);
        let bang = events
            .iter()
            .find(|(_, e)| matches!(e, StartupEvent::BigBang(_)))
            .expect("collision must be observed");
        assert_eq!(
            bang,
            &(6, StartupEvent::BigBang(vec![NodeId(0), NodeId(1)])),
            "both contenders collide in cycle 6"
        );
        assert_eq!(startup.metrics().big_bangs, 1);
        // Node 0's shorter timeout wins the rematch: re-listen cycles
        // 7..=10, lone cold-start frame in cycle 11.
        assert_eq!(startup.metrics().first_cold_start_cycle, Some(11));
        assert!(startup.all_ready(), "big bang must still converge");
        assert_eq!(bus.guardian_blocks(), 0);
    }

    #[test]
    fn single_reset_node_reintegrates_by_listening() {
        let (mut bus, config) = six_node();
        let mut startup = StartupProtocol::all_active(config);
        drive(&mut bus, &mut startup, 0, 2, None);
        startup.reset_node(NodeId(3), 2, 2);
        let events = drive(&mut bus, &mut startup, 2, 6, None);
        assert!(startup.all_ready());
        // Running traffic is adopted directly — no contention needed.
        assert_eq!(startup.metrics().cold_starts_sent, 0);
        assert_eq!(startup.metrics().first_cold_start_cycle, None);
        assert!(events
            .iter()
            .any(|(_, e)| *e == StartupEvent::TimingAdopted(NodeId(3))));
        assert!(events
            .iter()
            .any(|(_, e)| *e == StartupEvent::Activated(NodeId(3))));
    }

    #[test]
    fn minority_clique_reverts_to_listen_and_never_babbles() {
        let (mut bus, config) = six_node();
        let mut startup = StartupProtocol::all_active(config);
        // One full cycle arms clique avoidance on every node.
        drive(&mut bus, &mut startup, 0, 1, None);
        // Partition: only nodes 4 and 5 still reach the bus — a minority
        // clique of 2 < 4.
        let minority = [NodeId(4), NodeId(5)];
        let events = drive(&mut bus, &mut startup, 1, 1, Some(&minority));
        assert_eq!(
            events
                .iter()
                .filter(|(_, e)| matches!(e, StartupEvent::CliqueReverted(_)))
                .count(),
            6,
            "every node heard a minority and reverted"
        );
        for node in 0..6 {
            assert_eq!(
                startup.intent(NodeId(node)),
                TransmitIntent::Silent,
                "a reverted node falls silent instead of babbling"
            );
        }
        assert_eq!(startup.metrics().clique_reverts, 6);
        // The partitioned cluster then cold-starts from scratch and
        // recovers without a single guardian block.
        drive(&mut bus, &mut startup, 2, 12, None);
        assert!(startup.all_ready());
        assert_eq!(bus.guardian_blocks(), 0);
    }

    #[test]
    fn clique_check_is_disarmed_until_first_majority() {
        let (mut bus, config) = six_node();
        let mut startup = StartupProtocol::all_active(config);
        // Cycle 0 of the golden bootstrap: only 2 of 6 transmit (the BBW
        // wheels idle until set-points arrive). Must not trip.
        let events = drive(&mut bus, &mut startup, 0, 1, Some(&[NodeId(0), NodeId(1)]));
        assert!(events.is_empty(), "bootstrap minority must not revert");
        assert!(startup.all_ready());
    }

    #[test]
    fn lost_cold_start_frame_retries_contention() {
        let (mut bus, config) = six_node();
        let mut startup = StartupProtocol::cold_boot(config);
        // Let node 0 reach contention, then drop its frame on the wire.
        drive(&mut bus, &mut startup, 0, BASE_LISTEN_TIMEOUT, None);
        assert_eq!(startup.state(NodeId(0)), StartupState::ColdStart);
        // Its frame never reaches the bus (transceiver dead this cycle).
        drive(
            &mut bus,
            &mut startup,
            BASE_LISTEN_TIMEOUT,
            1,
            Some(&[NodeId(1)]),
        );
        assert!(
            matches!(startup.state(NodeId(0)), StartupState::Listen { .. }),
            "a lost cold-start frame sends the contender back to Listen"
        );
        drive(&mut bus, &mut startup, BASE_LISTEN_TIMEOUT + 1, 12, None);
        assert!(startup.all_ready());
    }

    #[test]
    fn intents_map_states() {
        let config = BusConfig::round_robin(4, 2);
        let mut startup = StartupProtocol::cold_boot(StartupConfig::for_bus(&config));
        assert_eq!(startup.intent(NodeId(0)), TransmitIntent::Silent);
        startup.reset_node(NodeId(0), 3, 0);
        assert_eq!(startup.intent(NodeId(0)), TransmitIntent::Silent);
        assert!(!startup.is_active(NodeId(0)));
        let active = StartupProtocol::all_active(StartupConfig::for_bus(&config));
        assert_eq!(active.intent(NodeId(2)), TransmitIntent::Normal);
        assert!(active.all_ready());
    }

    #[test]
    fn cold_start_chain_is_linear_and_exact() {
        let (matrix, start, absorbing) = cold_start_chain(2, 4, 2);
        assert_eq!(start, 0);
        assert_eq!(absorbing, vec![9]);
        assert_eq!(matrix.len(), 10);
        for (i, row) in matrix.iter().enumerate() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            let next = row.iter().position(|&p| p == 1.0).unwrap();
            assert_eq!(next, if i == 9 { 9 } else { i + 1 });
        }
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_timeouts_are_rejected() {
        let bus = BusConfig::round_robin(3, 2);
        let mut config = StartupConfig::for_bus(&bus);
        config.listen_timeouts[1] = config.listen_timeouts[0];
        StartupProtocol::cold_boot(config);
    }
}
