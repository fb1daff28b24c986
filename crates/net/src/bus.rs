//! The time-triggered broadcast bus (FlexRay-style).
//!
//! One communication cycle consists of a **static segment** — TDMA slots
//! statically owned by nodes, carrying all critical traffic — followed by a
//! **dynamic segment** of mini-slots arbitrated by priority, used for
//! sporadic traffic such as the state-resynchronisation requests the
//! paper's future-work section sketches (§4). A **bus guardian** refuses
//! transmissions outside the sender's slot, converting babbling-idiot
//! failures into omissions.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::frame::{Frame, NodeId, SlotId};

/// Static configuration of one communication cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusConfig {
    /// Slot ownership of the static segment: `slots[i]` owns slot `i`.
    pub static_slots: Vec<NodeId>,
    /// Number of dynamic mini-slots per cycle.
    pub dynamic_minislots: u8,
}

impl BusConfig {
    /// Config with one static slot per node, in id order, plus `minislots`
    /// dynamic mini-slots.
    pub fn round_robin(nodes: u8, minislots: u8) -> Self {
        BusConfig {
            static_slots: (0..nodes).map(NodeId).collect(),
            dynamic_minislots: minislots,
        }
    }

    /// The slot a node owns, if any.
    pub fn slot_of(&self, node: NodeId) -> Option<SlotId> {
        self.static_slots
            .iter()
            .position(|&n| n == node)
            .map(|i| SlotId(i as u8))
    }
}

/// Rejection reasons for a transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitError {
    /// The bus guardian blocked a transmission outside the sender's slot.
    GuardianBlocked {
        /// The offending node.
        node: NodeId,
        /// The slot it tried to use.
        slot: SlotId,
    },
    /// The slot was already used this cycle.
    SlotBusy(SlotId),
    /// All dynamic mini-slots are taken this cycle.
    DynamicSegmentFull,
    /// The payload exceeds the frame format's 16-bit length field
    /// ([`Frame::MAX_PAYLOAD_WORDS`] words).
    PayloadTooLarge {
        /// The rejected payload size in words.
        words: usize,
    },
}

impl fmt::Display for TransmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransmitError::GuardianBlocked { node, slot } => {
                write!(f, "bus guardian blocked {node} transmitting in {slot}")
            }
            TransmitError::SlotBusy(slot) => write!(f, "{slot} already used this cycle"),
            TransmitError::DynamicSegmentFull => write!(f, "dynamic segment full"),
            TransmitError::PayloadTooLarge { words } => {
                write!(f, "payload of {words} words exceeds the frame length field")
            }
        }
    }
}

impl std::error::Error for TransmitError {}

/// A fault staged against the *current* cycle's traffic on the wire.
///
/// Wire faults are the network half of the fault-injection story: they
/// model what a noisy channel, a faulty transceiver or a malicious node
/// does to frames *after* the sender handed them over. Faults are staged
/// any time between [`Bus::start_cycle`] and [`Bus::finish_cycle`] and
/// applied when the cycle closes, in a fixed order (drops, then
/// masquerades, then corruptions, then dynamic-segment perturbations) so
/// the outcome is independent of staging order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// XOR `mask` into byte `byte % len` of the static frame in `slot`
    /// (bit corruption in transit; the CRC must reject it).
    CorruptStatic {
        /// Victim slot.
        slot: SlotId,
        /// Byte index (taken modulo the frame length).
        byte: usize,
        /// XOR mask, non-zero for an effective fault.
        mask: u8,
    },
    /// Remove the static frame in `slot` entirely — a slot omission; the
    /// receivers see silence.
    DropStatic {
        /// Victim slot.
        slot: SlotId,
    },
    /// Rewrite the sender id of the static frame in `slot` to `claim`,
    /// recomputing the CRC. A masquerading transceiver emits a
    /// *well-formed* frame, so only the receiver-side identity check (slot
    /// ownership) can catch it.
    MasqueradeStatic {
        /// Victim slot.
        slot: SlotId,
        /// The forged sender identity.
        claim: NodeId,
    },
    /// XOR `mask` into byte `byte % len` of the dynamic frame at
    /// arbitration index `index` (after priority ordering). Out-of-range
    /// indices are ignored.
    CorruptDynamic {
        /// Arbitration index after priority sorting.
        index: usize,
        /// Byte index (taken modulo the frame length).
        byte: usize,
        /// XOR mask.
        mask: u8,
    },
    /// Deliver the dynamic frame at arbitration index `index` twice.
    /// Out-of-range indices are ignored.
    DuplicateDynamic {
        /// Arbitration index after priority sorting.
        index: usize,
    },
    /// Reverse the arbitration order of the dynamic segment — receivers
    /// must not depend on priority order for correctness.
    ReorderDynamic,
}

/// Everything delivered in one completed cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleDelivery {
    /// Cycle counter.
    pub cycle: u32,
    /// Valid static-segment frames, by slot.
    pub static_frames: BTreeMap<SlotId, Frame>,
    /// Valid dynamic-segment frames, in arbitration (priority) order.
    pub dynamic_frames: Vec<Frame>,
    /// Count of frames discarded for CRC/format errors this cycle.
    pub rejected: u32,
}

impl CycleDelivery {
    /// Frame sent by `node` in its static slot, if it arrived intact.
    pub fn from_node<'a>(&'a self, config: &BusConfig, node: NodeId) -> Option<&'a Frame> {
        config
            .slot_of(node)
            .and_then(|s| self.static_frames.get(&s))
    }
}

/// The broadcast bus for one cluster.
///
/// # Examples
///
/// ```
/// use nlft_net::bus::{Bus, BusConfig};
/// use nlft_net::frame::NodeId;
///
/// let mut bus = Bus::new(BusConfig::round_robin(3, 2));
/// bus.start_cycle();
/// bus.transmit_static(NodeId(0), vec![11])?;
/// bus.transmit_static(NodeId(2), vec![22])?;
/// let delivery = bus.finish_cycle();
/// assert_eq!(delivery.static_frames.len(), 2);
/// # Ok::<(), nlft_net::bus::TransmitError>(())
/// ```
#[derive(Debug)]
pub struct Bus {
    config: BusConfig,
    cycle: u32,
    in_cycle: bool,
    /// Pending static frames, kept *structural*: serialisation to wire
    /// bytes is deferred to `finish_cycle` and only performed for frames a
    /// staged fault actually touches. For valid frames `decode ∘ encode`
    /// is the identity, so skipping the round-trip for clean traffic is
    /// bit-invisible to receivers.
    static_pending: BTreeMap<SlotId, Frame>,
    dynamic_pending: Vec<(u8, Frame)>, // (priority, frame)
    /// Reusable wire-image buffer for the frames that do need encoding.
    scratch: Vec<u8>,
    wire_faults: Vec<WireFault>,
    guardian_blocks: u64,
    crc_rejects: u64,
    masquerade_rejects: u64,
    corruptions_applied: u64,
    masquerades_applied: u64,
}

impl Bus {
    /// Creates a bus.
    pub fn new(config: BusConfig) -> Self {
        Bus {
            config,
            cycle: 0,
            in_cycle: false,
            static_pending: BTreeMap::new(),
            dynamic_pending: Vec::new(),
            scratch: Vec::new(),
            wire_faults: Vec::new(),
            guardian_blocks: 0,
            crc_rejects: 0,
            masquerade_rejects: 0,
            corruptions_applied: 0,
            masquerades_applied: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Current cycle counter.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Total transmissions blocked by the guardian so far.
    pub fn guardian_blocks(&self) -> u64 {
        self.guardian_blocks
    }

    /// Total frames rejected for CRC/format damage so far.
    pub fn crc_rejects(&self) -> u64 {
        self.crc_rejects
    }

    /// Total well-formed frames rejected because their sender id did not
    /// match the slot owner (masquerade detection) so far.
    pub fn masquerade_rejects(&self) -> u64 {
        self.masquerade_rejects
    }

    /// Wire corruptions actually applied to a pending frame so far (staged
    /// corruptions on silent or dropped slots do not count).
    pub fn corruptions_applied(&self) -> u64 {
        self.corruptions_applied
    }

    /// Wire masquerades actually applied to a pending frame so far.
    pub fn masquerades_applied(&self) -> u64 {
        self.masquerades_applied
    }

    /// Opens a new communication cycle.
    ///
    /// # Panics
    ///
    /// Panics if a cycle is already open.
    pub fn start_cycle(&mut self) {
        assert!(!self.in_cycle, "cycle already open");
        self.in_cycle = true;
        self.static_pending.clear();
        self.dynamic_pending.clear();
        self.wire_faults.clear();
    }

    /// Transmits in the sender's own static slot.
    ///
    /// # Errors
    ///
    /// [`TransmitError::GuardianBlocked`] if `node` owns no slot,
    /// [`TransmitError::SlotBusy`] if it already transmitted this cycle,
    /// [`TransmitError::PayloadTooLarge`] if the payload cannot be framed.
    ///
    /// # Panics
    ///
    /// Panics if no cycle is open.
    pub fn transmit_static(
        &mut self,
        node: NodeId,
        payload: Vec<u32>,
    ) -> Result<(), TransmitError> {
        assert!(self.in_cycle, "no open cycle");
        let slot = match self.config.slot_of(node) {
            Some(s) => s,
            None => {
                self.guardian_blocks += 1;
                return Err(TransmitError::GuardianBlocked {
                    node,
                    slot: SlotId(u8::MAX),
                });
            }
        };
        self.transmit_in_slot(node, slot, payload)
    }

    /// Transmits claiming an explicit slot — the bus guardian verifies
    /// ownership, so this is how babbling-idiot behaviour is modelled.
    ///
    /// # Errors
    ///
    /// As [`Bus::transmit_static`].
    ///
    /// # Panics
    ///
    /// Panics if no cycle is open.
    pub fn transmit_in_slot(
        &mut self,
        node: NodeId,
        slot: SlotId,
        payload: Vec<u32>,
    ) -> Result<(), TransmitError> {
        assert!(self.in_cycle, "no open cycle");
        if self.config.static_slots.get(slot.0 as usize) != Some(&node) {
            self.guardian_blocks += 1;
            return Err(TransmitError::GuardianBlocked { node, slot });
        }
        if self.static_pending.contains_key(&slot) {
            return Err(TransmitError::SlotBusy(slot));
        }
        if payload.len() > Frame::MAX_PAYLOAD_WORDS {
            return Err(TransmitError::PayloadTooLarge {
                words: payload.len(),
            });
        }
        self.static_pending
            .insert(slot, Frame::new(node, slot, self.cycle, payload));
        Ok(())
    }

    /// Queues a dynamic-segment transmission with a priority (lower wins).
    ///
    /// # Errors
    ///
    /// [`TransmitError::DynamicSegmentFull`] when all mini-slots are
    /// taken, [`TransmitError::PayloadTooLarge`] if the payload cannot be
    /// framed.
    ///
    /// # Panics
    ///
    /// Panics if no cycle is open.
    pub(crate) fn transmit_dynamic(
        &mut self,
        node: NodeId,
        priority: u8,
        payload: Vec<u32>,
    ) -> Result<(), TransmitError> {
        assert!(self.in_cycle, "no open cycle");
        if self.dynamic_pending.len() >= self.config.dynamic_minislots as usize {
            return Err(TransmitError::DynamicSegmentFull);
        }
        if payload.len() > Frame::MAX_PAYLOAD_WORDS {
            return Err(TransmitError::PayloadTooLarge {
                words: payload.len(),
            });
        }
        self.dynamic_pending.push((
            priority,
            Frame::new(node, SlotId(u8::MAX), self.cycle, payload),
        ));
        Ok(())
    }

    /// Stages a [`WireFault`] against the current cycle. Faults accumulate
    /// and are applied when the cycle closes; staging order is irrelevant
    /// (see [`WireFault`] for the canonical application order). Faults
    /// addressing slots that end up silent are no-ops.
    ///
    /// # Panics
    ///
    /// Panics if no cycle is open.
    pub fn stage_wire_fault(&mut self, fault: WireFault) {
        assert!(self.in_cycle, "no open cycle");
        self.wire_faults.push(fault);
    }

    /// Closes the cycle, delivering all valid frames to every receiver.
    ///
    /// # Panics
    ///
    /// Panics if no cycle is open.
    pub fn finish_cycle(&mut self) -> CycleDelivery {
        assert!(self.in_cycle, "no open cycle");
        self.in_cycle = false;
        let mut delivery = CycleDelivery {
            cycle: self.cycle,
            ..CycleDelivery::default()
        };
        let faults = std::mem::take(&mut self.wire_faults);

        // Static faults in canonical order: drops, then masquerades, then
        // corruptions. A corruption therefore only lands on frames that
        // survive to the wire, which keeps the `corruptions_applied`
        // counter a valid denominator for the measured CRC reject rate.
        //
        // Drops and masquerades act on the frame structure directly — a
        // drop removes the frame; a masquerade rewrites the sender field,
        // which produces exactly the bytes the old wire-image patch
        // (rewrite byte 0, recompute CRC) produced, should the frame later
        // need encoding.
        for f in &faults {
            if let WireFault::DropStatic { slot } = f {
                self.static_pending.remove(slot);
            }
        }
        for f in &faults {
            if let WireFault::MasqueradeStatic { slot, claim } = f {
                if let Some(frame) = self.static_pending.get_mut(slot) {
                    frame.sender = *claim;
                    self.masquerades_applied += 1;
                }
            }
        }
        // Only corruption targets go through the wire image: encode into
        // the reusable scratch buffer, XOR the staged masks, then decode
        // like any receiver would.
        let corrupt_slots: BTreeSet<SlotId> = faults
            .iter()
            .filter_map(|f| match f {
                WireFault::CorruptStatic { slot, .. } if self.static_pending.contains_key(slot) => {
                    Some(*slot)
                }
                _ => None,
            })
            .collect();
        let mut scratch = std::mem::take(&mut self.scratch);
        for &slot in &corrupt_slots {
            let frame = self
                .static_pending
                .remove(&slot)
                .expect("collected from pending keys above");
            frame.encode_into(&mut scratch);
            for f in &faults {
                if let WireFault::CorruptStatic {
                    slot: target,
                    byte,
                    mask,
                } = f
                {
                    if *target == slot {
                        let i = byte % scratch.len();
                        scratch[i] ^= mask;
                        if *mask != 0 {
                            self.corruptions_applied += 1;
                        }
                    }
                }
            }
            match Frame::decode(&scratch) {
                Ok(f) => self.deliver_static(&mut delivery, slot, f),
                Err(_) => {
                    self.crc_rejects += 1;
                    delivery.rejected += 1;
                }
            }
        }
        self.scratch = scratch;
        // Untouched (and structurally masqueraded) frames skip the encode/
        // decode round-trip entirely; the receiver-side identity check
        // still applies to every delivered frame.
        for (slot, frame) in std::mem::take(&mut self.static_pending) {
            self.deliver_static(&mut delivery, slot, frame);
        }

        let mut dynamic = std::mem::take(&mut self.dynamic_pending);
        dynamic.sort_by_key(|&(prio, _)| prio);
        let dynamic_faulted = faults.iter().any(|f| {
            matches!(
                f,
                WireFault::CorruptDynamic { .. }
                    | WireFault::DuplicateDynamic { .. }
                    | WireFault::ReorderDynamic
            )
        });
        if dynamic_faulted {
            // Rare path: replay the full wire behaviour on the encoded
            // images, rejections and all.
            let mut images: Vec<Vec<u8>> = dynamic.into_iter().map(|(_, f)| f.encode()).collect();
            Self::apply_dynamic_faults(&faults, &mut images);
            for bytes in images {
                match Frame::decode(&bytes) {
                    Ok(f) => delivery.dynamic_frames.push(f),
                    Err(_) => {
                        self.crc_rejects += 1;
                        delivery.rejected += 1;
                    }
                }
            }
        } else {
            delivery
                .dynamic_frames
                .extend(dynamic.into_iter().map(|(_, f)| f));
        }
        self.cycle += 1;
        delivery
    }

    /// Receiver-side identity check: a well-formed frame whose sender is
    /// not the slot owner is a masquerade and must not enter any node's
    /// view.
    fn deliver_static(&mut self, delivery: &mut CycleDelivery, slot: SlotId, frame: Frame) {
        if self.config.static_slots.get(slot.0 as usize) == Some(&frame.sender) {
            delivery.static_frames.insert(slot, frame);
        } else {
            self.masquerade_rejects += 1;
            delivery.rejected += 1;
        }
    }

    /// Applies staged dynamic-segment faults to the arbitration-ordered
    /// frame list: corruptions, then duplications, then reordering.
    fn apply_dynamic_faults(faults: &[WireFault], dynamic: &mut Vec<Vec<u8>>) {
        for f in faults {
            if let WireFault::CorruptDynamic { index, byte, mask } = f {
                if let Some(bytes) = dynamic.get_mut(*index) {
                    let i = byte % bytes.len();
                    bytes[i] ^= mask;
                }
            }
        }
        for f in faults {
            if let WireFault::DuplicateDynamic { index } = f {
                if let Some(bytes) = dynamic.get(*index).cloned() {
                    dynamic.insert(index + 1, bytes);
                }
            }
        }
        if faults
            .iter()
            .any(|f| matches!(f, WireFault::ReorderDynamic))
        {
            dynamic.reverse();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus3() -> Bus {
        Bus::new(BusConfig::round_robin(3, 2))
    }

    #[test]
    fn static_slots_deliver_by_owner() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        bus.transmit_static(NodeId(1), vec![2]).unwrap();
        let d = bus.finish_cycle();
        assert_eq!(d.static_frames[&SlotId(0)].payload, vec![1]);
        assert_eq!(d.static_frames[&SlotId(1)].payload, vec![2]);
        assert!(!d.static_frames.contains_key(&SlotId(2)), "silent node 2");
        assert_eq!(
            d.from_node(bus.config(), NodeId(1)).unwrap().payload,
            vec![2]
        );
    }

    #[test]
    fn guardian_blocks_foreign_slot() {
        let mut bus = bus3();
        bus.start_cycle();
        let err = bus
            .transmit_in_slot(NodeId(0), SlotId(1), vec![9])
            .unwrap_err();
        assert_eq!(
            err,
            TransmitError::GuardianBlocked {
                node: NodeId(0),
                slot: SlotId(1)
            }
        );
        assert_eq!(bus.guardian_blocks(), 1);
        let d = bus.finish_cycle();
        assert!(
            d.static_frames.is_empty(),
            "babbling never reaches receivers"
        );
    }

    #[test]
    fn guardian_blocks_unknown_node() {
        let mut bus = bus3();
        bus.start_cycle();
        assert!(matches!(
            bus.transmit_static(NodeId(9), vec![]),
            Err(TransmitError::GuardianBlocked { .. })
        ));
    }

    #[test]
    fn double_transmission_in_slot_rejected() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        assert_eq!(
            bus.transmit_static(NodeId(0), vec![2]),
            Err(TransmitError::SlotBusy(SlotId(0)))
        );
    }

    #[test]
    fn corrupted_frame_discarded_and_counted() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.stage_wire_fault(WireFault::CorruptStatic {
            slot: SlotId(0),
            byte: 5,
            mask: 0x80,
        });
        bus.transmit_static(NodeId(0), vec![1, 2, 3]).unwrap();
        bus.transmit_static(NodeId(1), vec![4]).unwrap();
        let d = bus.finish_cycle();
        assert_eq!(d.rejected, 1);
        assert!(!d.static_frames.contains_key(&SlotId(0)));
        assert!(
            d.static_frames.contains_key(&SlotId(1)),
            "other frames unaffected"
        );
        assert_eq!(bus.crc_rejects(), 1);
        assert_eq!(bus.corruptions_applied(), 1);
    }

    #[test]
    fn staged_corruption_on_silent_slot_is_noop() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.stage_wire_fault(WireFault::CorruptStatic {
            slot: SlotId(2),
            byte: 0,
            mask: 0xFF,
        });
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        let d = bus.finish_cycle();
        assert_eq!(d.rejected, 0);
        assert_eq!(
            bus.corruptions_applied(),
            0,
            "nothing on the wire to corrupt"
        );
    }

    #[test]
    fn staged_faults_on_skip_encoded_silent_slot_are_noops() {
        // The silent slot's frame is never encoded (it doesn't exist);
        // every fault family staged against it must leave counters and
        // delivery untouched.
        let mut bus = bus3();
        bus.start_cycle();
        bus.stage_wire_fault(WireFault::CorruptStatic {
            slot: SlotId(2),
            byte: 3,
            mask: 0xFF,
        });
        bus.stage_wire_fault(WireFault::DropStatic { slot: SlotId(2) });
        bus.stage_wire_fault(WireFault::MasqueradeStatic {
            slot: SlotId(2),
            claim: NodeId(0),
        });
        bus.transmit_static(NodeId(1), vec![5]).unwrap();
        let d = bus.finish_cycle();
        assert_eq!(d.rejected, 0);
        assert_eq!(d.static_frames[&SlotId(1)].payload, vec![5]);
        assert_eq!(bus.corruptions_applied(), 0);
        assert_eq!(bus.masquerades_applied(), 0);
        assert_eq!(bus.crc_rejects(), 0);
        assert_eq!(bus.masquerade_rejects(), 0);
    }

    #[test]
    fn oversized_payload_rejected_with_typed_error() {
        let mut bus = bus3();
        bus.start_cycle();
        let big = vec![0u32; crate::frame::Frame::MAX_PAYLOAD_WORDS + 1];
        assert_eq!(
            bus.transmit_static(NodeId(0), big.clone()),
            Err(TransmitError::PayloadTooLarge { words: big.len() })
        );
        assert_eq!(
            bus.transmit_dynamic(NodeId(1), 0, big.clone()),
            Err(TransmitError::PayloadTooLarge { words: big.len() })
        );
        // The slot stays free for a well-sized retry.
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        let d = bus.finish_cycle();
        assert_eq!(d.static_frames[&SlotId(0)].payload, vec![1]);
        assert_eq!(d.rejected, 0);
    }

    #[test]
    fn masquerade_then_corruption_breaks_crc() {
        // A masqueraded (re-sealed) frame that is then corrupted on the
        // wire must fail CRC, not the identity check — pins the canonical
        // fault ordering across the lazy-encode path.
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![7]).unwrap();
        bus.stage_wire_fault(WireFault::MasqueradeStatic {
            slot: SlotId(0),
            claim: NodeId(2),
        });
        bus.stage_wire_fault(WireFault::CorruptStatic {
            slot: SlotId(0),
            byte: 4,
            mask: 0x20,
        });
        let d = bus.finish_cycle();
        assert!(d.static_frames.is_empty());
        assert_eq!(d.rejected, 1);
        assert_eq!(bus.masquerades_applied(), 1);
        assert_eq!(bus.corruptions_applied(), 1);
        assert_eq!(bus.crc_rejects(), 1);
        assert_eq!(bus.masquerade_rejects(), 0);
    }

    #[test]
    fn two_corruptions_on_same_slot_can_cancel() {
        // Both XORs land on the same wire image; a cancelling pair leaves
        // the frame intact (and both still count as applied corruptions).
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![9]).unwrap();
        bus.stage_wire_fault(WireFault::CorruptStatic {
            slot: SlotId(0),
            byte: 8,
            mask: 0x40,
        });
        bus.stage_wire_fault(WireFault::CorruptStatic {
            slot: SlotId(0),
            byte: 8,
            mask: 0x40,
        });
        let d = bus.finish_cycle();
        assert_eq!(d.static_frames[&SlotId(0)].payload, vec![9]);
        assert_eq!(d.rejected, 0);
        assert_eq!(bus.corruptions_applied(), 2);
        assert_eq!(bus.crc_rejects(), 0);
    }

    #[test]
    fn dropped_frame_is_a_silent_omission() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        bus.transmit_static(NodeId(1), vec![2]).unwrap();
        bus.stage_wire_fault(WireFault::DropStatic { slot: SlotId(1) });
        let d = bus.finish_cycle();
        assert!(!d.static_frames.contains_key(&SlotId(1)));
        assert_eq!(
            d.rejected, 0,
            "an omission is silence, not a rejected frame"
        );
        assert_eq!(bus.crc_rejects(), 0);
    }

    #[test]
    fn masqueraded_frame_rejected_by_identity_check() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![7]).unwrap();
        bus.stage_wire_fault(WireFault::MasqueradeStatic {
            slot: SlotId(0),
            claim: NodeId(2),
        });
        let d = bus.finish_cycle();
        // The frame is well-formed (CRC valid) but claims the wrong
        // sender, so the receiver-side identity check discards it.
        assert!(!d.static_frames.contains_key(&SlotId(0)));
        assert_eq!(d.rejected, 1);
        assert_eq!(bus.crc_rejects(), 0, "CRC cannot see a masquerade");
        assert_eq!(bus.masquerade_rejects(), 1);
        assert_eq!(bus.masquerades_applied(), 1);
    }

    #[test]
    fn drop_beats_corruption_on_same_slot() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_static(NodeId(0), vec![1]).unwrap();
        bus.stage_wire_fault(WireFault::CorruptStatic {
            slot: SlotId(0),
            byte: 3,
            mask: 0x01,
        });
        bus.stage_wire_fault(WireFault::DropStatic { slot: SlotId(0) });
        let d = bus.finish_cycle();
        assert!(d.static_frames.is_empty());
        assert_eq!(
            bus.corruptions_applied(),
            0,
            "a dropped frame cannot also be corrupted: the counters stay honest"
        );
        assert_eq!(d.rejected, 0);
    }

    #[test]
    fn dynamic_duplication_and_reorder() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_dynamic(NodeId(0), 0, vec![10]).unwrap();
        bus.transmit_dynamic(NodeId(1), 1, vec![20]).unwrap();
        bus.stage_wire_fault(WireFault::DuplicateDynamic { index: 0 });
        bus.stage_wire_fault(WireFault::ReorderDynamic);
        let d = bus.finish_cycle();
        let payloads: Vec<u32> = d.dynamic_frames.iter().map(|f| f.payload[0]).collect();
        assert_eq!(payloads, vec![20, 10, 10], "duplicated then reversed");
    }

    #[test]
    fn dynamic_corruption_rejected() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_dynamic(NodeId(0), 0, vec![10]).unwrap();
        bus.stage_wire_fault(WireFault::CorruptDynamic {
            index: 0,
            byte: 2,
            mask: 0x10,
        });
        let d = bus.finish_cycle();
        assert!(d.dynamic_frames.is_empty());
        assert_eq!(d.rejected, 1);
        assert_eq!(bus.crc_rejects(), 1);
    }

    #[test]
    fn out_of_range_dynamic_faults_ignored() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_dynamic(NodeId(0), 0, vec![10]).unwrap();
        bus.stage_wire_fault(WireFault::DuplicateDynamic { index: 9 });
        bus.stage_wire_fault(WireFault::CorruptDynamic {
            index: 9,
            byte: 0,
            mask: 1,
        });
        let d = bus.finish_cycle();
        assert_eq!(d.dynamic_frames.len(), 1);
        assert_eq!(d.rejected, 0);
    }

    #[test]
    fn dynamic_segment_orders_by_priority() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_dynamic(NodeId(2), 7, vec![70]).unwrap();
        bus.transmit_dynamic(NodeId(0), 1, vec![10]).unwrap();
        let d = bus.finish_cycle();
        assert_eq!(d.dynamic_frames.len(), 2);
        assert_eq!(d.dynamic_frames[0].payload, vec![10], "low number first");
        assert_eq!(d.dynamic_frames[1].payload, vec![70]);
    }

    #[test]
    fn dynamic_segment_capacity_enforced() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.transmit_dynamic(NodeId(0), 0, vec![]).unwrap();
        bus.transmit_dynamic(NodeId(1), 1, vec![]).unwrap();
        assert_eq!(
            bus.transmit_dynamic(NodeId(2), 2, vec![]),
            Err(TransmitError::DynamicSegmentFull)
        );
    }

    #[test]
    fn cycle_counter_increments() {
        let mut bus = bus3();
        for expected in 0..5 {
            bus.start_cycle();
            bus.transmit_static(NodeId(0), vec![expected]).unwrap();
            let d = bus.finish_cycle();
            assert_eq!(d.cycle, expected);
            assert_eq!(d.static_frames[&SlotId(0)].cycle, expected);
        }
        assert_eq!(bus.cycle(), 5);
    }

    #[test]
    #[should_panic(expected = "cycle already open")]
    fn double_start_panics() {
        let mut bus = bus3();
        bus.start_cycle();
        bus.start_cycle();
    }

    #[test]
    #[should_panic(expected = "no open cycle")]
    fn transmit_outside_cycle_panics() {
        let mut bus = bus3();
        let _ = bus.transmit_static(NodeId(0), vec![]);
    }
}
