//! CRC-protected communication frames.
//!
//! The paper assumes the network interface "provides reliable transmission
//! of messages"; what reaches the hosts is a frame either correct or
//! detectably corrupt. Frames carry sender, slot, cycle counter and a
//! 32-bit CRC so receivers can discard damage — the transport half of the
//! end-to-end argument in §2.6.

use std::fmt;

/// Identity of a node on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u8);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A TDMA slot index within one communication cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u8);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Transmitting node.
    pub sender: NodeId,
    /// Slot the frame was sent in.
    pub slot: SlotId,
    /// Communication-cycle counter at transmission.
    pub cycle: u32,
    /// Application payload (32-bit words).
    pub payload: Vec<u32>,
}

/// Why a received byte sequence was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header + CRC.
    Truncated,
    /// Payload length field disagrees with the byte count.
    LengthMismatch,
    /// CRC check failed — the frame was corrupted in transit.
    CrcMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::LengthMismatch => write!(f, "frame length field mismatch"),
            FrameError::CrcMismatch => write!(f, "frame crc mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

const HEADER_BYTES: usize = 1 + 1 + 4 + 2; // sender, slot, cycle, payload len
const CRC_BYTES: usize = 4;

/// The workspace-wide table-driven CRC-32 (see `nlft_sim::crc`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    nlft_sim::crc::crc32(bytes)
}

impl Frame {
    /// Largest encodable payload: the length field on the wire is 16 bits
    /// wide. Longer payloads must be rejected up front — truncating the
    /// field would emit a CRC-*valid* frame whose length lies.
    pub const MAX_PAYLOAD_WORDS: usize = u16::MAX as usize;

    /// Creates a frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`Frame::MAX_PAYLOAD_WORDS`]. The bus
    /// transmit paths check first and return a typed error; constructing
    /// an unencodable frame directly is a programming error.
    pub fn new(sender: NodeId, slot: SlotId, cycle: u32, payload: Vec<u32>) -> Self {
        assert!(
            payload.len() <= Frame::MAX_PAYLOAD_WORDS,
            "payload of {} words exceeds the 16-bit length field",
            payload.len()
        );
        Frame {
            sender,
            slot,
            cycle,
            payload,
        }
    }

    /// Serialises to wire bytes: header, payload words (LE), CRC.
    ///
    /// # Panics
    ///
    /// As [`Frame::new`] — the fields are public, so an oversized payload
    /// patched in after construction is caught here.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_BYTES + self.payload.len() * 4 + CRC_BYTES);
        self.encode_into(&mut buf);
        buf
    }

    /// Serialises into a caller-provided buffer (cleared first), so a hot
    /// loop can reuse one scratch allocation across frames.
    ///
    /// # Panics
    ///
    /// As [`Frame::encode`].
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        assert!(
            self.payload.len() <= Frame::MAX_PAYLOAD_WORDS,
            "payload of {} words exceeds the 16-bit length field",
            self.payload.len()
        );
        buf.clear();
        buf.reserve(HEADER_BYTES + self.payload.len() * 4 + CRC_BYTES);
        buf.push(self.sender.0);
        buf.push(self.slot.0);
        buf.extend_from_slice(&self.cycle.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        for &w in &self.payload {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        let crc = crc32(buf);
        buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Parses and verifies wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] for truncation, length inconsistency or CRC
    /// failure — every corruption a receiver can see.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < HEADER_BYTES + CRC_BYTES {
            return Err(FrameError::Truncated);
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - CRC_BYTES);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("CRC_BYTES wide"));
        if crc32(body) != stored_crc {
            return Err(FrameError::CrcMismatch);
        }
        let sender = NodeId(body[0]);
        let slot = SlotId(body[1]);
        let cycle = u32::from_le_bytes(body[2..6].try_into().expect("header slice"));
        let len = u16::from_le_bytes(body[6..8].try_into().expect("header slice")) as usize;
        let words = &body[HEADER_BYTES..];
        if words.len() != len * 4 {
            return Err(FrameError::LengthMismatch);
        }
        let payload = words
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        Ok(Frame {
            sender,
            slot,
            cycle,
            payload,
        })
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame[{} {} cycle={} {} words]",
            self.sender,
            self.slot,
            self.cycle,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(NodeId(3), SlotId(1), 42, vec![0xDEAD_BEEF, 7, 0])
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = sample();
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_payload_round_trip() {
        let f = Frame::new(NodeId(0), SlotId(0), 0, vec![]);
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn single_bit_corruption_detected_everywhere() {
        let f = sample();
        let bytes = f.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Frame::decode(&corrupt).is_err(),
                    "flip of byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode();
        for keep in 0..HEADER_BYTES + CRC_BYTES {
            assert_eq!(Frame::decode(&bytes[..keep]), Err(FrameError::Truncated));
        }
        // Dropping trailing bytes beyond the minimum is a CRC/length error.
        assert!(Frame::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn crc_error_reported_specifically() {
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::CrcMismatch));
    }

    #[test]
    fn crc32_ieee_known_answer() {
        // Pins the shared CRC convention at the network call site: IEEE
        // 802.3 reflected, init/final-xor 0xFFFFFFFF.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn encode_into_matches_encode() {
        let f = sample();
        let mut buf = vec![0xAA; 3]; // stale contents must be discarded
        f.encode_into(&mut buf);
        assert_eq!(buf, f.encode());
    }

    #[test]
    fn max_payload_round_trips() {
        let f = Frame::new(
            NodeId(1),
            SlotId(0),
            9,
            vec![0x42; Frame::MAX_PAYLOAD_WORDS],
        );
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit length field")]
    fn oversized_payload_rejected_at_construction() {
        // Regression: this used to silently truncate the length field,
        // emitting a CRC-valid frame whose length lied.
        let _ = Frame::new(
            NodeId(0),
            SlotId(0),
            0,
            vec![0; Frame::MAX_PAYLOAD_WORDS + 1],
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit length field")]
    fn oversized_payload_rejected_at_encode() {
        // The fields are public, so encode must re-check.
        let mut f = sample();
        f.payload = vec![0; Frame::MAX_PAYLOAD_WORDS + 1];
        let _ = f.encode();
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(2).to_string(), "node2");
        assert_eq!(SlotId(5).to_string(), "slot5");
        assert!(sample().to_string().contains("cycle=42"));
    }
}
