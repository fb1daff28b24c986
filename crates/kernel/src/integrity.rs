//! Data-integrity and end-to-end error detection (§2.6).
//!
//! TEM's comparison protects data *during* a computation; this module
//! protects it across the I/O boundary:
//!
//! * [`crc32`] — the CRC the seals use;
//! * [`SealedMessage`] — end-to-end protection for input/output data
//!   travelling between tasks or nodes;
//! * [`FreshSealedMessage`] and [`CommandAcceptor`] — sealed commands
//!   whose sequence number also rejects replayed and stale copies.

use std::fmt;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over words.
///
/// Each word contributes its four bytes in little-endian order, so
/// `crc32(&[w])` equals the byte CRC [`nlft_sim::crc::crc32`]`(&w.to_le_bytes())`,
/// the one table-driven routine the network frames use too.
///
/// # Examples
///
/// ```
/// use nlft_kernel::integrity::crc32;
///
/// let a = crc32(&[1, 2, 3]);
/// let b = crc32(&[1, 2, 4]);
/// assert_ne!(a, b);
/// assert_eq!(a, crc32(&[1, 2, 3]));
/// ```
pub fn crc32(words: &[u32]) -> u32 {
    nlft_sim::crc::crc32_words(words)
}

/// Failure reported by an integrity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// A CRC-protected message fails verification.
    CrcMismatch {
        /// Expected (stored) CRC.
        expected: u32,
        /// CRC computed over the current contents.
        actual: u32,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// An end-to-end protected message: payload plus CRC, checked at the
/// consumer regardless of how many hops it crossed (§2.6, Kopetz).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedMessage {
    payload: Vec<u32>,
    crc: u32,
}

impl SealedMessage {
    /// Seals a payload.
    pub fn seal(payload: Vec<u32>) -> Self {
        let crc = crc32(&payload);
        SealedMessage { payload, crc }
    }

    /// Opens the message, verifying end-to-end integrity.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::CrcMismatch`] if payload or CRC were corrupted.
    pub fn open(self) -> Result<Vec<u32>, IntegrityError> {
        let actual = crc32(&self.payload);
        if actual != self.crc {
            return Err(IntegrityError::CrcMismatch {
                expected: self.crc,
                actual,
            });
        }
        Ok(self.payload)
    }

    /// Flips bits in the payload — test/fault-injection helper.
    pub fn corrupt_payload(&mut self, index: usize, mask: u32) {
        self.payload[index] ^= mask;
    }

    /// Flips bits in the CRC — test/fault-injection helper.
    #[cfg(test)]
    pub(crate) fn corrupt_crc(&mut self, mask: u32) {
        self.crc ^= mask;
    }
}

/// An end-to-end protected *command*: payload, a sequence number naming
/// the cycle in which the producer sealed it, and a CRC over both.
///
/// Where [`SealedMessage`] only proves the payload was not corrupted in
/// transit, a `FreshSealedMessage` additionally lets the consumer prove
/// the command is *fresh*: a duplicated, replayed or stale command
/// carries a sequence number at or below one already consumed (or far
/// behind the consumer's clock) and is rejected even though its CRC is
/// intact — the application-level half of the end-to-end argument
/// (§2.6, Kopetz).
///
/// # Examples
///
/// ```
/// use nlft_kernel::integrity::FreshSealedMessage;
///
/// let msg = FreshSealedMessage::seal(7, vec![100, 200]);
/// assert_eq!(msg.to_words().len(), 4, "[seq, payload…, crc]");
/// let (seq, payload) = msg.open().unwrap();
/// assert_eq!((seq, payload), (7, vec![100, 200]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreshSealedMessage {
    /// The wire words `[seq, payload…, crc]`; never fewer than two.
    words: Vec<u32>,
}

impl FreshSealedMessage {
    /// Seals a payload under a sequence number.
    pub fn seal(seq: u32, payload: Vec<u32>) -> Self {
        let mut words = Vec::with_capacity(payload.len() + 2);
        words.push(seq);
        words.extend_from_slice(&payload);
        words.push(crc32(&words));
        FreshSealedMessage { words }
    }

    /// Serialises to `[seq, payload…, crc]` for transport in a frame.
    pub fn to_words(&self) -> Vec<u32> {
        self.words.clone()
    }

    /// [`FreshSealedMessage::to_words`] without the copy.
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// Opens the message, verifying end-to-end integrity of sequence
    /// number and payload together. Freshness is the consumer's job — see
    /// [`CommandAcceptor`].
    ///
    /// # Errors
    ///
    /// [`IntegrityError::CrcMismatch`] if seq, payload or CRC were
    /// corrupted anywhere between sealing and opening.
    pub fn open(self) -> Result<(u32, Vec<u32>), IntegrityError> {
        let mut words = self.words;
        let crc = words.pop().expect("a sealed message ends in its CRC");
        check_seal(&words, crc)?;
        let seq = words.remove(0);
        Ok((seq, words))
    }

    /// Flips bits in one wire word (seq = 0, payload words, CRC last) —
    /// test/fault-injection helper.
    #[cfg(test)]
    pub(crate) fn corrupt_word(&mut self, index: usize, mask: u32) {
        self.words[index] ^= mask;
    }
}

/// Checks `crc` against the sealed words `seq ‖ payload`, which the wire
/// format holds contiguously in front of the CRC word.
fn check_seal(sealed: &[u32], crc: u32) -> Result<(), IntegrityError> {
    let actual = crc32(sealed);
    if actual != crc {
        return Err(IntegrityError::CrcMismatch {
            expected: crc,
            actual,
        });
    }
    Ok(())
}

/// Why a consumer rejected a sealed command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandReject {
    /// The wire buffer cannot hold a sealed command at all.
    Malformed,
    /// The end-to-end CRC failed: corrupted in some buffer past the bus.
    Corrupt(IntegrityError),
    /// Sequence number at or below one already consumed: a duplicated or
    /// replayed command.
    Stale {
        /// Sequence number carried by the rejected command.
        seq: u32,
        /// Highest sequence number already accepted.
        last: u32,
    },
    /// Sequence number too far behind the consumer's own clock: an aged
    /// command surviving in a buffer (e.g. across a consumer restart,
    /// when no `last` exists to compare against).
    TooOld {
        /// Cycles between sealing and the acceptance attempt.
        age: u32,
        /// Maximum age the acceptor tolerates.
        max_age: u32,
    },
}

impl fmt::Display for CommandReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandReject::Malformed => write!(f, "malformed command buffer"),
            CommandReject::Corrupt(e) => write!(f, "corrupt command: {e}"),
            CommandReject::Stale { seq, last } => {
                write!(f, "stale command: seq {seq} already superseded by {last}")
            }
            CommandReject::TooOld { age, max_age } => {
                write!(f, "aged command: {age} cycles old, limit {max_age}")
            }
        }
    }
}

/// Consumer-side freshness filter for [`FreshSealedMessage`] streams.
///
/// Tracks the highest sequence number accepted so far and rejects
/// anything corrupted, duplicated, replayed, or older than `max_age`
/// cycles relative to the consumer's clock. A rejected command must be
/// converted by the caller into a well-behaved omission (e.g. hold the
/// last safe value), never consumed.
///
/// # Examples
///
/// ```
/// use nlft_kernel::integrity::{CommandAcceptor, CommandReject, FreshSealedMessage};
///
/// let mut port = CommandAcceptor::new(2);
/// let cmd = FreshSealedMessage::seal(5, vec![900]);
/// assert_eq!(port.accept(&cmd.to_words(), 6).unwrap(), vec![900]);
/// // The same command delivered again is a replay.
/// assert!(matches!(
///     port.accept(&cmd.to_words(), 7),
///     Err(CommandReject::Stale { .. })
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct CommandAcceptor {
    last_seq: Option<u32>,
    max_age: u32,
    accepted: u64,
    rejected: u64,
}

impl CommandAcceptor {
    /// Creates an acceptor tolerating commands up to `max_age` cycles
    /// older than the consumer's clock at acceptance time.
    pub fn new(max_age: u32) -> Self {
        CommandAcceptor {
            last_seq: None,
            max_age,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Commands accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Commands rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Highest sequence number accepted, if any.
    #[cfg(test)]
    pub(crate) fn last_seq(&self) -> Option<u32> {
        self.last_seq
    }

    /// Validates one wire buffer at consumer time `now` (same clock the
    /// producer seals with — in a time-triggered system, the global cycle
    /// count). Returns the payload on success, borrowed from `words`.
    ///
    /// # Errors
    ///
    /// [`CommandReject`] when the buffer is malformed, fails the
    /// end-to-end CRC, repeats or precedes an accepted sequence number,
    /// or is older than the acceptor's age bound.
    pub fn accept<'w>(&mut self, words: &'w [u32], now: u32) -> Result<&'w [u32], CommandReject> {
        let result = self.accept_inner(words, now);
        match result {
            Ok(_) => self.accepted += 1,
            Err(_) => self.rejected += 1,
        }
        result
    }

    fn accept_inner<'w>(&mut self, words: &'w [u32], now: u32) -> Result<&'w [u32], CommandReject> {
        let Some((&crc, sealed)) = words.split_last() else {
            return Err(CommandReject::Malformed);
        };
        let &[seq, ref payload @ ..] = sealed else {
            return Err(CommandReject::Malformed);
        };
        check_seal(sealed, crc).map_err(CommandReject::Corrupt)?;
        if let Some(last) = self.last_seq {
            if !seq_newer(seq, last) {
                return Err(CommandReject::Stale { seq, last });
            }
        }
        // Windowed age, like the staleness rule: a sequence number "ahead"
        // of the consumer clock (wrapping distance in the upper half of
        // the space) is a producer sealing just before the consumer's
        // cycle counter incremented — age 0, not four billion.
        let diff = now.wrapping_sub(seq);
        let age = if diff < 1 << 31 { diff } else { 0 };
        if age > self.max_age {
            return Err(CommandReject::TooOld {
                age,
                max_age: self.max_age,
            });
        }
        self.last_seq = Some(seq);
        Ok(payload)
    }
}

/// Serial-number arithmetic (RFC 1982): `a` is newer than `b` iff the
/// forward wrapping distance from `b` to `a` is non-zero and less than
/// half the sequence space. A plain `seq <= last` comparison would brick
/// the acceptor forever once the producer's counter wraps past
/// `u32::MAX` — every subsequent command would compare "stale".
fn seq_newer(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < 1 << 31
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_sim::crc::crc32 as crc32_bytes;
    #[test]
    fn crc32_known_properties() {
        assert_eq!(crc32(&[]), 0);
        assert_ne!(crc32(&[0]), crc32(&[0, 0]));
        // Single-bit sensitivity.
        for bit in 0..32 {
            assert_ne!(crc32(&[0]), crc32(&[1 << bit]));
        }
    }

    /// IEEE 802.3 known-answer test: the check value of CRC-32/ISO-HDLC
    /// over `"123456789"` is 0xCBF43926. If this fails, the polynomial,
    /// reflection or init/final-xor convention silently changed — which
    /// invalidates every sealed structure in the workspace.
    #[test]
    fn crc32_ieee_known_answer() {
        assert_eq!(crc32_bytes(b"123456789"), 0xCBF43926);
        // And a second vector: 32 zero bytes.
        assert_eq!(crc32_bytes(&[0u8; 32]), 0x190A55AD);
    }

    /// The word-oriented API is byte-for-byte the same CRC: each word
    /// contributes its little-endian bytes, so the 8-byte prefix of the
    /// IEEE vector is reachable through two words.
    #[test]
    fn crc32_words_match_bytes() {
        let w1 = u32::from_le_bytes(*b"1234");
        let w2 = u32::from_le_bytes(*b"5678");
        assert_eq!(crc32(&[w1, w2]), crc32_bytes(b"12345678"));
        assert_eq!(
            crc32(&[0xDEAD_BEEF]),
            crc32_bytes(&0xDEAD_BEEFu32.to_le_bytes())
        );
        assert_eq!(crc32(&[]), crc32_bytes(&[]));
    }

    #[test]
    fn fresh_sealed_round_trip_and_wire_format() {
        let msg = FreshSealedMessage::seal(42, vec![10, 20, 30]);
        let words = msg.to_words();
        assert_eq!(words.len(), 5, "[seq, 3 payload words, crc]");
        assert_eq!(words[0], 42);
        let back = FreshSealedMessage {
            words: words.clone(),
        };
        assert_eq!(back, msg);
        assert_eq!(back.open().unwrap(), (42, vec![10, 20, 30]));
    }

    #[test]
    fn fresh_sealed_detects_corruption_of_any_word() {
        let words = FreshSealedMessage::seal(9, vec![7, 8]).to_words();
        for i in 0..words.len() {
            let mut msg = FreshSealedMessage {
                words: words.clone(),
            };
            msg.corrupt_word(i, 1 << (i % 32));
            assert!(msg.open().is_err(), "corruption of word {i} must be caught");
        }
    }

    #[test]
    fn acceptor_accepts_fresh_rejects_replay_and_stale() {
        let mut port = CommandAcceptor::new(2);
        let c5 = FreshSealedMessage::seal(5, vec![100]).to_words();
        let c6 = FreshSealedMessage::seal(6, vec![110]).to_words();
        assert_eq!(port.accept(&c5, 5).unwrap(), vec![100]);
        assert_eq!(port.accept(&c6, 7).unwrap(), vec![110]);
        // Replay of c5 (duplicate from a faulty driver): stale.
        assert!(matches!(
            port.accept(&c5, 8),
            Err(CommandReject::Stale { seq: 5, last: 6 })
        ));
        // Replay of the *latest* command is equally stale.
        assert!(matches!(
            port.accept(&c6, 8),
            Err(CommandReject::Stale { seq: 6, last: 6 })
        ));
        assert_eq!(port.accepted(), 2);
        assert_eq!(port.rejected(), 2);
    }

    #[test]
    fn acceptor_age_check_catches_replay_after_restart() {
        // A consumer restart wipes `last_seq`; a buffer surviving from
        // cycle 3 must still be rejected at cycle 10 by age alone.
        let mut port = CommandAcceptor::new(2);
        let old = FreshSealedMessage::seal(3, vec![900]).to_words();
        assert!(matches!(
            port.accept(&old, 10),
            Err(CommandReject::TooOld { age: 7, max_age: 2 })
        ));
        // A fresh command is fine.
        let fresh = FreshSealedMessage::seal(10, vec![901]).to_words();
        assert!(port.accept(&fresh, 10).is_ok());
    }

    #[test]
    fn acceptor_rejects_corrupt_and_malformed() {
        let mut port = CommandAcceptor::new(2);
        let mut msg = FreshSealedMessage::seal(4, vec![1, 2, 3]);
        msg.corrupt_word(2, 0x40);
        assert!(matches!(
            port.accept(&msg.to_words(), 4),
            Err(CommandReject::Corrupt(_))
        ));
        assert!(matches!(
            port.accept(&[1], 4),
            Err(CommandReject::Malformed)
        ));
        assert_eq!(port.rejected(), 2);
        // Rejections never advance the freshness state.
        assert_eq!(port.last_seq(), None);
    }

    #[test]
    fn acceptor_survives_sequence_wraparound() {
        // At the wrap: u32::MAX is accepted normally…
        let mut port = CommandAcceptor::new(2);
        let last = FreshSealedMessage::seal(u32::MAX, vec![900]).to_words();
        assert_eq!(port.accept(&last, u32::MAX).unwrap(), vec![900]);
        assert_eq!(port.last_seq(), Some(u32::MAX));
        // …and across it: seq 0 is *newer* than u32::MAX by serial-number
        // arithmetic, not "stale forever" as a plain `<=` would decide.
        let wrapped = FreshSealedMessage::seal(0, vec![901]).to_words();
        assert_eq!(port.accept(&wrapped, 0).unwrap(), vec![901]);
        assert_eq!(port.last_seq(), Some(0));
        // The stream keeps flowing after the wrap.
        let next = FreshSealedMessage::seal(1, vec![902]).to_words();
        assert_eq!(port.accept(&next, 1).unwrap(), vec![902]);
        // A replay from just before the wrap is still stale.
        assert!(matches!(
            port.accept(&last, 1),
            Err(CommandReject::Stale {
                seq: u32::MAX,
                last: 1
            })
        ));
    }

    #[test]
    fn acceptor_age_window_spans_the_wrap() {
        // Sealed two cycles before the consumer clock wrapped: age 2,
        // within a max_age of 2 — the old `saturating_sub` would have
        // called this four billion cycles old via the unwrapped clock.
        let mut port = CommandAcceptor::new(2);
        let cmd = FreshSealedMessage::seal(u32::MAX - 1, vec![903]).to_words();
        assert_eq!(port.accept(&cmd, 0).unwrap(), vec![903]);
        // Three cycles across the wrap is past the bound.
        let mut port = CommandAcceptor::new(2);
        let cmd = FreshSealedMessage::seal(u32::MAX - 1, vec![904]).to_words();
        assert!(matches!(
            port.accept(&cmd, 1),
            Err(CommandReject::TooOld { age: 3, max_age: 2 })
        ));
    }

    #[test]
    fn seq_newer_is_windowed() {
        assert!(seq_newer(1, 0));
        assert!(seq_newer(0, u32::MAX));
        assert!(seq_newer(5, u32::MAX - 5));
        assert!(!seq_newer(0, 0));
        assert!(!seq_newer(0, 1));
        assert!(!seq_newer(u32::MAX, 0));
        // Exactly half the space away counts as old, never newer.
        assert!(!seq_newer(1 << 31, 0));
    }

    #[test]
    fn seq_corruption_cannot_smuggle_a_stale_command_past_the_crc() {
        // Forging a higher sequence number onto an old payload breaks the
        // seal: seq participates in the CRC.
        let mut msg = FreshSealedMessage::seal(3, vec![55]);
        msg.corrupt_word(0, 3 ^ 20);
        let mut port = CommandAcceptor::new(2);
        assert!(matches!(
            port.accept(&msg.to_words(), 20),
            Err(CommandReject::Corrupt(_))
        ));
    }

    /// The reference acceptor: rebuilds `[seq, payload…]` in its own
    /// buffer, CRCs that, then applies the freshness rules.
    fn oracle_accept(
        words: &[u32],
        last: Option<u32>,
        max_age: u32,
        now: u32,
    ) -> Result<Vec<u32>, CommandReject> {
        if words.len() < 2 {
            return Err(CommandReject::Malformed);
        }
        let (seq, payload, crc) = (words[0], &words[1..words.len() - 1], words[words.len() - 1]);
        let mut all = vec![seq];
        all.extend_from_slice(payload);
        let actual = crc32(&all);
        if actual != crc {
            return Err(CommandReject::Corrupt(IntegrityError::CrcMismatch {
                expected: crc,
                actual,
            }));
        }
        if let Some(last) = last {
            if !seq_newer(seq, last) {
                return Err(CommandReject::Stale { seq, last });
            }
        }
        let diff = now.wrapping_sub(seq);
        let age = if diff < 1 << 31 { diff } else { 0 };
        if age > max_age {
            return Err(CommandReject::TooOld { age, max_age });
        }
        Ok(payload.to_vec())
    }

    /// `accept` reads the sealed words where they lie; it must decide
    /// exactly as an acceptor that copies them out first.
    #[test]
    fn in_place_accept_matches_the_copying_oracle() {
        use nlft_testkit::prop::{gens, Suite};
        use nlft_testkit::rng::TkRng;
        use nlft_testkit::{prop_assert, prop_assert_eq};

        const MAX_AGE: u32 = 2;
        Suite::new(0x5EA1_ED00).cases(512).check(
            "in_place_accept_matches_the_copying_oracle",
            {
                let mut payload = gens::vec(|r| r.next_u32(), 0..9);
                let mut word = gens::index();
                move |r: &mut TkRng| {
                    let seq = r.next_u32();
                    let payload = payload(r);
                    let flip = r.bool().then(|| (word(r), r.next_u32()));
                    let last = r
                        .bool()
                        .then(|| seq.wrapping_add(r.range(0, 5) as u32).wrapping_sub(2));
                    let now = seq.wrapping_add(r.range(0, 5) as u32).wrapping_sub(1);
                    (seq, payload, flip, last, now)
                }
            },
            |(seq, payload, flip, last, now)| {
                let mut words = FreshSealedMessage::seal(*seq, payload.clone()).into_words();
                if let Some((word, mask)) = flip {
                    let i = word.index(words.len());
                    words[i] ^= mask;
                }
                let mut port = CommandAcceptor::new(MAX_AGE);
                port.last_seq = *last;
                let got = port.accept(&words, *now).map(<[u32]>::to_vec);
                let want = oracle_accept(&words, *last, MAX_AGE, *now);
                prop_assert_eq!(&got, &want);
                prop_assert!(port.accepted() + port.rejected() == 1);
                Ok(())
            },
        );
    }

    #[test]
    fn sealed_message_round_trip() {
        let msg = SealedMessage::seal(vec![7, 8, 9]);
        assert_eq!(msg.open().unwrap(), vec![7, 8, 9]);
    }

    #[test]
    fn sealed_message_detects_payload_and_crc_corruption() {
        let mut msg = SealedMessage::seal(vec![7, 8, 9]);
        msg.corrupt_payload(1, 0x10);
        assert!(msg.open().is_err());

        let mut msg = SealedMessage::seal(vec![7, 8, 9]);
        msg.corrupt_crc(1);
        assert!(msg.open().is_err());
    }

    #[test]
    fn empty_message_is_valid() {
        assert_eq!(
            SealedMessage::seal(vec![]).open().unwrap(),
            Vec::<u32>::new()
        );
    }
}
