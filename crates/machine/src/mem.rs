//! ECC-protected main memory.
//!
//! Models a word-organised SRAM/DRAM with single-error-correct /
//! double-error-detect (SEC-DED) coding, the standard hardware EDM the paper
//! assumes for memories (Table 1). The model keeps the *true* value of each
//! word plus a mask of bits currently flipped by injected faults:
//!
//! * a **read** with one flipped bit is silently corrected (and counted) —
//!   this is why pure memory faults rarely become errors on ECC machines;
//! * a read with two or more flipped bits raises an uncorrectable-ECC
//!   exception — detected, not masked;
//! * a **write** re-encodes the word, clearing any accumulated flips;
//! * with ECC disabled (cheap-node configuration), reads return the
//!   corrupted value with no indication *to the program* — the fault
//!   escapes; the harness-visible [`EccStats::escaped`] counter records
//!   the exposure so campaigns can report it.
//!
//! Faulty words are additionally tracked in a dense per-word dirty bitset:
//! the fault-free load path — the overwhelmingly common case — tests one
//! bit and never touches the sparse flip map, keeping the interpreter's
//! fetch/load hot loop free of hashing.
//!
//! A change counter, [`EccMemory::generation`], moves whenever a word's
//! value or fault state changes, so a caller can tell "nothing changed
//! since" with one compare instead of a copy of memory. Rewriting a word
//! with the value it already holds does not move it.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Byte size of one memory word.
pub const WORD_BYTES: u32 = 4;

/// Outcome of a memory access that violates the bus or ECC rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemError {
    /// Address not mapped by the memory array (bus error).
    Bus {
        /// The faulting byte address.
        addr: u32,
    },
    /// Address not word-aligned (address error).
    Misaligned {
        /// The faulting byte address.
        addr: u32,
    },
    /// Two or more flipped bits in the word: ECC detects but cannot correct.
    EccUncorrectable {
        /// The faulting byte address.
        addr: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Bus { addr } => write!(f, "bus error at {addr:#06x}"),
            MemError::Misaligned { addr } => write!(f, "misaligned access at {addr:#06x}"),
            MemError::EccUncorrectable { addr } => {
                write!(f, "uncorrectable ECC error at {addr:#06x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Counters exposed by the ECC logic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Single-bit errors silently corrected on read.
    pub corrected: u64,
    /// Multi-bit errors detected (exceptions raised).
    pub detected_uncorrectable: u64,
    /// Corrupted reads served with ECC disabled — the fault escaped into
    /// the program with no hardware indication. Campaigns on cheap nodes
    /// use this to report silent-corruption exposure, which the escape
    /// path previously left invisible.
    pub escaped: u64,
}

/// Word-addressed main memory with SEC-DED ECC.
///
/// # Examples
///
/// ```
/// use nlft_machine::mem::EccMemory;
///
/// let mut mem = EccMemory::new(1024);
/// mem.store(0x10, 0xDEAD_BEEF)?;
/// assert_eq!(mem.load(0x10)?, 0xDEAD_BEEF);
///
/// // A single injected bit flip is corrected transparently.
/// mem.inject_flip(0x10, 0x0000_0001);
/// assert_eq!(mem.load(0x10)?, 0xDEAD_BEEF);
/// assert_eq!(mem.ecc_stats().corrected, 1);
/// # Ok::<(), nlft_machine::mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EccMemory {
    words: Vec<u32>,
    /// Injected-fault bit masks, keyed by word index. Sparse: faults are rare.
    flips: HashMap<u32, u32>,
    /// One bit per word, set exactly when `flips` holds a mask for it.
    /// Fault-free loads test this bitset and never touch the hash map —
    /// the dominant case in every campaign (most trials run clean up to
    /// the single injection point).
    dirty: Vec<u64>,
    ecc_enabled: bool,
    stats: EccStats,
    /// See [`EccMemory::generation`].
    generation: u64,
}

impl EccMemory {
    /// Creates a zeroed memory of `bytes` bytes (rounded down to whole words)
    /// with ECC enabled.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one word.
    pub fn new(bytes: u32) -> Self {
        assert!(bytes >= WORD_BYTES, "memory must hold at least one word");
        let words = (bytes / WORD_BYTES) as usize;
        EccMemory {
            words: vec![0; words],
            flips: HashMap::new(),
            dirty: vec![0; words.div_ceil(64)],
            ecc_enabled: true,
            stats: EccStats::default(),
            generation: 0,
        }
    }

    /// Creates a memory with ECC disabled (models a low-cost node without
    /// memory protection; injected faults then propagate silently).
    pub fn new_without_ecc(bytes: u32) -> Self {
        let mut m = EccMemory::new(bytes);
        m.ecc_enabled = false;
        m
    }

    /// Memory size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.words.len() as u32 * WORD_BYTES
    }

    /// ECC correction/detection counters.
    pub fn ecc_stats(&self) -> EccStats {
        self.stats
    }

    /// The change counter: it moves whenever a store or
    /// [`EccMemory::store_words`] writes a different value, an injected
    /// flip is added, scrubbed or cleared, or memory is reset. Equal
    /// readings therefore mean equal words and equal fault state in
    /// between. A store of the value a clean word already holds leaves it
    /// where it was.
    ///
    /// ```
    /// use nlft_machine::mem::EccMemory;
    ///
    /// let mut mem = EccMemory::new(64);
    /// let before = mem.generation();
    /// mem.store(8, 0)?; // the word already holds 0
    /// assert_eq!(mem.generation(), before);
    /// mem.store(8, 1)?;
    /// assert_ne!(mem.generation(), before);
    /// # Ok::<(), nlft_machine::mem::MemError>(())
    /// ```
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn is_dirty(&self, idx: usize) -> bool {
        self.dirty[idx >> 6] & (1u64 << (idx & 63)) != 0
    }

    fn set_dirty(&mut self, idx: usize) {
        self.dirty[idx >> 6] |= 1u64 << (idx & 63);
    }

    fn clear_dirty(&mut self, idx: usize) {
        self.dirty[idx >> 6] &= !(1u64 << (idx & 63));
    }

    fn word_index(&self, addr: u32) -> Result<usize, MemError> {
        if !addr.is_multiple_of(WORD_BYTES) {
            return Err(MemError::Misaligned { addr });
        }
        let idx = (addr / WORD_BYTES) as usize;
        if idx >= self.words.len() {
            return Err(MemError::Bus { addr });
        }
        Ok(idx)
    }

    /// Word indices of the `len` words starting at byte address `base`,
    /// failing with the error the first invalid per-word access would give.
    fn word_range(&self, base: u32, len: usize) -> Result<Range<usize>, MemError> {
        if len == 0 {
            return Ok(0..0);
        }
        if !base.is_multiple_of(WORD_BYTES) {
            return Err(MemError::Misaligned { addr: base });
        }
        let start = (base / WORD_BYTES) as usize;
        let end = start.saturating_add(len);
        if end > self.words.len() {
            return Err(MemError::Bus {
                addr: base.max(self.size_bytes()),
            });
        }
        Ok(start..end)
    }

    /// Loads the 32-bit word at byte address `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] for unaligned addresses, [`MemError::Bus`]
    /// for unmapped addresses, and [`MemError::EccUncorrectable`] when the
    /// word carries a multi-bit fault and ECC is enabled.
    pub fn load(&mut self, addr: u32) -> Result<u32, MemError> {
        let idx = self.word_index(addr)?;
        self.load_word(idx).unwrap_or(Err(MemError::Bus { addr }))
    }

    /// [`EccMemory::load`] of the word at word index `idx`, for a caller
    /// that knows the address is aligned; `None` past the end of memory.
    #[inline]
    pub(crate) fn load_word(&mut self, idx: usize) -> Option<Result<u32, MemError>> {
        let word = *self.words.get(idx)?;
        // Dirty-word fast path: fault-free words never touch the hash map.
        Some(if self.is_dirty(idx) {
            self.load_faulty(idx)
        } else {
            Ok(word)
        })
    }

    /// The word at word index `idx` when it is in range and carries no
    /// injected fault: exactly the words whose [`EccMemory::load`] returns
    /// the stored value with no side effect (no ECC counter moves, nothing
    /// is scrubbed, [`EccMemory::generation`] stays), so a caller may use
    /// this read in place of that load. `None` otherwise.
    #[inline]
    pub(crate) fn clean_word(&self, idx: usize) -> Option<u32> {
        let word = *self.words.get(idx)?;
        (!self.is_dirty(idx)).then_some(word)
    }

    /// Slow path for a load whose word carries an injected fault.
    #[cold]
    fn load_faulty(&mut self, idx: usize) -> Result<u32, MemError> {
        let mask = self.flips.get(&(idx as u32)).copied().unwrap_or(0);
        if mask == 0 {
            return Ok(self.words[idx]);
        }
        if !self.ecc_enabled {
            // Fault escapes: the program sees the corrupted value, and only
            // the (harness-visible) counter records that it happened.
            self.stats.escaped += 1;
            return Ok(self.words[idx] ^ mask);
        }
        if mask.count_ones() == 1 {
            // SEC: corrected in place (scrubbing).
            self.flips.remove(&(idx as u32));
            self.clear_dirty(idx);
            self.generation += 1;
            self.stats.corrected += 1;
            Ok(self.words[idx])
        } else {
            self.stats.detected_uncorrectable += 1;
            Err(MemError::EccUncorrectable {
                addr: idx as u32 * WORD_BYTES,
            })
        }
    }

    /// Stores a 32-bit word; rewriting a word clears any injected flips.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::Bus`] as for [`EccMemory::load`].
    pub fn store(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let idx = self.word_index(addr)?;
        let word = &mut self.words[idx];
        self.generation += u64::from(*word != value);
        *word = value;
        if self.is_dirty(idx) {
            self.flips.remove(&(idx as u32));
            self.clear_dirty(idx);
            self.generation += 1;
        }
        Ok(())
    }

    /// Reads a word bypassing ECC and fault masks — the "golden" value.
    ///
    /// Used by experiment harnesses for oracle comparison, never by the
    /// simulated software.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::Bus`].
    pub fn peek(&self, addr: u32) -> Result<u32, MemError> {
        let idx = self.word_index(addr)?;
        Ok(self.words[idx])
    }

    /// The golden values of the `len` words starting at byte address
    /// `base` — [`EccMemory::peek`] over a range, as one slice.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::Bus`] when any word of the
    /// range is invalid; nothing is read then.
    pub fn peek_words(&self, base: u32, len: usize) -> Result<&[u32], MemError> {
        let range = self.word_range(base, len)?;
        Ok(&self.words[range])
    }

    /// Stores `words` starting at byte address `base` — exactly what one
    /// [`EccMemory::store`] per word does (values written, injected flips
    /// cleared), in one step.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::Bus`] when any word of the
    /// range is invalid; nothing is written then.
    pub fn store_words(&mut self, base: u32, words: &[u32]) -> Result<(), MemError> {
        let range = self.word_range(base, words.len())?;
        let target = &mut self.words[range.clone()];
        if target != words {
            target.copy_from_slice(words);
            self.generation += 1;
        }
        if !self.range_is_clean(range.clone()) {
            self.generation += 1;
            for idx in range {
                if self.is_dirty(idx) {
                    self.flips.remove(&(idx as u32));
                    self.clear_dirty(idx);
                }
            }
        }
        Ok(())
    }

    /// `true` when none of the `len` words starting at byte address `base`
    /// carries an injected fault, so [`EccMemory::load`] of each would
    /// return its [`EccMemory::peek`] value with no side effect.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::Bus`] when any word of the
    /// range is invalid.
    pub fn words_clean(&self, base: u32, len: usize) -> Result<bool, MemError> {
        let range = self.word_range(base, len)?;
        Ok(self.range_is_clean(range))
    }

    /// Dirty-bitset test over a word-index range, a whole `u64` at a time.
    fn range_is_clean(&self, range: Range<usize>) -> bool {
        if range.is_empty() {
            return true;
        }
        let (first, last) = (range.start >> 6, (range.end - 1) >> 6);
        let head = !0u64 << (range.start & 63);
        let tail = !0u64 >> (63 - ((range.end - 1) & 63));
        if first == last {
            return self.dirty[first] & head & tail == 0;
        }
        self.dirty[first] & head == 0
            && self.dirty[first + 1..last].iter().all(|&w| w == 0)
            && self.dirty[last] & tail == 0
    }

    /// XORs `mask` into the injected-fault state of the word at `addr`.
    ///
    /// Does nothing (and returns `false`) for invalid addresses — fault
    /// injectors may target arbitrary addresses.
    pub fn inject_flip(&mut self, addr: u32, mask: u32) -> bool {
        match self.word_index(addr) {
            Ok(idx) => {
                self.generation += 1;
                let e = self.flips.entry(idx as u32).or_insert(0);
                *e ^= mask;
                if *e == 0 {
                    self.flips.remove(&(idx as u32));
                    self.clear_dirty(idx);
                } else {
                    self.set_dirty(idx);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Number of words currently carrying injected faults.
    pub fn faulty_words(&self) -> usize {
        self.flips.len()
    }

    /// Clears all injected faults (models a scrub cycle or power reset).
    pub fn clear_faults(&mut self) {
        self.flips.clear();
        self.dirty.fill(0);
        self.generation += 1;
    }

    /// Zeroes all of memory and clears fault state (hard reset).
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.flips.clear();
        self.dirty.fill(0);
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_round_trip() {
        let mut m = EccMemory::new(64);
        m.store(0, 1).unwrap();
        m.store(60, 0xFFFF_FFFF).unwrap();
        assert_eq!(m.load(0).unwrap(), 1);
        assert_eq!(m.load(60).unwrap(), 0xFFFF_FFFF);
    }

    #[test]
    fn misaligned_and_out_of_range_fail() {
        let mut m = EccMemory::new(64);
        assert_eq!(m.load(2), Err(MemError::Misaligned { addr: 2 }));
        assert_eq!(m.load(64), Err(MemError::Bus { addr: 64 }));
        assert_eq!(m.store(65, 0), Err(MemError::Misaligned { addr: 65 }));
        assert_eq!(m.store(1 << 20, 0), Err(MemError::Bus { addr: 1 << 20 }));
    }

    #[test]
    fn single_bit_flip_corrected_and_scrubbed() {
        let mut m = EccMemory::new(64);
        m.store(8, 0xAAAA_5555).unwrap();
        m.inject_flip(8, 0x8000_0000);
        assert_eq!(m.load(8).unwrap(), 0xAAAA_5555);
        assert_eq!(m.ecc_stats().corrected, 1);
        // Scrubbed: a second read needs no correction.
        m.load(8).unwrap();
        assert_eq!(m.ecc_stats().corrected, 1);
        assert_eq!(m.faulty_words(), 0);
    }

    #[test]
    fn double_bit_flip_detected_uncorrectable() {
        let mut m = EccMemory::new(64);
        m.store(8, 7).unwrap();
        m.inject_flip(8, 0b11);
        assert_eq!(m.load(8), Err(MemError::EccUncorrectable { addr: 8 }));
        assert_eq!(m.ecc_stats().detected_uncorrectable, 1);
    }

    #[test]
    fn write_clears_fault() {
        let mut m = EccMemory::new(64);
        m.inject_flip(8, 0b111);
        m.store(8, 42).unwrap();
        assert_eq!(m.load(8).unwrap(), 42);
        assert_eq!(m.ecc_stats().detected_uncorrectable, 0);
    }

    #[test]
    fn without_ecc_faults_escape_silently() {
        let mut m = EccMemory::new_without_ecc(64);
        m.store(8, 0b1000).unwrap();
        m.inject_flip(8, 0b0001);
        assert_eq!(m.load(8).unwrap(), 0b1001, "corrupted value visible");
        assert_eq!(m.ecc_stats().corrected, 0);
        // The escape is invisible to the program but counted for the
        // harness: each corrupted read is one exposure.
        assert_eq!(m.ecc_stats().escaped, 1);
        m.load(8).unwrap();
        assert_eq!(m.ecc_stats().escaped, 2, "no scrub without ECC");
        // peek still sees the golden value.
        assert_eq!(m.peek(8).unwrap(), 0b1000);
        // Clean words never count as escapes.
        m.load(4).unwrap();
        assert_eq!(m.ecc_stats().escaped, 2);
    }

    #[test]
    fn dirty_tracking_follows_fault_state() {
        let mut m = EccMemory::new(256);
        // Clean loads take the fast path and see stored values.
        m.store(16, 0x1234).unwrap();
        assert_eq!(m.load(16).unwrap(), 0x1234);
        // Inject, then store: the store must clear the fault.
        m.inject_flip(16, 0b11);
        m.store(16, 0x5678).unwrap();
        assert_eq!(m.load(16).unwrap(), 0x5678);
        assert_eq!(m.faulty_words(), 0);
        assert_eq!(m.ecc_stats().detected_uncorrectable, 0);
        // Cancelling injections leave the word clean.
        m.inject_flip(20, 0b100);
        m.inject_flip(20, 0b100);
        assert_eq!(m.load(20).unwrap(), 0);
        assert_eq!(m.ecc_stats().corrected, 0, "cancelled flip is no fault");
        // clear_faults wipes all dirty state.
        m.inject_flip(24, 0b11);
        m.clear_faults();
        assert_eq!(m.load(24).unwrap(), 0);
        assert_eq!(m.ecc_stats().detected_uncorrectable, 0);
    }

    #[test]
    fn inject_into_invalid_address_reports_false() {
        let mut m = EccMemory::new(64);
        assert!(!m.inject_flip(1 << 20, 1));
        assert!(!m.inject_flip(3, 1));
        assert!(m.inject_flip(4, 1));
    }

    #[test]
    fn double_inject_same_bit_cancels() {
        let mut m = EccMemory::new(64);
        m.inject_flip(4, 0b10);
        m.inject_flip(4, 0b10);
        assert_eq!(m.faulty_words(), 0);
    }

    #[test]
    fn load_image_places_program() {
        let mut m = EccMemory::new(64);
        m.store_words(16, &[1, 2, 3]).unwrap();
        assert_eq!(m.load(16).unwrap(), 1);
        assert_eq!(m.load(20).unwrap(), 2);
        assert_eq!(m.load(24).unwrap(), 3);
    }

    #[test]
    fn out_of_range_image_writes_nothing() {
        let mut m = EccMemory::new(64);
        m.store(56, 9).unwrap();
        m.inject_flip(56, 0b11);
        // Words 56 and 60 fit, 64 does not: the whole image is refused.
        assert_eq!(
            m.store_words(56, &[1, 2, 3]),
            Err(MemError::Bus { addr: 64 })
        );
        assert_eq!(m.peek(56).unwrap(), 9, "no partial prefix");
        assert_eq!(m.faulty_words(), 1, "flips survive a refused image");
        assert_eq!(
            m.store_words(2, &[1]),
            Err(MemError::Misaligned { addr: 2 })
        );
        // A fitting image clears flips.
        m.store_words(56, &[1, 2]).unwrap();
        assert_eq!(m.faulty_words(), 0);
        assert_eq!(m.load(56).unwrap(), 1);
    }

    #[test]
    fn range_ops_match_per_word_ops() {
        // 130 words: the range spans three dirty-bitset words.
        let mut m = EccMemory::new(130 * 4);
        let image: Vec<u32> = (0..130).map(|i| i * 3 + 1).collect();
        m.store_words(0, &image).unwrap();
        assert_eq!(m.peek_words(0, 130).unwrap(), &image[..]);
        assert_eq!(m.peek_words(4 * 60, 10).unwrap(), &image[60..70]);
        assert!(m.words_clean(0, 130).unwrap());
        m.inject_flip(4 * 64, 1);
        assert!(!m.words_clean(0, 130).unwrap());
        assert!(!m.words_clean(4 * 63, 2).unwrap());
        assert!(!m.words_clean(4 * 64, 1).unwrap());
        assert!(m.words_clean(0, 64).unwrap());
        assert!(m.words_clean(4 * 65, 65).unwrap());
        // Storing over the faulty word clears it, like a per-word store.
        m.store_words(4 * 60, &[7; 8]).unwrap();
        assert!(m.words_clean(0, 130).unwrap());
        assert_eq!(m.faulty_words(), 0);
        assert_eq!(m.peek(4 * 64).unwrap(), 7);
        // Errors name the first invalid address; empty ranges always fit.
        assert_eq!(
            m.peek_words(4 * 129, 2),
            Err(MemError::Bus { addr: 4 * 130 })
        );
        assert_eq!(m.words_clean(1, 1), Err(MemError::Misaligned { addr: 1 }));
        assert_eq!(m.store_words(1 << 20, &[]), Ok(()));
        assert_eq!(m.peek_words(1 << 20, 0).unwrap(), &[] as &[u32]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = EccMemory::new(64);
        m.store(4, 9).unwrap();
        m.inject_flip(8, 3);
        m.reset();
        assert_eq!(m.load(4).unwrap(), 0);
        assert_eq!(m.faulty_words(), 0);
    }
}
