//! Weakly-hard (m,k) window monitoring.
//!
//! A weakly-hard constraint bounds how *densely* failures may occur
//! rather than forbidding them outright: "at most m misses in any window
//! of k consecutive outcomes". The workspace uses the shape in three
//! places — membership hysteresis (a node missing m of its last k slots
//! is excluded), pedal-channel demotion (m implausible cycles in k demote
//! the channel), and per-task deadline-miss contracts enforced by the
//! kernel executive. All three share this monitor instead of hand-rolling
//! their own shift-register windows.
//!
//! The monitor keeps the last `k` outcomes in a ring bitset, so one
//! [`WeaklyHard::record`] call is O(1) for any window length: the bit
//! falling out of the window is subtracted from the running miss count,
//! the new bit is added. A 64-bit outcome counter means streams far past
//! 2³² jobs wrap the ring without losing count — property-tested against
//! a naive reference window.
//!
//! Besides the violation verdict the monitor reports the **margin** — the
//! number of further misses the current window absorbs before violating,
//! the "distance to violation" that degradation policies act on *before*
//! the contract is broken.
//!
//! # Examples
//!
//! ```
//! use nlft_sim::weakly_hard::WeaklyHard;
//!
//! // Violated when 3 of the last 8 outcomes are misses.
//! let mut w = WeaklyHard::new(3, 8);
//! assert!(!w.record(true).violated);
//! assert!(!w.record(true).violated);
//! assert_eq!(w.margin(), 1, "one more miss violates");
//! let v = w.record(true);
//! assert!(v.violated);
//! assert_eq!(v.misses_in_window, 3);
//! // Eight clean outcomes later the window has fully recovered.
//! for _ in 0..8 {
//!     w.record(false);
//! }
//! assert!(!w.is_violated());
//! assert_eq!(w.margin(), 3);
//! ```

/// The verdict of one recorded outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowVerdict {
    /// Whether the constraint is violated after this outcome: at least
    /// `m` of the last `k` outcomes are misses.
    pub violated: bool,
    /// Misses currently inside the window.
    pub misses_in_window: u32,
    /// Misses the window still absorbs before violating (0 = violated).
    pub margin: u32,
    /// Trailing run of consecutive misses ending at this outcome.
    pub consecutive_misses: u32,
}

/// An (m,k) weakly-hard window monitor: **violated** while at least
/// `m` of the last `k` recorded outcomes are misses.
///
/// The consecutive-miss rule "n misses in a row" is the special case
/// `m = k = n` (n misses within a window of n *is* n consecutive
/// misses); [`WeaklyHard::consecutive`] builds exactly that, and every
/// monitor also tracks the trailing consecutive-miss run directly for
/// callers that combine both rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeaklyHard {
    /// Miss threshold `m` (violation at ≥ m misses in the window).
    misses: u32,
    /// Window length `k`.
    window: u32,
    /// Ring bitset over the last `window` outcomes, 1 = miss.
    bits: Vec<u64>,
    /// Total outcomes recorded since construction or the last reset.
    observed: u64,
    /// Misses currently inside the window (maintained incrementally).
    in_window: u32,
    /// Trailing consecutive misses.
    consecutive: u32,
}

impl WeaklyHard {
    /// Creates a monitor violated at `misses` misses within any
    /// `window` consecutive outcomes.
    ///
    /// # Panics
    ///
    /// Panics when `misses` is zero, `window` is zero, or
    /// `misses > window`.
    pub fn new(misses: u32, window: u32) -> Self {
        assert!(misses > 0, "window_misses must be positive");
        assert!(window > 0, "window_cycles must be positive");
        assert!(
            misses <= window,
            "window_misses must be at most window_cycles"
        );
        WeaklyHard {
            misses,
            window,
            bits: vec![0; window.div_ceil(64) as usize],
            observed: 0,
            in_window: 0,
            consecutive: 0,
        }
    }

    /// Creates a consecutive-miss monitor: violated by `n` misses in a
    /// row (the `(m, k) = (n, n)` special case).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn consecutive(n: u32) -> Self {
        WeaklyHard::new(n, n)
    }

    /// The window length `k`.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Records one outcome (`miss = true` for a miss) in O(1) and
    /// returns the verdict for the updated window.
    #[inline]
    pub fn record(&mut self, miss: bool) -> WindowVerdict {
        let slot = (self.observed % u64::from(self.window)) as u32;
        let (word, bit) = (slot / 64, slot % 64);
        let mask = 1u64 << bit;
        // Once the ring has wrapped, the slot holds the outcome falling
        // out of the window: subtract it from the running count.
        if self.observed >= u64::from(self.window) && self.bits[word as usize] & mask != 0 {
            self.in_window -= 1;
        }
        if miss {
            self.bits[word as usize] |= mask;
            self.in_window += 1;
            self.consecutive += 1;
        } else {
            self.bits[word as usize] &= !mask;
            self.consecutive = 0;
        }
        self.observed += 1;
        self.verdict()
    }

    /// Fast-forwards `n` consecutive hits: equivalent to `n` calls of
    /// `record(false)` but O(min(n, k)) — healthy streams running for
    /// billions of jobs need not be replayed outcome by outcome.
    pub fn record_hits(&mut self, n: u64) {
        let k = u64::from(self.window);
        if n >= k {
            // The window is entirely hits afterwards; only the counter
            // position matters for subsequent records.
            self.bits.fill(0);
            self.in_window = 0;
            self.consecutive = 0;
            self.observed += n;
        } else {
            for _ in 0..n {
                self.record(false);
            }
        }
    }

    /// Clears the window and both counters — the "clean slate" a
    /// readmitted node or restarted task starts from. The total
    /// [`WeaklyHard::observed`] count restarts too.
    pub fn reset(&mut self) {
        self.bits.fill(0);
        self.observed = 0;
        self.in_window = 0;
        self.consecutive = 0;
    }

    /// Total outcomes recorded since construction or the last reset.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Misses currently inside the window.
    pub fn misses_in_window(&self) -> u32 {
        self.in_window
    }

    /// Trailing run of consecutive misses.
    pub fn consecutive_misses(&self) -> u32 {
        self.consecutive
    }

    /// Whether the window currently violates the constraint.
    pub fn is_violated(&self) -> bool {
        self.in_window >= self.misses
    }

    /// Distance to violation: further misses absorbed before the
    /// constraint breaks (0 when already violated).
    pub fn margin(&self) -> u32 {
        self.misses.saturating_sub(self.in_window)
    }

    /// The verdict for the current window without recording anything.
    pub fn verdict(&self) -> WindowVerdict {
        WindowVerdict {
            violated: self.is_violated(),
            misses_in_window: self.in_window,
            margin: self.margin(),
            consecutive_misses: self.consecutive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_misses_within_the_window() {
        let mut w = WeaklyHard::new(4, 16);
        for i in 0..16 {
            let v = w.record(i % 2 == 0);
            assert_eq!(v.violated, v.misses_in_window >= 4);
        }
        // Alternating stream holds 8 misses in a 16-window: violated.
        assert!(w.is_violated());
        assert_eq!(w.misses_in_window(), 8);
    }

    #[test]
    fn old_outcomes_fall_out_of_the_window() {
        let mut w = WeaklyHard::new(2, 4);
        w.record(true);
        w.record(false);
        w.record(false);
        w.record(false);
        assert_eq!(w.misses_in_window(), 1);
        w.record(false); // the original miss leaves the window
        assert_eq!(w.misses_in_window(), 0);
        assert_eq!(w.margin(), 2);
    }

    #[test]
    fn consecutive_is_m_equals_k() {
        let mut w = WeaklyHard::consecutive(3);
        assert!(!w.record(true).violated);
        assert!(!w.record(true).violated);
        assert!(!w.record(false).violated);
        assert!(!w.record(true).violated);
        assert!(!w.record(true).violated);
        let v = w.record(true);
        assert!(v.violated, "3 misses in a row violate");
        assert_eq!(v.consecutive_misses, 3);
    }

    #[test]
    fn reset_gives_a_clean_slate() {
        let mut w = WeaklyHard::new(2, 8);
        w.record(true);
        w.record(true);
        assert!(w.is_violated());
        w.reset();
        assert!(!w.is_violated());
        assert_eq!(w.observed(), 0);
        assert_eq!(w.margin(), 2);
        assert!(!w.record(true).violated, "old misses must not count");
    }

    #[test]
    fn windows_longer_than_64_are_supported() {
        let mut w = WeaklyHard::new(5, 200);
        for i in 0..1000u32 {
            w.record(i % 50 == 0);
        }
        // 200-window covers 4 misses (every 50th outcome): not violated.
        assert_eq!(w.misses_in_window(), 4);
        assert!(!w.is_violated());
    }

    #[test]
    fn record_hits_matches_explicit_hits() {
        let mut a = WeaklyHard::new(3, 10);
        let mut b = a.clone();
        for i in 0..7 {
            a.record(i % 3 == 0);
            b.record(i % 3 == 0);
        }
        a.record_hits(25);
        for _ in 0..25 {
            b.record(false);
        }
        assert_eq!(a, b);
        a.record(true);
        b.record(true);
        assert_eq!(a.verdict(), b.verdict());
    }

    #[test]
    #[should_panic(expected = "window_misses must be positive")]
    fn zero_misses_rejected() {
        WeaklyHard::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "window_misses must be at most window_cycles")]
    fn misses_above_window_rejected() {
        WeaklyHard::new(9, 8);
    }

    #[test]
    #[should_panic(expected = "window_cycles must be positive")]
    fn zero_window_rejected() {
        WeaklyHard::new(1, 0);
    }
}
