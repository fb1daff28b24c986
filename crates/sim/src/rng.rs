//! Reproducible random-number streams for simulation experiments.
//!
//! Every stochastic experiment in this workspace is parameterised by a single
//! `u64` master seed. [`RngStream`] wraps an in-repo xoshiro256++ core
//! (seeded through splitmix64, as Vigna recommends) and adds:
//!
//! * **forking** — [`RngStream::fork`] derives an independent child stream
//!   from a string label, so e.g. each node in a Monte-Carlo run owns its own
//!   stream and adding a node never perturbs the others' draws;
//! * the handful of **distributions** the dependability models need
//!   (exponential inter-arrival times, Bernoulli trials, uniform ranges),
//!   implemented by inverse transform so that nothing beyond `std` is
//!   required.
//!
//! The stream is **bit-stable**: the exact draw sequence for a given seed is
//! pinned by golden-value tests below, because every fault-injection
//! campaign and Monte-Carlo figure in this reproduction is defined by its
//! master seed. Changing the generator invalidates every recorded number,
//! so it must never happen silently.

use crate::time::SimDuration;

/// SplitMix64 step, used to hash labels and decorrelate fork seeds.
///
/// This is the standard finalizer from Vigna's `splitmix64`; it is a
/// bijection on `u64` with excellent avalanche behaviour, which is all that
/// seed derivation needs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_label(seed: u64, label: &str) -> u64 {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    for byte in label.bytes() {
        state ^= u64::from(byte);
        splitmix64(&mut state);
    }
    splitmix64(&mut state)
}

/// A seedable, forkable random stream.
///
/// # Examples
///
/// ```
/// use nlft_sim::rng::RngStream;
///
/// let mut root = RngStream::new(42);
/// let mut node_a = root.fork("node-a");
/// let mut node_b = root.fork("node-b");
/// // Independent streams: same label + seed always reproduces the same draws.
/// assert_ne!(node_a.next_u64(), node_b.next_u64());
/// assert_eq!(RngStream::new(42).fork("node-a").next_u64(),
///            RngStream::new(42).fork("node-a").next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    seed: u64,
    state: [u64; 4],
}

impl RngStream {
    /// Creates the root stream for a master seed.
    ///
    /// The four xoshiro256++ state words are expanded from the seed with
    /// consecutive splitmix64 outputs, which guarantees a non-zero state
    /// and decorrelates nearby seeds.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        RngStream { seed, state }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream from a label.
    ///
    /// Forking depends only on `(self.seed, label)` — not on how many values
    /// have been drawn from `self` — so components can be wired up in any
    /// order without perturbing each other's randomness.
    pub fn fork(&self, label: &str) -> RngStream {
        RngStream::new(hash_label(self.seed, label))
    }

    /// Derives an independent child stream from an index (e.g. replica id).
    pub fn fork_indexed(&self, label: &str, index: u64) -> RngStream {
        self.indexed_forks(label).at(index)
    }

    /// The streams [`fork_indexed`](RngStream::fork_indexed) derives under
    /// `label`, with the label hashed once: `indexed_forks(label).at(i)`
    /// equals `fork_indexed(label, i)`.
    pub fn indexed_forks(&self, label: &str) -> IndexedForks {
        IndexedForks(hash_label(self.seed, label))
    }

    /// Next raw 64-bit value (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits, the standard double-precision recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[low, high)`, debiased with Lemire's widening
    /// multiply so every value is exactly equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform_range(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range [{low}, {high})");
        let span = high - low;
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(span);
            if m as u64 >= threshold {
                return low + (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial: `true` with probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`; NaN counts as 0.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p.is_nan() || p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform_f64() < p
    }

    /// Exponentially distributed value with the given `rate` (events per
    /// unit), via inverse transform. Mean is `1/rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "exponential rate must be positive and finite, got {rate}"
        );
        // 1 - U is in (0, 1], so ln never sees zero.
        -(1.0 - self.uniform_f64()).ln() / rate
    }

    /// Exponentially distributed simulated duration, with `rate_per_hour`
    /// events per hour. This is the shape in which fault and repair rates
    /// appear in the paper (faults/hour, repairs/hour).
    pub fn exponential_hours(&mut self, rate_per_hour: f64) -> SimDuration {
        SimDuration::from_hours_f64(self.exponential(rate_per_hour))
    }

    /// Picks one index in `[0, weights.len())` with probability proportional
    /// to the weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "invalid weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weights sum to zero");
        let mut x = self.uniform_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1 // floating-point slack lands on the last bucket
    }
}

/// The child streams of one [`RngStream`] under one fork label, by
/// index; built by [`RngStream::indexed_forks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedForks(u64);

impl IndexedForks {
    /// The stream `fork_indexed(label, index)`.
    pub fn at(&self, index: u64) -> RngStream {
        let mut state = self.0 ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        RngStream::new(splitmix64(&mut state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values: the raw stream for seed 42 is pinned bit-for-bit.
    /// Every campaign figure in EXPERIMENTS.md is defined by a master
    /// seed, so the generator must never change silently — if this test
    /// fails, the change invalidates all recorded numbers and must be
    /// called out loudly in the changelog instead.
    #[test]
    fn golden_raw_stream_seed_42() {
        let mut s = RngStream::new(42);
        let draws: [u64; 4] = std::array::from_fn(|_| s.next_u64());
        assert_eq!(
            draws, GOLDEN_SEED_42,
            "xoshiro256++ stream for seed 42 changed"
        );
    }

    const GOLDEN_SEED_42: [u64; 4] = [
        0xD076_4D4F_4476_689F,
        0x519E_4174_576F_3791,
        0xFBE0_7CFB_0C24_ED8C,
        0xB37D_9F60_0CD8_35B8,
    ];

    /// Golden values: forking and the derived distributions are pinned.
    #[test]
    fn golden_fork_and_distributions() {
        let root = RngStream::new(0x2005_0D5A);
        let mut node = root.fork("node-a");
        assert_eq!(node.next_u64(), GOLDEN_FORK);
        let mut idx = root.fork_indexed("replication", 3);
        assert_eq!(idx.uniform_range(0, 1_000_000), GOLDEN_RANGE);
        let mut dist = root.fork("dist");
        assert_eq!(dist.uniform_f64().to_bits(), GOLDEN_F64_BITS);
        assert_eq!(dist.exponential(2.5).to_bits(), GOLDEN_EXP_BITS);
    }

    const GOLDEN_FORK: u64 = 0x564C_8A8D_5047_4482;
    const GOLDEN_RANGE: u64 = 887_492;
    const GOLDEN_F64_BITS: u64 = 0x3FE8_2519_0BD6_503C;
    const GOLDEN_EXP_BITS: u64 = 0x3FE9_4BA3_D477_175A;

    /// Prints the golden constants; run with
    /// `cargo test -p nlft-sim print_golden -- --ignored --nocapture`
    /// after an intentional generator change, and paste the output above.
    #[test]
    #[ignore = "generator for the golden constants, not a check"]
    fn print_golden() {
        let mut s = RngStream::new(42);
        let draws: Vec<String> = (0..4).map(|_| format!("{:#018X}", s.next_u64())).collect();
        println!("const GOLDEN_SEED_42: [u64; 4] = [{}];", draws.join(", "));
        let root = RngStream::new(0x2005_0D5A);
        println!(
            "const GOLDEN_FORK: u64 = {:#018X};",
            root.fork("node-a").next_u64()
        );
        println!(
            "const GOLDEN_RANGE: u64 = {};",
            root.fork_indexed("replication", 3)
                .uniform_range(0, 1_000_000)
        );
        let mut dist = root.fork("dist");
        println!(
            "const GOLDEN_F64_BITS: u64 = {:#018X};",
            dist.uniform_f64().to_bits()
        );
        println!(
            "const GOLDEN_EXP_BITS: u64 = {:#018X};",
            dist.exponential(2.5).to_bits()
        );
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::new(7);
        let mut b = RngStream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_order_independent() {
        let root = RngStream::new(99);
        let mut f1 = root.fork("x");
        let _ = root.fork("y");
        let mut f2 = RngStream::new(99).fork("x");
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn fork_indexed_distinguishes_indices() {
        let root = RngStream::new(1);
        let a = root.fork_indexed("node", 0).next_u64();
        let b = root.fork_indexed("node", 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut s = RngStream::new(3);
        for _ in 0..10_000 {
            let u = s.uniform_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut s = RngStream::new(11);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| s.exponential(rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "sample mean {mean} far from {}",
            1.0 / rate
        );
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut s = RngStream::new(5);
        assert!(!s.bernoulli(0.0));
        assert!(s.bernoulli(1.0));
        assert!(!s.bernoulli(f64::NAN));
        assert!(!s.bernoulli(-0.5));
        assert!(s.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut s = RngStream::new(13);
        let hits = (0..100_000).filter(|_| s.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "frequency {freq}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut s = RngStream::new(17);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[s.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight bucket must never be drawn");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        RngStream::new(1).exponential(0.0);
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn weighted_index_rejects_all_zero() {
        RngStream::new(1).weighted_index(&[0.0, 0.0]);
    }

    #[test]
    fn exponential_hours_produces_duration() {
        let mut s = RngStream::new(23);
        // With rate 1e-4 per hour the mean is 1e4 hours; a single draw is
        // overwhelmingly likely to be positive and below 1e6 hours (u64 safe).
        let d = s.exponential_hours(1e-4);
        assert!(d > SimDuration::ZERO);
    }
}
