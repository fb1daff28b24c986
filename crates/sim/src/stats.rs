//! Online statistics for simulation output analysis.
//!
//! The Monte-Carlo dependability experiments need three things: running
//! moments with confidence intervals ([`OnlineStats`]), binomial proportion
//! intervals for pass/fail outcome counts ([`Proportion`]), and an empirical
//! survival-curve estimator for reliability-versus-time plots
//! ([`SurvivalCurve`]). A fixed-bin [`Histogram`] rounds out the toolkit for
//! latency-style distributions (e.g. recovery times).

use std::fmt;

/// Two-sided confidence level for interval estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Confidence {
    /// 90% two-sided interval (z = 1.6449).
    C90,
    /// 95% two-sided interval (z = 1.9600).
    #[default]
    C95,
    /// 99% two-sided interval (z = 2.5758).
    C99,
}

impl Confidence {
    /// The standard-normal quantile for the two-sided level.
    pub fn z(self) -> f64 {
        match self {
            Confidence::C90 => 1.644_853_626_951,
            Confidence::C95 => 1.959_963_984_540,
            Confidence::C99 => 2.575_829_303_549,
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Confidence::C90 => write!(f, "90%"),
            Confidence::C95 => write!(f, "95%"),
            Confidence::C99 => write!(f, "99%"),
        }
    }
}

/// Welford online mean/variance accumulator.
///
/// # Examples
///
/// ```
/// use nlft_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n-1` denominator); 0 with fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Raw accumulator state `(count, mean, m2, min, max)`, for
    /// checkpoint serialisation. Round-trips exactly through
    /// [`OnlineStats::from_raw`].
    pub fn to_raw(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`OnlineStats::to_raw`] output.
    pub fn from_raw(raw: (u64, f64, f64, f64, f64)) -> Self {
        let (count, mean, m2, min, max) = raw;
        OnlineStats {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Binomial proportion estimate with Wilson score intervals.
///
/// Used for coverage/outcome probabilities estimated from fault-injection
/// campaigns (e.g. "90.3% of injected transients were masked").
///
/// # Examples
///
/// ```
/// use nlft_sim::stats::{Proportion, Confidence};
///
/// let mut p = Proportion::new();
/// for i in 0..1000 { p.record(i % 10 != 0); } // 90% successes
/// assert!((p.estimate() - 0.9).abs() < 1e-12);
/// let (lo, hi) = p.wilson_interval(Confidence::C95);
/// assert!(lo < 0.9 && 0.9 < hi);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

impl Proportion {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Proportion::default()
    }

    /// Creates a counter from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    pub fn from_counts(successes: u64, trials: u64) -> Self {
        assert!(successes <= trials, "successes exceed trials");
        Proportion { successes, trials }
    }

    /// Records one Bernoulli outcome.
    pub fn record(&mut self, success: bool) {
        self.trials += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of recorded successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Point estimate `successes / trials`; 0 when empty.
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Wilson score interval — well behaved even at p near 0 or 1, where the
    /// naive normal interval collapses.
    pub fn wilson_interval(&self, level: Confidence) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.estimate();
        let z = level.z();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Proportion) {
        self.successes += other.successes;
        self.trials += other.trials;
    }
}

/// Fixed-width-bin histogram over `[low, high)` with overflow/underflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`, either bound is non-finite, or `bins == 0`.
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low < high, "low must be below high");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            low,
            high,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let frac = (x - self.low) / (self.high - self.low);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw bin counts (excludes under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Lower bound of the binned range.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper (exclusive) bound of the binned range.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Rebuilds a histogram from raw state (checkpoint deserialisation).
    ///
    /// # Panics
    ///
    /// Panics on an invalid grid (see [`Histogram::new`]) or if `count`
    /// does not equal the sum of all bins plus under/overflow.
    pub fn from_raw(
        low: f64,
        high: f64,
        bins: Vec<u64>,
        underflow: u64,
        overflow: u64,
        count: u64,
    ) -> Self {
        let mut h = Histogram::new(low, high, bins.len());
        let total = bins
            .iter()
            .fold(underflow.saturating_add(overflow), |t, &b| {
                t.saturating_add(b)
            });
        assert_eq!(total, count, "histogram count inconsistent with bins");
        h.bins = bins;
        h.underflow = underflow;
        h.overflow = overflow;
        h.count = count;
        h
    }

    /// Merges another histogram collected over the identical bin grid.
    ///
    /// All counters add saturating, so two near-full under/overflow
    /// counters degrade to `u64::MAX` instead of wrapping.
    ///
    /// # Panics
    ///
    /// Panics if the bin grids differ (bounds compared bit-for-bit,
    /// same bin count).
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.low.to_bits() == other.low.to_bits()
                && self.high.to_bits() == other.high.to_bits()
                && self.bins.len() == other.bins.len(),
            "histogram bin grids differ: [{}, {}) x{} vs [{}, {}) x{}",
            self.low,
            self.high,
            self.bins.len(),
            other.low,
            other.high,
            other.bins.len()
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.saturating_add(*b);
        }
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.count = self.count.saturating_add(other.count);
    }
}

/// Empirical survival (reliability) curve from observed failure times.
///
/// For a fixed mission grid `t_1 < … < t_k`, each Monte-Carlo replication
/// contributes either its failure time or "survived past the horizon". The
/// estimator at `t_i` is then simply the fraction of replications that
/// survive beyond `t_i` — every replication is observed for the full
/// horizon, so no censoring corrections are needed.
///
/// # Examples
///
/// ```
/// use nlft_sim::stats::SurvivalCurve;
///
/// let mut c = SurvivalCurve::new(vec![1.0, 2.0, 3.0]);
/// c.record_failure(1.5);
/// c.record_survivor();
/// assert_eq!(c.reliability(), vec![1.0, 0.5, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalCurve {
    grid: Vec<f64>,
    /// survivors[i] = number of replications alive strictly beyond grid[i].
    survivors: Vec<u64>,
    replications: u64,
}

impl SurvivalCurve {
    /// Creates a curve evaluated at the given strictly increasing time grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or not strictly increasing.
    pub fn new(grid: Vec<f64>) -> Self {
        assert!(!grid.is_empty(), "grid must not be empty");
        assert!(
            grid.windows(2).all(|w| w[0] < w[1]),
            "grid must be strictly increasing"
        );
        let n = grid.len();
        SurvivalCurve {
            grid,
            survivors: vec![0; n],
            replications: 0,
        }
    }

    /// Records a replication that failed at time `t`.
    pub fn record_failure(&mut self, t: f64) {
        self.replications += 1;
        for (i, &g) in self.grid.iter().enumerate() {
            if t > g {
                self.survivors[i] += 1;
            }
        }
    }

    /// Records a replication that survived the whole horizon.
    pub fn record_survivor(&mut self) {
        self.replications += 1;
        for s in &mut self.survivors {
            *s += 1;
        }
    }

    /// The evaluation grid.
    pub fn grid(&self) -> &[f64] {
        &self.grid
    }

    /// Number of replications recorded.
    pub fn replications(&self) -> u64 {
        self.replications
    }

    /// Raw survivor counts per grid point (checkpoint serialisation).
    pub fn survivors(&self) -> &[u64] {
        &self.survivors
    }

    /// Rebuilds a curve from raw state (checkpoint deserialisation).
    ///
    /// # Panics
    ///
    /// Panics on an invalid grid (see [`SurvivalCurve::new`]), a
    /// survivor vector of the wrong length, or any survivor count
    /// exceeding `replications`.
    pub fn from_raw(grid: Vec<f64>, survivors: Vec<u64>, replications: u64) -> Self {
        let mut c = SurvivalCurve::new(grid);
        assert_eq!(
            survivors.len(),
            c.grid.len(),
            "survivor vector length mismatch"
        );
        assert!(
            survivors.iter().all(|&s| s <= replications),
            "survivors exceed replications"
        );
        c.survivors = survivors;
        c.replications = replications;
        c
    }

    /// Estimated reliability at each grid point.
    ///
    /// All-ones when no replications have been recorded.
    pub fn reliability(&self) -> Vec<f64> {
        if self.replications == 0 {
            return vec![1.0; self.grid.len()];
        }
        self.survivors
            .iter()
            .map(|&s| s as f64 / self.replications as f64)
            .collect()
    }

    /// Wilson confidence band at each grid point.
    pub fn confidence_band(&self, level: Confidence) -> Vec<(f64, f64)> {
        self.survivors
            .iter()
            .map(|&s| Proportion::from_counts(s, self.replications).wilson_interval(level))
            .collect()
    }

    /// Merges another curve with the identical grid.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ.
    pub fn merge(&mut self, other: &SurvivalCurve) {
        assert_eq!(self.grid, other.grid, "survival grids differ");
        for (a, b) in self.survivors.iter_mut().zip(&other.survivors) {
            *a += b;
        }
        self.replications += other.replications;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.0, 2.5, -3.0, 4.0, 10.0, 0.5];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.record(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.record(x);
        }
        for &x in &data[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-10);
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(5.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn wilson_interval_contains_estimate_and_is_proper() {
        let p = Proportion::from_counts(9, 10);
        let (lo, hi) = p.wilson_interval(Confidence::C95);
        assert!(lo < 0.9 && 0.9 < hi);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        // Extreme case p = 1 stays bounded.
        let (lo1, hi1) = Proportion::from_counts(10, 10).wilson_interval(Confidence::C95);
        assert!(lo1 > 0.6 && hi1 <= 1.0);
    }

    #[test]
    fn wilson_interval_of_empty_is_vacuous() {
        assert_eq!(
            Proportion::new().wilson_interval(Confidence::C99),
            (0.0, 1.0)
        );
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.999, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        let mut combined = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.5, 3.0] {
            a.record(x);
            combined.record(x);
        }
        for x in [3.5, 9.9, 12.0, 42.0] {
            b.record(x);
            combined.record(x);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, combined);
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.underflow(), 1);
        assert_eq!(merged.overflow(), 2);
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.record(0.3);
        let before = a.clone();
        a.merge(&Histogram::new(0.0, 1.0, 4));
        assert_eq!(a, before);
        let mut empty = Histogram::new(0.0, 1.0, 4);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_merge_saturates_flows() {
        let mut a = Histogram::from_raw(0.0, 1.0, vec![0], u64::MAX - 1, u64::MAX, u64::MAX);
        let mut b = Histogram::new(0.0, 1.0, 1);
        b.record(-1.0);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.underflow(), u64::MAX);
        assert_eq!(a.overflow(), u64::MAX);
        assert_eq!(a.count(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "bin grids differ")]
    fn histogram_merge_rejects_mismatched_grid() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn raw_round_trips() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.5, -3.0] {
            s.record(x);
        }
        assert_eq!(OnlineStats::from_raw(s.to_raw()), s);

        let mut h = Histogram::new(-5.0, 5.0, 10);
        for x in [-9.0, -4.9, 0.0, 4.9, 5.0] {
            h.record(x);
        }
        let rebuilt = Histogram::from_raw(
            h.low(),
            h.high(),
            h.bins().to_vec(),
            h.underflow(),
            h.overflow(),
            h.count(),
        );
        assert_eq!(rebuilt, h);

        let mut c = SurvivalCurve::new(vec![1.0, 2.0]);
        c.record_failure(1.5);
        c.record_survivor();
        let rebuilt =
            SurvivalCurve::from_raw(c.grid().to_vec(), c.survivors().to_vec(), c.replications());
        assert_eq!(rebuilt, c);
    }

    #[test]
    fn survival_curve_basic() {
        let mut c = SurvivalCurve::new(vec![10.0, 20.0, 30.0]);
        c.record_failure(5.0); // fails before every grid point
        c.record_failure(25.0); // survives 10, 20
        c.record_survivor();
        let r = c.reliability();
        assert_eq!(r, vec![2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0]);
    }

    #[test]
    fn survival_failure_exactly_on_grid_point_counts_as_failed() {
        let mut c = SurvivalCurve::new(vec![10.0]);
        c.record_failure(10.0);
        assert_eq!(c.reliability(), vec![0.0]);
    }

    #[test]
    fn survival_merge_matches_combined() {
        let grid = vec![1.0, 2.0];
        let mut a = SurvivalCurve::new(grid.clone());
        let mut b = SurvivalCurve::new(grid.clone());
        a.record_failure(0.5);
        b.record_survivor();
        b.record_failure(1.5);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.replications(), 3);
        assert_eq!(merged.reliability(), vec![2.0 / 3.0, 1.0 / 3.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn survival_rejects_unsorted_grid() {
        SurvivalCurve::new(vec![2.0, 1.0]);
    }
}
