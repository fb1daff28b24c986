//! Fault-tolerant clock synchronization.
//!
//! A time-triggered bus only works if every node agrees what time it is —
//! TTP/C and FlexRay both run a fault-tolerant clock-sync service
//! underneath the TDMA schedule. This module simulates the classic
//! **fault-tolerant midpoint** algorithm (Welch–Lynch, as used by TTP/C):
//! every resync round each node reads every clock (with a bounded reading
//! error), discards the `k` highest and `k` lowest readings, and steps its
//! clock to the midpoint of the extremes of the remainder. With `n ≥ 3k+1`
//! nodes the skew stays bounded even when `k` clocks are Byzantine
//! (reporting arbitrary nonsense), which is exactly the guarantee the
//! paper's "network interface provides reliable transmission" assumption
//! leans on.

use nlft_sim::rng::RngStream;

/// Behaviour of one node's oscillator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockBehaviour {
    /// Normal clock with the given drift (parts per million, signed).
    Drifting {
        /// Oscillator drift in ppm.
        ppm: f64,
    },
    /// Byzantine clock running the classic *split* attack: it tells every
    /// reader a value close to the reader's own clock, biased up for half
    /// the readers and down for the other half — plausible enough to
    /// survive trimming, adversarial enough to drag the cluster apart.
    Byzantine,
}

/// Configuration of the synchronization simulation.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// One behaviour per node.
    pub clocks: Vec<ClockBehaviour>,
    /// Faulty clocks the midpoint must tolerate (`k`).
    pub tolerate: usize,
    /// Resync interval in microseconds of true time.
    pub resync_interval_us: f64,
    /// Bounded reading error `ε` in microseconds (message jitter).
    pub reading_error_us: f64,
}

impl SyncConfig {
    /// A TTP-like cluster: `n` clocks with ±`ppm` drifts, tolerating `k`.
    pub fn cluster(n: usize, max_ppm: f64, tolerate: usize, rng: &mut RngStream) -> Self {
        let clocks = (0..n)
            .map(|_| ClockBehaviour::Drifting {
                ppm: (rng.uniform_f64() * 2.0 - 1.0) * max_ppm,
            })
            .collect();
        SyncConfig {
            clocks,
            tolerate,
            resync_interval_us: 10_000.0, // 10 ms, a TTP-like round
            reading_error_us: 1.0,
        }
    }

    /// Overrides the resynchronisation interval `R` (µs). The drift term
    /// of the skew bound scales linearly with it.
    ///
    /// # Panics
    ///
    /// Panics unless `us` is finite and positive.
    pub fn with_resync_interval(mut self, us: f64) -> Self {
        assert!(
            us.is_finite() && us > 0.0,
            "resync interval must be positive"
        );
        self.resync_interval_us = us;
        self
    }

    /// Overrides the clock-reading error `ε` (µs) — the dominant term of
    /// the Welch–Lynch skew bound `4ε + 2ρR`.
    ///
    /// # Panics
    ///
    /// Panics unless `us` is finite and non-negative.
    pub fn with_reading_error(mut self, us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "reading error must be non-negative"
        );
        self.reading_error_us = us;
        self
    }
}

/// Result of a synchronization run.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncReport {
    /// Worst skew between any two *correct* clocks, per round (µs).
    pub max_skew_per_round: Vec<f64>,
    /// The theoretical bound `4ε + 2·ρ·R` for the configuration (µs).
    pub skew_bound_us: f64,
}

impl SyncReport {
    /// Largest skew observed after the initial convergence (from round 2).
    pub fn steady_state_skew(&self) -> f64 {
        self.max_skew_per_round
            .iter()
            .skip(2)
            .cloned()
            .fold(0.0, f64::max)
    }
}

/// Runs `rounds` resync rounds and reports the inter-clock skew.
///
/// Clocks start with offsets drawn in `[0, initial_offset_us)`.
///
/// # Panics
///
/// Panics unless `n ≥ 3k + 1` with at most `k` Byzantine clocks — below
/// that the algorithm's precondition is violated.
pub fn run(
    config: &SyncConfig,
    rounds: usize,
    initial_offset_us: f64,
    rng: &mut RngStream,
) -> SyncReport {
    let n = config.clocks.len();
    let byzantine = config
        .clocks
        .iter()
        .filter(|c| matches!(c, ClockBehaviour::Byzantine))
        .count();
    assert!(
        n > 3 * config.tolerate,
        "fault-tolerant midpoint needs n >= 3k+1 (n={n}, k={})",
        config.tolerate
    );
    assert!(
        byzantine <= config.tolerate,
        "more Byzantine clocks than tolerated"
    );
    run_unchecked(config, rounds, initial_offset_us, rng)
}

/// Runs the algorithm *without* the `n ≥ 3k+1` precondition check; the
/// tests use it to show why the bound matters.
fn run_unchecked(
    config: &SyncConfig,
    rounds: usize,
    initial_offset_us: f64,
    rng: &mut RngStream,
) -> SyncReport {
    let n = config.clocks.len();
    let k = config.tolerate;
    // offsets[i]: node i's clock minus true time, µs.
    let mut offsets: Vec<f64> = (0..n)
        .map(|_| rng.uniform_f64() * initial_offset_us)
        .collect();
    let mut report = SyncReport {
        max_skew_per_round: Vec::with_capacity(rounds),
        skew_bound_us: 4.0 * config.reading_error_us
            + 2.0 * max_drift(config) * 1e-6 * config.resync_interval_us,
    };

    for _ in 0..rounds {
        // 1. Drift for one interval.
        for (i, c) in config.clocks.iter().enumerate() {
            if let ClockBehaviour::Drifting { ppm } = c {
                offsets[i] += ppm * 1e-6 * config.resync_interval_us;
            }
        }

        // 2. Every correct node gathers readings of every clock and steps
        //    to the fault-tolerant midpoint.
        let mut new_offsets = offsets.clone();
        for (i, me) in config.clocks.iter().enumerate() {
            if matches!(me, ClockBehaviour::Byzantine) {
                continue;
            }
            let mut readings: Vec<f64> = (0..n)
                .map(|j| match config.clocks[j] {
                    ClockBehaviour::Drifting { .. } => {
                        // Reading of clock j relative to true time, with
                        // bounded measurement error.
                        offsets[j] + (rng.uniform_f64() * 2.0 - 1.0) * config.reading_error_us
                    }
                    ClockBehaviour::Byzantine => {
                        // Split attack: echo the reader's own clock with a
                        // reader-dependent bias several ε wide.
                        let bias = 8.0 * config.reading_error_us;
                        offsets[i] + if i % 2 == 0 { bias } else { -bias }
                    }
                })
                .collect();
            readings.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let trimmed = &readings[k..n - k];
            let midpoint = (trimmed[0] + trimmed[trimmed.len() - 1]) / 2.0;
            new_offsets[i] = midpoint;
        }
        offsets = new_offsets;

        // 3. Record the worst skew among correct clocks.
        let correct: Vec<f64> = config
            .clocks
            .iter()
            .zip(&offsets)
            .filter(|(c, _)| matches!(c, ClockBehaviour::Drifting { .. }))
            .map(|(_, &o)| o)
            .collect();
        let max = correct.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = correct.iter().cloned().fold(f64::INFINITY, f64::min);
        report.max_skew_per_round.push(max - min);
    }
    report
}

fn max_drift(config: &SyncConfig) -> f64 {
    config
        .clocks
        .iter()
        .map(|c| match c {
            ClockBehaviour::Drifting { ppm } => ppm.abs(),
            ClockBehaviour::Byzantine => 0.0,
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::new(0x51AC)
    }

    #[test]
    fn correct_cluster_converges_and_stays_tight() {
        let mut rng = rng();
        let config = SyncConfig::cluster(6, 50.0, 1, &mut rng);
        let report = run(&config, 50, 500.0, &mut rng);
        // Initial offsets span up to 500 µs; after resync the skew stays
        // within the theoretical bound (with a small numerical cushion),
        // two orders of magnitude below the starting spread.
        let steady = report.steady_state_skew();
        assert!(
            steady <= report.skew_bound_us * 1.5,
            "steady skew {steady} vs bound {}",
            report.skew_bound_us
        );
        assert!(
            steady < 50.0,
            "far below the 500 µs initial spread: {steady}"
        );
    }

    #[test]
    fn one_byzantine_clock_is_tolerated_with_four_nodes() {
        let mut r = rng();
        let mut config = SyncConfig::cluster(4, 20.0, 1, &mut r);
        config.clocks[3] = ClockBehaviour::Byzantine;
        let report = run(&config, 60, 100.0, &mut r);
        let steady = report.steady_state_skew();
        assert!(
            steady <= report.skew_bound_us * 1.5,
            "Byzantine clock must not break precision: {steady} vs {}",
            report.skew_bound_us
        );
    }

    #[test]
    fn byzantine_clock_breaks_three_node_cluster() {
        // n = 3 < 3k+1 with k=1: the trimmed set still contains Byzantine
        // readings, so skew blows far past the bound.
        let mut r = rng();
        let mut config = SyncConfig::cluster(3, 20.0, 1, &mut r);
        config.clocks[2] = ClockBehaviour::Byzantine;
        let report = run_unchecked(&config, 60, 10.0, &mut r);
        let steady = report.steady_state_skew();
        // With only the median surviving the trim, the split attack's
        // plausible per-reader values steer each correct node apart:
        // precision degrades well past the bound that n = 4 respects.
        assert!(
            steady > report.skew_bound_us * 1.5,
            "with n < 3k+1 precision must degrade past the bound, got {steady} vs {}",
            report.skew_bound_us
        );
    }

    #[test]
    fn precondition_enforced() {
        let mut r = rng();
        let config = SyncConfig::cluster(3, 20.0, 1, &mut r);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&config, 5, 10.0, &mut r)
        }));
        assert!(result.is_err(), "n=3, k=1 must be rejected");
    }

    #[test]
    fn without_resync_drift_accumulates() {
        // Sanity: drifting clocks with a huge interval diverge linearly —
        // the reason resync exists. Fixed drifts for a deterministic bound.
        let mut r = rng();
        let config = SyncConfig {
            clocks: vec![
                ClockBehaviour::Drifting { ppm: 100.0 },
                ClockBehaviour::Drifting { ppm: -100.0 },
                ClockBehaviour::Drifting { ppm: 50.0 },
                ClockBehaviour::Drifting { ppm: -50.0 },
            ],
            tolerate: 1,
            resync_interval_us: 1e7, // 10 s between resyncs
            reading_error_us: 1.0,
        };
        let report = run(&config, 5, 0.0, &mut r);
        // Bound scales with the interval: 2·100ppm·10s = 2000 µs (+4ε).
        assert!(report.skew_bound_us > 2_000.0);
        assert!(report.steady_state_skew() <= report.skew_bound_us * 1.5);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut r1 = RngStream::new(9);
        let c1 = SyncConfig::cluster(5, 30.0, 1, &mut r1);
        let rep1 = run(&c1, 20, 50.0, &mut r1);
        let mut r2 = RngStream::new(9);
        let c2 = SyncConfig::cluster(5, 30.0, 1, &mut r2);
        let rep2 = run(&c2, 20, 50.0, &mut r2);
        assert_eq!(rep1, rep2);
    }

    #[test]
    fn builder_overrides_feed_the_skew_bound() {
        let mut rng = RngStream::new(11);
        let config = SyncConfig::cluster(4, 20.0, 1, &mut rng)
            .with_resync_interval(5_000.0)
            .with_reading_error(0.25);
        assert_eq!(config.resync_interval_us, 5_000.0);
        assert_eq!(config.reading_error_us, 0.25);
        let report = run(&config, 10, 10.0, &mut rng);
        // 4ε + 2·ρ_max·R with the overridden ε and R, where ρ_max is the
        // largest drift actually drawn for the cluster.
        let rho = config
            .clocks
            .iter()
            .map(|c| match c {
                ClockBehaviour::Drifting { ppm } => ppm.abs(),
                ClockBehaviour::Byzantine => 0.0,
            })
            .fold(0.0, f64::max);
        let expected = 4.0 * 0.25 + 2.0 * rho * 1e-6 * 5_000.0;
        assert!((report.skew_bound_us - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reading error")]
    fn negative_reading_error_rejected() {
        let mut rng = RngStream::new(1);
        let _ = SyncConfig::cluster(4, 20.0, 1, &mut rng).with_reading_error(-1.0);
    }

    #[test]
    #[should_panic(expected = "resync interval")]
    fn zero_resync_interval_rejected() {
        let mut rng = RngStream::new(1);
        let _ = SyncConfig::cluster(4, 20.0, 1, &mut rng).with_resync_interval(0.0);
    }
}
