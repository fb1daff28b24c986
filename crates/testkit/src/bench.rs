//! Wall-clock benchmark runner for `harness = false` bench binaries.
//!
//! The criterion replacement: each benchmark is warmed up, the iteration
//! count per sample is calibrated so one sample takes a few milliseconds,
//! then `samples` batches are timed and summarised as min / median / p95
//! per-iteration nanoseconds, printed one line per benchmark. Compare two
//! builds on `min`: noise on a shared host only ever adds time.
//!
//! `cargo bench` passes `--bench` to the binary; without that flag the
//! runner drops into *smoke mode* — every closure runs exactly once, so
//! the bench's own asserts run without burning CI time. Plain `cargo test`
//! does not run bench targets; `cargo test --benches` runs every one of
//! them in smoke mode.
//!
//! ```no_run
//! use nlft_testkit::bench::Bench;
//!
//! let mut b = Bench::new("fig12");
//! b.bench("build_system_model", || 2 + 2);
//! b.finish();
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target duration of one timed sample batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(4);
/// Warmup budget per benchmark before calibration is trusted.
const WARMUP: Duration = Duration::from_millis(60);
/// Default number of timed samples.
const DEFAULT_SAMPLES: usize = 30;
/// Cap on iterations per sample (pathologically fast routines).
const MAX_ITERS_PER_SAMPLE: u64 = 1 << 22;

/// Summary of one benchmark.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    /// Benchmark name within the group.
    pub name: String,
    /// Timed samples taken.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Fastest per-iteration time (ns).
    pub min_ns: f64,
    /// Median per-iteration time (ns).
    pub median_ns: f64,
    /// 95th-percentile per-iteration time (ns).
    pub p95_ns: f64,
    /// Optional elements processed per iteration (for throughput rates).
    pub elements: Option<u64>,
}

impl Record {
    /// The printed summary line of this benchmark in `group`.
    fn line(&self, group: &str) -> String {
        format!(
            "bench {group}/{}: min {} median {} p95 {} ({} samples x {} iters){}",
            self.name,
            fmt_ns(self.min_ns),
            fmt_ns(self.median_ns),
            fmt_ns(self.p95_ns),
            self.samples,
            self.iters_per_sample,
            self.elements
                .map(|e| format!(", {:.1} ns/elem", self.median_ns / e as f64))
                .unwrap_or_default(),
        )
    }
}

/// A benchmark group: the unit of reporting.
#[derive(Debug)]
pub struct Bench {
    group: String,
    full: bool,
    samples: usize,
    records: Vec<Record>,
}

impl Bench {
    /// Creates a group, reading the mode from the process arguments:
    /// `--bench` selects full measurement (what `cargo bench` passes),
    /// anything else means smoke mode; `--samples <n>` overrides the
    /// sample count.
    pub fn new(group: &str) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let full = args.iter().any(|a| a == "--bench");
        let samples = args
            .iter()
            .position(|a| a == "--samples")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SAMPLES);
        Bench {
            group: group.to_string(),
            full,
            samples: samples.max(2),
            records: Vec::new(),
        }
    }

    /// `true` when running under `cargo bench` (full measurement), `false`
    /// in smoke mode.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Measures `routine`.
    pub fn bench<T>(&mut self, name: &str, mut routine: impl FnMut() -> T) {
        self.run(name, None, &mut routine);
    }

    /// Measures `routine`, recording that each iteration processes
    /// `elements` items so the report can show a per-element rate.
    pub fn bench_throughput<T>(
        &mut self,
        name: &str,
        elements: u64,
        mut routine: impl FnMut() -> T,
    ) {
        self.run(name, Some(elements), &mut routine);
    }

    /// Measures `routine(setup())` where `setup` runs untimed before every
    /// iteration (the replacement for criterion's `iter_batched`).
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        if !self.full {
            black_box(routine(setup()));
            self.note_smoke(name);
            return;
        }
        // Setup cost forces sample-of-one timing: time each routine call
        // individually and treat every call as one sample batch.
        let mut times = Vec::with_capacity(self.samples);
        // Warmup.
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            black_box(routine(setup()));
        }
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            times.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        self.push_record(name, times, 1, None);
    }

    fn run<T>(&mut self, name: &str, elements: Option<u64>, routine: &mut impl FnMut() -> T) {
        if !self.full {
            black_box(routine());
            self.note_smoke(name);
            return;
        }
        // Calibration: double the batch size until one batch is long
        // enough to time reliably.
        let warm_start = Instant::now();
        let mut iters: u64 = 1;
        loop {
            let t = Self::time_batch(routine, iters);
            if t >= TARGET_SAMPLE || iters >= MAX_ITERS_PER_SAMPLE {
                break;
            }
            iters = iters.saturating_mul(2).min(MAX_ITERS_PER_SAMPLE);
        }
        // Spend the rest of the warmup budget at the final batch size so
        // caches and branch predictors settle before measurement.
        while warm_start.elapsed() < WARMUP {
            Self::time_batch(routine, iters);
        }
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Self::time_batch(routine, iters);
            times.push(t.as_secs_f64() * 1e9 / iters as f64);
        }
        self.push_record(name, times, iters, elements);
    }

    fn time_batch<T>(routine: &mut impl FnMut() -> T, iters: u64) -> Duration {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        t0.elapsed()
    }

    fn note_smoke(&self, name: &str) {
        println!("bench {}/{name}: ok (smoke mode, 1 iteration)", self.group);
    }

    fn push_record(
        &mut self,
        name: &str,
        mut per_iter_ns: Vec<f64>,
        iters_per_sample: u64,
        elements: Option<u64>,
    ) {
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = per_iter_ns.len();
        let record = Record {
            name: name.to_string(),
            samples: n,
            iters_per_sample,
            min_ns: per_iter_ns[0],
            median_ns: if n % 2 == 1 {
                per_iter_ns[n / 2]
            } else {
                (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
            },
            p95_ns: per_iter_ns[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1],
            elements,
        };
        println!("{}", record.line(&self.group));
        self.records.push(record);
    }

    /// Closes the group; in full mode prints how many benchmarks ran.
    pub fn finish(self) {
        if self.full {
            println!("\ngroup {}: {} benchmarks", self.group, self.records.len());
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_bench(group: &str) -> Bench {
        Bench {
            group: group.to_string(),
            full: true,
            samples: 5,
            records: Vec::new(),
        }
    }

    #[test]
    fn records_capture_ordering_stats() {
        let mut b = full_bench("unit");
        b.push_record("x", vec![5.0, 1.0, 3.0, 2.0, 4.0], 1, None);
        let r = &b.records[0];
        assert_eq!(r.min_ns, 1.0);
        assert_eq!(r.median_ns, 3.0);
        assert_eq!(r.p95_ns, 5.0);
    }

    #[test]
    fn even_sample_median_averages() {
        let mut b = full_bench("unit");
        b.push_record("x", vec![1.0, 2.0, 3.0, 4.0], 1, None);
        assert_eq!(b.records[0].median_ns, 2.5);
    }

    #[test]
    fn bench_measures_something() {
        let mut b = full_bench("unit");
        b.bench("count", || (0..100u64).sum::<u64>());
        assert_eq!(b.records.len(), 1);
        assert!(b.records[0].min_ns > 0.0);
        assert!(b.records[0].median_ns >= b.records[0].min_ns);
    }

    #[test]
    fn setup_variant_runs() {
        let mut b = full_bench("unit");
        b.samples = 3;
        b.bench_with_setup("sum", || vec![1u64; 64], |v| v.iter().sum::<u64>());
        assert_eq!(b.records[0].samples, 3);
    }

    #[test]
    fn report_line_leads_with_min() {
        let mut b = full_bench("unit");
        b.push_record("x", vec![1.0, 2.0, 3.0], 7, Some(10));
        assert_eq!(
            b.records[0].line("unit"),
            "bench unit/x: min 1.0 ns median 2.0 ns p95 3.0 ns (3 samples x 7 iters), 0.2 ns/elem"
        );
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut b = Bench {
            group: "unit".into(),
            full: false,
            samples: 5,
            records: Vec::new(),
        };
        let mut calls = 0u32;
        b.bench("once", || calls += 1);
        // One call in smoke mode, nothing recorded.
        assert_eq!(calls, 1);
        assert!(b.records.is_empty());
    }
}
