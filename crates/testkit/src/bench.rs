//! Wall-clock benchmark runner for `harness = false` bench binaries.
//!
//! The criterion replacement: each benchmark is warmed up, the iteration
//! count per sample is calibrated so one sample takes a few milliseconds,
//! then `samples` batches are timed and summarised as min / mean / median
//! / p95 per-iteration nanoseconds. `finish()` prints an aligned table and
//! writes a `BENCH_<group>.json` report next to the target directory.
//!
//! `cargo bench` passes `--bench` to the binary; without that flag (as
//! under `cargo test`, which also executes bench binaries) the runner
//! drops into *smoke mode* — every closure runs exactly once so the bench
//! stays compiled-and-correct without burning CI time.
//!
//! ```no_run
//! use nlft_testkit::bench::Bench;
//!
//! let mut b = Bench::new("fig12");
//! b.bench("build_system_model", || 2 + 2);
//! b.finish();
//! ```

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Json;

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
    /// Mean per-iteration time (ns).
    pub mean_ns: f64,
    /// Median per-iteration time (ns).
    pub median_ns: f64,
    /// 95th-percentile per-iteration time (ns).
    pub p95_ns: f64,
    /// Optional elements processed per iteration (for throughput rates).
    pub elements: Option<u64>,
}

impl Record {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::from(self.name.clone())),
            ("samples".to_string(), Json::from(self.samples)),
            (
                "iters_per_sample".to_string(),
                Json::from(self.iters_per_sample),
            ),
            ("min_ns".to_string(), Json::from(self.min_ns)),
            ("mean_ns".to_string(), Json::from(self.mean_ns)),
            ("median_ns".to_string(), Json::from(self.median_ns)),
            ("p95_ns".to_string(), Json::from(self.p95_ns)),
        ];
        if let Some(e) = self.elements {
            fields.push(("elements".to_string(), Json::from(e)));
        }
        Json::Obj(fields)
    }
}

/// A benchmark group: the unit of reporting (one table, one JSON file).
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
            mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
            median_ns: if n % 2 == 1 {
                per_iter_ns[n / 2]
            } else {
                (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2]) / 2.0
            },
            p95_ns: per_iter_ns[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1],
            elements,
        };
        println!(
            "bench {}/{}: median {} p95 {} ({} samples x {} iters){}",
            self.group,
            record.name,
            fmt_ns(record.median_ns),
            fmt_ns(record.p95_ns),
            record.samples,
            record.iters_per_sample,
            record
                .elements
                .map(|e| format!(", {:.1} ns/elem", record.median_ns / e as f64))
                .unwrap_or_default(),
        );
        self.records.push(record);
    }

    /// Prints the summary table and, in full mode, writes
    /// `BENCH_<group>.json` under `<target>/testkit/`.
    pub fn finish(self) {
        if !self.full {
            return;
        }
        println!("\ngroup {}: {} benchmarks", self.group, self.records.len());
        let report = Json::obj([
            ("group", Json::from(self.group.clone())),
            (
                "benchmarks",
                Json::Arr(self.records.iter().map(Record::to_json).collect()),
            ),
        ]);
        let path = artifact_path(&format!("BENCH_{}.json", self.group));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report.to_string()) {
            Ok(()) => println!("report written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Where a named artifact lands: `NLFT_BENCH_OUT` if set, otherwise
/// `<target>/testkit/` next to the running executable, falling back to
/// `./target/testkit/`. Benches use it for their `BENCH_<group>.json`
/// reports; campaigns and experiments can drop their own JSON next to
/// them through the same resolution rules.
pub fn artifact_path(file_name: &str) -> PathBuf {
    if let Ok(dir) = std::env::var("NLFT_BENCH_OUT") {
        return PathBuf::from(dir).join(file_name);
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors() {
            if dir.file_name().is_some_and(|n| n == "target") {
                return dir.join("testkit").join(file_name);
            }
        }
    }
    PathBuf::from("target").join("testkit").join(file_name)
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
        assert!((r.mean_ns - 3.0).abs() < 1e-12);
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
    fn json_report_shape() {
        let mut b = full_bench("unit");
        b.push_record("x", vec![1.0, 2.0, 3.0], 7, Some(10));
        let j = b.records[0].to_json().to_string();
        assert!(
            j.starts_with(r#"{"name":"x","samples":3,"iters_per_sample":7,"min_ns":1.0"#),
            "{j}"
        );
        assert!(j.contains(r#""elements":10"#));
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
