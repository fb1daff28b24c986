//! The committed bench trajectory: snapshotting `BENCH_*.json` artifacts
//! into one `BENCH_BASELINE.json`, and comparing a fresh run against it.
//!
//! The baseline serves two different promises and treats them differently:
//!
//! * **Timings** (the fastest sample's ns per iteration, `min_ns`) are
//!   hardware-dependent, so the comparison is *fail-soft*: slowdowns
//!   beyond a threshold produce prominent warnings in the report, never
//!   a failure. The minimum rather than the median is compared because
//!   scheduler and cache noise on a shared host only ever adds time: the
//!   median of ten samples drifts with the host's load, while the
//!   fastest sample stays near the code's true cost.
//! * **Golden results** (a CRC-32 digest over the bit-exact Figure 12
//!   reliability curves) are hardware-independent, so any drift is a hard
//!   failure — an optimisation that changes a single output bit is a bug,
//!   not a regression to tolerate.
//!
//! Driven by the `bench_compare` binary; `scripts/verify.sh` runs the
//! compare after the bench step.

use std::fmt::Write as _;

use nlft_testkit::json::Json;

use crate::fig12;

/// Baseline file schema version (bump on layout changes).
pub(crate) const SCHEMA: u64 = 1;

/// Warn when a benchmark's minimum slows down by more than this factor.
pub const SLOWDOWN_WARN_RATIO: f64 = 1.25;

/// CRC-32 digest over the bit-exact Figure 12 curves (labels, every
/// `(t, R(t))` point and the MTTF, all f64s taken as raw bits). Any
/// change to the analytic pipeline — intended or not — moves this digest.
pub(crate) fn golden_digest() -> u32 {
    let mut bytes = Vec::new();
    for curve in fig12::generate() {
        bytes.extend_from_slice(curve.label.as_bytes());
        bytes.push(0);
        for (t, r) in &curve.points {
            bytes.extend_from_slice(&t.to_bits().to_le_bytes());
            bytes.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&curve.mttf_years.to_bits().to_le_bytes());
    }
    nlft_sim::crc::crc32(&bytes)
}

/// Merges per-group bench reports (the parsed contents of the
/// `BENCH_<group>.json` files) into one baseline document. Groups are
/// sorted by name so the committed artifact diffs stably.
pub fn merge_baseline(mut groups: Vec<Json>) -> Json {
    groups.sort_by(|a, b| {
        let name = |j: &Json| j.get("group").and_then(|g| g.as_str().map(String::from));
        name(a).cmp(&name(b))
    });
    Json::obj([
        ("schema", Json::from(SCHEMA)),
        (
            "golden",
            Json::obj([("fig12_crc32", Json::from(u64::from(golden_digest())))]),
        ),
        ("groups", Json::Arr(groups)),
    ])
}

/// One benchmark's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// `group/name` of the benchmark.
    pub key: String,
    /// Baseline minimum (ns per iteration).
    pub baseline_ns: f64,
    /// Fresh minimum (ns per iteration), `None` when the benchmark was not
    /// re-run.
    pub current_ns: Option<f64>,
}

impl Delta {
    /// `current / baseline`; `None` without a fresh measurement.
    pub fn ratio(&self) -> Option<f64> {
        self.current_ns.map(|c| c / self.baseline_ns)
    }

    /// `true` when the slowdown exceeds [`SLOWDOWN_WARN_RATIO`].
    pub fn slow(&self) -> bool {
        self.ratio().is_some_and(|r| r > SLOWDOWN_WARN_RATIO)
    }
}

/// The outcome of comparing a fresh bench run against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-benchmark timing deltas, in baseline order.
    pub deltas: Vec<Delta>,
    /// Golden digest recorded in the baseline, if present.
    pub baseline_digest: Option<u64>,
    /// Golden digest of the current build.
    pub current_digest: u32,
}

impl Comparison {
    /// `true` when the current build reproduces the baseline's golden
    /// results bit for bit (vacuously true for baselines without one).
    pub fn golden_ok(&self) -> bool {
        self.baseline_digest
            .is_none_or(|d| d == u64::from(self.current_digest))
    }

    /// Human-readable report: one line per benchmark plus a verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .deltas
            .iter()
            .map(|d| d.key.len())
            .max()
            .unwrap_or(0)
            .max(9);
        let _ = writeln!(
            out,
            "{:<width$} {:>12} {:>12} {:>7}",
            "benchmark", "baseline", "current", "ratio"
        );
        for d in &self.deltas {
            match d.current_ns {
                Some(c) => {
                    let ratio = d.ratio().expect("current present");
                    let flag = if d.slow() { "  SLOWER" } else { "" };
                    let _ = writeln!(
                        out,
                        "{:<width$} {:>12} {:>12} {:>6.2}x{}",
                        d.key,
                        fmt_ns(d.baseline_ns),
                        fmt_ns(c),
                        ratio,
                        flag
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{:<width$} {:>12} {:>12}   (not re-run)",
                        d.key,
                        fmt_ns(d.baseline_ns),
                        "-"
                    );
                }
            }
        }
        let slow = self.deltas.iter().filter(|d| d.slow()).count();
        if slow > 0 {
            let _ = writeln!(
                out,
                "WARNING: {slow} benchmark(s) slower than baseline by >{:.0}% \
                 (timing comparison is advisory, not failing)",
                (SLOWDOWN_WARN_RATIO - 1.0) * 100.0
            );
        }
        match self.baseline_digest {
            Some(d) if d == u64::from(self.current_digest) => {
                let _ = writeln!(out, "golden fig12 digest: match ({:#010x})", d);
            }
            Some(d) => {
                let _ = writeln!(
                    out,
                    "ERROR: golden fig12 digest drift: baseline {:#010x}, current {:#010x}",
                    d, self.current_digest
                );
            }
            None => {
                let _ = writeln!(out, "baseline has no golden digest (pre-trajectory)");
            }
        }
        out
    }
}

/// Compares a baseline document against freshly produced per-group
/// reports. Benchmarks present in the baseline but absent from the fresh
/// set are reported as not re-run (the bench step may only exercise a
/// subset of groups).
pub fn compare(baseline: &Json, fresh_groups: &[Json]) -> Comparison {
    let mut deltas = Vec::new();
    for group in baseline.get("groups").and_then(Json::as_arr).unwrap_or(&[]) {
        let gname = group.get("group").and_then(Json::as_str).unwrap_or("?");
        for bench in group
            .get("benchmarks")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let name = bench.get("name").and_then(Json::as_str).unwrap_or("?");
            let Some(base_ns) = bench.get("min_ns").and_then(Json::as_f64) else {
                continue;
            };
            deltas.push(Delta {
                key: format!("{gname}/{name}"),
                baseline_ns: base_ns,
                current_ns: lookup(fresh_groups, gname, name),
            });
        }
    }
    Comparison {
        deltas,
        baseline_digest: baseline
            .get("golden")
            .and_then(|g| g.get("fig12_crc32"))
            .and_then(Json::as_f64)
            .map(|v| v as u64),
        current_digest: golden_digest(),
    }
}

fn lookup(groups: &[Json], group: &str, name: &str) -> Option<f64> {
    groups
        .iter()
        .find(|g| g.get("group").and_then(Json::as_str) == Some(group))?
        .get("benchmarks")
        .and_then(Json::as_arr)?
        .iter()
        .find(|b| b.get("name").and_then(Json::as_str) == Some(name))?
        .get("min_ns")
        .and_then(Json::as_f64)
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
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

    /// A group report; each benchmark is `(name, min_ns, median_ns)`.
    fn group(name: &str, benches: &[(&str, f64, f64)]) -> Json {
        Json::obj([
            ("group", Json::from(name)),
            (
                "benchmarks",
                Json::arr(benches.iter().map(|&(n, min, median)| {
                    Json::obj([
                        ("name", Json::from(n)),
                        ("min_ns", Json::from(min)),
                        ("median_ns", Json::from(median)),
                    ])
                })),
            ),
        ])
    }

    #[test]
    fn golden_digest_is_stable_within_a_build() {
        assert_eq!(golden_digest(), golden_digest());
    }

    #[test]
    fn merge_sorts_groups_and_embeds_digest() {
        let doc = merge_baseline(vec![group("net", &[]), group("machine", &[])]);
        let names: Vec<_> = doc
            .get("groups")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|g| g.get("group").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["machine", "net"]);
        assert_eq!(doc.get("schema").unwrap().as_f64(), Some(SCHEMA as f64));
        let digest = doc.get("golden").unwrap().get("fig12_crc32").unwrap();
        assert_eq!(digest.as_f64(), Some(f64::from(golden_digest())));
    }

    #[test]
    fn compare_flags_slowdowns_and_missing_benches() {
        let baseline = merge_baseline(vec![group(
            "machine",
            &[
                ("fast", 100.0, 110.0),
                ("slow", 100.0, 110.0),
                ("noisy", 100.0, 110.0),
                ("gone", 100.0, 110.0),
            ],
        )]);
        let fresh = [group(
            "machine",
            &[
                ("fast", 90.0, 95.0),
                ("slow", 200.0, 210.0),
                ("noisy", 101.0, 400.0),
            ],
        )];
        let cmp = compare(&baseline, &fresh);
        assert_eq!(cmp.deltas.len(), 4);
        assert!(!cmp.deltas[0].slow(), "speedup is not a warning");
        assert!(cmp.deltas[1].slow(), "2x slowdown must warn");
        assert_eq!(cmp.deltas[2].current_ns, Some(101.0), "minimum compared");
        assert!(!cmp.deltas[2].slow(), "a noisy median alone is no warning");
        assert_eq!(cmp.deltas[3].current_ns, None);
        assert!(cmp.golden_ok(), "same build reproduces its own digest");
        let report = cmp.render();
        assert!(report.contains("SLOWER"), "{report}");
        assert!(report.contains("not re-run"), "{report}");
        assert!(report.contains("digest: match"), "{report}");
    }

    #[test]
    fn compare_detects_golden_drift() {
        let mut baseline = merge_baseline(vec![]);
        // Corrupt the recorded digest.
        if let Json::Obj(fields) = &mut baseline {
            for (k, v) in fields.iter_mut() {
                if k == "golden" {
                    *v = Json::obj([("fig12_crc32", Json::from(0u64))]);
                }
            }
        }
        let cmp = compare(&baseline, &[]);
        assert!(!cmp.golden_ok());
        assert!(cmp.render().contains("digest drift"));
    }

    #[test]
    fn baseline_without_digest_is_tolerated() {
        let baseline = Json::obj([("groups", Json::arr([]))]);
        let cmp = compare(&baseline, &[]);
        assert!(cmp.golden_ok(), "vacuous pass for pre-trajectory baselines");
        assert!(cmp.render().contains("no golden digest"));
    }
}
