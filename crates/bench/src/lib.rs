//! # nlft-bench — experiment harnesses for every table and figure
//!
//! Each paper artifact has a generator function here returning plain data,
//! consumed by both the bench binaries (`benches/`) and the printable
//! harness binary (`src/bin/paper_figures.rs`). Keeping generation in a
//! library makes every number in EXPERIMENTS.md reproducible from one
//! entry point.
//!
//! | artifact | generator |
//! |----------|-----------|
//! | Figure 12 (system reliability, 1 year) | [`fig12::generate`] |
//! | Figure 13 (subsystem reliability)      | [`fig13::generate`] |
//! | Figure 14 (coverage × fault-rate sweep)| [`fig14::generate`] |
//! | Table 1 (EDM detection matrix)         | [`table1::generate`] |
//! | Monte-Carlo cross-check (extension)    | [`xcheck::generate`] |
//! | FT-RTA slack ablation (extension)      | [`rta::generate`] |
//!
//! The binaries share one command-line parser, [`cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod report;

/// Figure 12: BBW system reliability over one year, four configurations.
pub mod fig12 {
    use nlft_bbw::analytic::{BbwSystem, Functionality, Policy, HOURS_PER_YEAR};
    use nlft_bbw::params::BbwParams;
    use nlft_reliability::model::ReliabilityModel;
    use nlft_testkit::json::{Json, ToJson};

    /// One configuration's curve.
    #[derive(Debug, Clone)]
    pub struct Curve {
        /// Configuration label, e.g. `"NLFT/degraded"`.
        pub label: String,
        /// `(t_hours, reliability)` points.
        pub points: Vec<(f64, f64)>,
        /// Mean time to failure in years.
        pub mttf_years: f64,
    }

    impl ToJson for Curve {
        fn to_json(&self) -> Json {
            Json::obj([
                ("label", Json::from(self.label.as_str())),
                ("points", points_json(&self.points)),
                ("mttf_years", Json::from(self.mttf_years)),
            ])
        }
    }

    pub(crate) fn points_json(points: &[(f64, f64)]) -> Json {
        Json::Arr(points.iter().map(|&(a, b)| Json::pair(a, b)).collect())
    }

    /// The four paper configurations in presentation order.
    pub(crate) fn configurations() -> [(&'static str, Policy, Functionality); 4] {
        [
            ("FS/full", Policy::FailSilent, Functionality::Full),
            ("NLFT/full", Policy::Nlft, Functionality::Full),
            ("FS/degraded", Policy::FailSilent, Functionality::Degraded),
            ("NLFT/degraded", Policy::Nlft, Functionality::Degraded),
        ]
    }

    /// Generates the Fig. 12 curves on a monthly grid.
    pub fn generate() -> Vec<Curve> {
        let params = BbwParams::paper();
        let grid: Vec<f64> = (0..=12).map(|m| m as f64 * HOURS_PER_YEAR / 12.0).collect();
        configurations()
            .into_iter()
            .map(|(label, policy, functionality)| {
                let sys = BbwSystem::new(&params, policy, functionality);
                Curve {
                    label: label.to_string(),
                    points: grid.iter().map(|&t| (t, sys.reliability(t))).collect(),
                    mttf_years: sys.mttf_hours() / HOURS_PER_YEAR,
                }
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        /// Appends a label and a NUL, then the raw bits of `numbers`.
        fn put(bytes: &mut Vec<u8>, label: &str, numbers: impl IntoIterator<Item = f64>) {
            bytes.extend_from_slice(label.as_bytes());
            bytes.push(0);
            for x in numbers {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }

        fn flat(points: &[(f64, f64)]) -> impl Iterator<Item = f64> + '_ {
            points.iter().flat_map(|&(a, b)| [a, b])
        }

        /// The analytic figures, bit for bit: one CRC-32 per figure over
        /// its labels and the raw bits of every number it reports. Any
        /// change to the analytic pipeline or to `BbwParams::paper()`,
        /// down to one ulp, moves a digest. Fig. 14 reaches coverages and
        /// transient rates that Fig. 12 never evaluates.
        #[test]
        fn figure_digests_are_pinned() {
            let mut fig12 = Vec::new();
            for c in super::generate() {
                put(&mut fig12, &c.label, flat(&c.points).chain([c.mttf_years]));
            }
            let mut fig13 = Vec::new();
            for c in crate::fig13::generate() {
                put(&mut fig13, &c.label, flat(&c.points));
            }
            let mut fig14 = Vec::new();
            for s in crate::fig14::generate() {
                put(
                    &mut fig14,
                    &s.policy,
                    [s.coverage].into_iter().chain(flat(&s.points)),
                );
            }
            for (figure, bytes, pinned) in [
                ("Figure 12", fig12, 0x2099_0701),
                ("Figure 13", fig13, 0x60c3_8322),
                ("Figure 14", fig14, 0x2c06_4c92),
            ] {
                let digest = nlft_sim::crc::crc32(&bytes);
                assert_eq!(digest, pinned, "{figure} moved: digest {digest:#010x}");
            }
        }
    }
}

/// Figure 13: per-subsystem reliability over one year.
pub mod fig13 {
    use nlft_bbw::analytic::{BbwSystem, Functionality, Policy, HOURS_PER_YEAR};
    use nlft_bbw::params::BbwParams;
    use nlft_reliability::model::ReliabilityModel;
    use nlft_testkit::json::{Json, ToJson};

    /// One subsystem's curve.
    #[derive(Debug, Clone)]
    pub struct Curve {
        /// Subsystem label, e.g. `"CU duplex (NLFT)"`.
        pub label: String,
        /// `(t_hours, reliability)` points.
        pub points: Vec<(f64, f64)>,
    }

    impl ToJson for Curve {
        fn to_json(&self) -> Json {
            Json::obj([
                ("label", Json::from(self.label.as_str())),
                ("points", crate::fig12::points_json(&self.points)),
            ])
        }
    }

    /// Generates the Fig. 13 subsystem curves.
    pub fn generate() -> Vec<Curve> {
        let params = BbwParams::paper();
        let grid: Vec<f64> = (0..=12).map(|m| m as f64 * HOURS_PER_YEAR / 12.0).collect();
        let mut out = Vec::new();
        for (name, policy) in [("FS", Policy::FailSilent), ("NLFT", Policy::Nlft)] {
            let full = BbwSystem::new(&params, policy, Functionality::Full);
            let degraded = BbwSystem::new(&params, policy, Functionality::Degraded);
            out.push(Curve {
                label: format!("CU duplex ({name})"),
                points: grid
                    .iter()
                    .map(|&t| (t, full.central_unit().reliability(t)))
                    .collect(),
            });
            out.push(Curve {
                label: format!("WN full ({name})"),
                points: grid
                    .iter()
                    .map(|&t| (t, full.wheel_subsystem().reliability(t)))
                    .collect(),
            });
            out.push(Curve {
                label: format!("WN degraded ({name})"),
                points: grid
                    .iter()
                    .map(|&t| (t, degraded.wheel_subsystem().reliability(t)))
                    .collect(),
            });
        }
        out
    }
}

/// Figure 14: R(5 h) in degraded mode against the transient fault rate, for
/// several coverage values, FS vs NLFT.
pub mod fig14 {
    use nlft_bbw::analytic::{BbwSystem, Functionality, Policy};
    use nlft_bbw::params::BbwParams;
    use nlft_reliability::model::ReliabilityModel;
    use nlft_testkit::json::{Json, ToJson};

    /// Mission time the paper uses for this figure.
    pub const MISSION_HOURS: f64 = 5.0;

    /// One `(coverage, policy)` series over fault-rate multipliers.
    #[derive(Debug, Clone)]
    pub struct Series {
        /// Coverage `C_D` of the series.
        pub coverage: f64,
        /// `"FS"` or `"NLFT"`.
        pub policy: String,
        /// `(multiplier of λ_T, reliability at 5 h)` points.
        pub points: Vec<(f64, f64)>,
    }

    impl ToJson for Series {
        fn to_json(&self) -> Json {
            Json::obj([
                ("coverage", Json::from(self.coverage)),
                ("policy", Json::from(self.policy.as_str())),
                ("points", crate::fig12::points_json(&self.points)),
            ])
        }
    }

    /// Coverage values swept (paper shows a comparable spread).
    pub(crate) const COVERAGES: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

    /// Transient-rate multipliers swept (log scale).
    pub(crate) fn multipliers() -> Vec<f64> {
        (0..=6).map(|i| 10f64.powf(i as f64 * 0.5)).collect()
    }

    /// Generates the sweep.
    pub fn generate() -> Vec<Series> {
        let mut out = Vec::new();
        for &coverage in &COVERAGES {
            for (label, policy) in [("FS", Policy::FailSilent), ("NLFT", Policy::Nlft)] {
                let points = multipliers()
                    .into_iter()
                    .map(|m| {
                        let p = BbwParams::paper()
                            .with_coverage(coverage)
                            .with_transient_multiplier(m);
                        let sys = BbwSystem::new(&p, policy, Functionality::Degraded);
                        (m, sys.reliability(MISSION_HOURS))
                    })
                    .collect();
                out.push(Series {
                    coverage,
                    policy: label.to_string(),
                    points,
                });
            }
        }
        out
    }
}

/// Table 1: which mechanism detects which fault class, plus the parameter
/// estimates (`C_D`, `P_T`, `P_OM`, `P_FS`) from a fault-injection campaign.
pub mod table1 {
    use nlft_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
    use nlft_core::policy::NodePolicy;
    use nlft_engine::EngineConfig;

    /// Runs the campaign behind the table.
    pub fn generate(trials: u64, seed: u64, policy: NodePolicy) -> CampaignResult {
        let config = CampaignConfig::new(trials, seed, policy);
        run_campaign(&config, &EngineConfig::all_cores())
    }
}

/// Extension: Monte-Carlo cross-validation of the Fig. 12 curves.
pub mod xcheck {
    use nlft_bbw::analytic::{BbwSystem, Functionality, Policy};
    use nlft_bbw::montecarlo::{run_monte_carlo, MonteCarloConfig};
    use nlft_bbw::params::BbwParams;
    use nlft_engine::EngineConfig;
    use nlft_reliability::model::ReliabilityModel;
    use nlft_testkit::json::{Json, ToJson};

    /// One comparison row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Configuration label.
        pub label: String,
        /// Evaluation time (hours).
        pub t_hours: f64,
        /// Analytic reliability.
        pub analytic: f64,
        /// Monte-Carlo estimate.
        pub monte_carlo: f64,
        /// 95% Wilson band of the estimate.
        pub ci: (f64, f64),
    }

    impl ToJson for Row {
        fn to_json(&self) -> Json {
            Json::obj([
                ("label", Json::from(self.label.as_str())),
                ("t_hours", Json::from(self.t_hours)),
                ("analytic", Json::from(self.analytic)),
                ("monte_carlo", Json::from(self.monte_carlo)),
                ("ci", Json::pair(self.ci.0, self.ci.1)),
            ])
        }
    }

    /// Generates the cross-check table.
    pub fn generate(replications: u64, seed: u64) -> Vec<Row> {
        let grid = vec![2_000.0, 5_000.0, 8_760.0];
        let mut rows = Vec::new();
        for (label, policy, functionality) in [
            ("FS/degraded", Policy::FailSilent, Functionality::Degraded),
            ("NLFT/degraded", Policy::Nlft, Functionality::Degraded),
        ] {
            let mut cfg = MonteCarloConfig::one_year(policy, functionality, replications, seed);
            cfg.grid_hours = grid.clone();
            let mc = run_monte_carlo(&cfg, &EngineConfig::all_cores());
            let analytic = BbwSystem::new(&BbwParams::paper(), policy, functionality);
            let rel = mc.reliability();
            let bands = mc.curve.confidence_band(Default::default());
            for (i, &t) in grid.iter().enumerate() {
                rows.push(Row {
                    label: label.to_string(),
                    t_hours: t,
                    analytic: analytic.reliability(t),
                    monte_carlo: rel[i],
                    ci: bands[i],
                });
            }
        }
        rows
    }
}

/// Extension: ablations of the design choices — ECC memory and reserved
/// recovery slack — measured end to end (campaign → parameters → system
/// reliability).
pub mod ablation {
    use nlft_bbw::analytic::{BbwSystem, Functionality, Policy, HOURS_PER_YEAR};
    use nlft_bbw::params::BbwParams;
    use nlft_core::campaign::{run_campaign, CampaignConfig};
    use nlft_core::policy::NodePolicy;
    use nlft_engine::EngineConfig;
    use nlft_machine::fault::FaultSpace;
    use nlft_reliability::model::ReliabilityModel;
    use nlft_testkit::json::{Json, ToJson};

    /// One slack-pressure ablation row.
    #[derive(Debug, Clone)]
    pub struct SlackRow {
        /// Fraction of jobs with no recovery slack.
        pub tight_fraction: f64,
        /// Measured masking probability.
        pub p_t: f64,
        /// Measured omission probability.
        pub p_om: f64,
        /// System R(1 year) with the measured split plugged into the
        /// degraded-mode analytic model.
        pub r_one_year: f64,
    }

    impl ToJson for SlackRow {
        fn to_json(&self) -> Json {
            Json::obj([
                ("tight_fraction", Json::from(self.tight_fraction)),
                ("p_t", Json::from(self.p_t)),
                ("p_om", Json::from(self.p_om)),
                ("r_one_year", Json::from(self.r_one_year)),
            ])
        }
    }

    /// Sweeps deadline pressure: how much reliability does reserved slack
    /// buy? (§2.8's a-priori slack reservation, quantified end to end.)
    pub fn slack_pressure(trials: u64, seed: u64) -> Vec<SlackRow> {
        [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
            .into_iter()
            .map(|tight| {
                let mut cfg = CampaignConfig::new(trials, seed, NodePolicy::LightweightNlft);
                cfg.tight_deadline_fraction = tight;
                let r = run_campaign(&cfg, &EngineConfig::all_cores());
                let (p_t, p_om, p_fs) = (
                    r.counts.p_t().estimate(),
                    r.counts.p_om().estimate(),
                    r.counts.p_fs().estimate(),
                );
                let sum = (p_t + p_om + p_fs).max(1e-12);
                let mut params = BbwParams::paper();
                params.p_t = p_t / sum;
                params.p_om = p_om / sum;
                params.p_fs = p_fs / sum;
                let sys = BbwSystem::new(&params, Policy::Nlft, Functionality::Degraded);
                SlackRow {
                    tight_fraction: tight,
                    p_t,
                    p_om,
                    r_one_year: sys.reliability(HOURS_PER_YEAR),
                }
            })
            .collect()
    }

    /// One ECC ablation row.
    #[derive(Debug, Clone)]
    pub struct EccRow {
        /// Whether ECC was enabled.
        pub ecc: bool,
        /// Policy under test.
        pub policy: String,
        /// Measured coverage over a memory-inclusive fault space.
        pub coverage: f64,
        /// Faults with no observable effect.
        pub benign: u64,
        /// Undetected wrong outputs.
        pub undetected: u64,
    }

    impl ToJson for EccRow {
        fn to_json(&self) -> Json {
            Json::obj([
                ("ecc", Json::from(self.ecc)),
                ("policy", Json::from(self.policy.as_str())),
                ("coverage", Json::from(self.coverage)),
                ("benign", Json::from(self.benign)),
                ("undetected", Json::from(self.undetected)),
            ])
        }
    }

    /// Compares coverage with and without ECC memory under a fault space
    /// that includes memory words — Table 1's ECC row, ablated.
    pub fn ecc(trials: u64, seed: u64) -> Vec<EccRow> {
        let mut out = Vec::new();
        for policy in [NodePolicy::FailSilent, NodePolicy::LightweightNlft] {
            for ecc in [true, false] {
                let mut cfg = CampaignConfig::new(trials, seed, policy);
                cfg.space = FaultSpace::seu(nlft_machine::workloads::MEM_BYTES);
                cfg.ecc = ecc;
                let r = run_campaign(&cfg, &EngineConfig::all_cores());
                out.push(EccRow {
                    ecc,
                    policy: policy.to_string(),
                    coverage: r.counts.coverage().estimate(),
                    benign: r.counts.param_benign,
                    undetected: r.counts.param_undetected,
                });
            }
        }
        out
    }
}

/// Extension: fault-tolerant RTA slack ablation — the shortest tolerable
/// fault inter-arrival time as utilisation grows (§2.8).
pub mod rta {
    use nlft_kernel::analysis::{min_tolerable_fault_interval, tem_transform, TemCosts};
    use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};
    use nlft_sim::time::SimDuration;
    use nlft_testkit::json::{Json, ToJson};

    /// One ablation row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Single-copy utilisation of the task set.
        pub utilisation: f64,
        /// Utilisation after the TEM transformation (two copies + compare).
        pub tem_utilisation: f64,
        /// Shortest tolerable fault inter-arrival time (µs), `None` when
        /// even rare faults break a deadline.
        pub min_fault_interval_us: Option<u64>,
    }

    impl ToJson for Row {
        fn to_json(&self) -> Json {
            Json::obj([
                ("utilisation", Json::from(self.utilisation)),
                ("tem_utilisation", Json::from(self.tem_utilisation)),
                (
                    "min_fault_interval_us",
                    self.min_fault_interval_us.map_or(Json::Null, Json::from),
                ),
            ])
        }
    }

    /// A three-task set scaled to a target single-copy utilisation.
    pub fn task_set(utilisation: f64) -> TaskSet {
        // Base shape: periods 5/10/20 ms; WCETs scaled to hit `utilisation`.
        let scale = utilisation / 0.35; // base utilisation = 0.35
        let mk = |id: u32, prio: u32, period_us: u64, base_wcet_us: f64| {
            TaskSpecBuilder::new(TaskId(id), format!("t{id}"))
                .period(SimDuration::from_micros(period_us))
                .wcet(SimDuration::from_micros(
                    (base_wcet_us * scale).max(1.0) as u64
                ))
                .priority(Priority(prio))
                .criticality(Criticality::Critical)
                .build()
                .expect("valid task")
        };
        [
            mk(1, 0, 5_000, 500.0),    // U = 0.10 at base
            mk(2, 1, 10_000, 1_000.0), // U = 0.10 at base
            mk(3, 2, 20_000, 3_000.0), // U = 0.15 at base
        ]
        .into_iter()
        .collect()
    }

    /// Generates the ablation over single-copy utilisations.
    pub fn generate() -> Vec<Row> {
        let costs = TemCosts::nominal();
        [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
            .into_iter()
            .map(|u| {
                let set = task_set(u);
                let tem_set = tem_transform(&set, &costs);
                let min_tf =
                    min_tolerable_fault_interval(&tem_set, &costs, SimDuration::from_micros(10));
                Row {
                    utilisation: set.utilisation(),
                    tem_utilisation: tem_set.utilisation(),
                    min_fault_interval_us: min_tf.map(|d| d.as_micros()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig12_has_four_ordered_curves() {
        let curves = super::fig12::generate();
        assert_eq!(curves.len(), 4);
        for c in &curves {
            assert_eq!(c.points.len(), 13);
            assert!(
                (c.points[0].1 - 1.0).abs() < 1e-9,
                "{} starts at 1",
                c.label
            );
            assert!(c.mttf_years > 0.0);
        }
        let get = |label: &str| {
            curves
                .iter()
                .find(|c| c.label == label)
                .unwrap()
                .points
                .last()
                .unwrap()
                .1
        };
        assert!(get("NLFT/degraded") > get("FS/degraded"));
    }

    #[test]
    fn fig13_identifies_bottleneck() {
        let curves = super::fig13::generate();
        assert_eq!(curves.len(), 6);
        let last = |label: &str| {
            curves
                .iter()
                .find(|c| c.label == label)
                .unwrap()
                .points
                .last()
                .unwrap()
                .1
        };
        assert!(last("WN degraded (FS)") < last("CU duplex (FS)"));
    }

    #[test]
    fn fig14_series_monotone_in_coverage() {
        let series = super::fig14::generate();
        assert_eq!(series.len(), 8);
        let val = |cov: f64, pol: &str| {
            series
                .iter()
                .find(|s| s.coverage == cov && s.policy == pol)
                .unwrap()
                .points
                .last()
                .unwrap()
                .1
        };
        assert!(val(0.9999, "NLFT") > val(0.9, "NLFT"));
        assert!(val(0.9999, "FS") > val(0.9, "FS"));
    }

    #[test]
    fn rta_ablation_tightens_with_load() {
        let rows = super::rta::generate();
        assert!(rows.len() >= 6);
        let feasible: Vec<_> = rows
            .iter()
            .filter_map(|r| r.min_fault_interval_us.map(|v| (r.utilisation, v)))
            .collect();
        assert!(feasible.len() >= 2, "some configurations must be feasible");
        for w in feasible.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "higher load cannot tolerate faster faults: {w:?}"
            );
        }
    }

    #[test]
    fn slack_ablation_shows_omissions_rising() {
        let rows = super::ablation::slack_pressure(400, 7);
        assert_eq!(rows.len(), 6);
        let first = &rows[0];
        let last = rows.last().expect("nonempty");
        assert!(last.p_om > first.p_om, "pressure must raise omissions");
        assert!(last.p_t < first.p_t, "pressure must lower masking");
    }

    #[test]
    fn ecc_ablation_reports_both_configurations() {
        let rows = super::ablation::ecc(400, 9);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.ecc) && rows.iter().any(|r| !r.ecc));
    }

    #[test]
    fn table1_campaign_smoke() {
        let r = super::table1::generate(60, 99, nlft_core::policy::NodePolicy::LightweightNlft);
        assert_eq!(r.counts.trials, 60);
    }
}
