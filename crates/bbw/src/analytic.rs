//! The paper's analytic reliability models (§3.2), reconstructed.
//!
//! The paper prints the state sets of its Markov diagrams but not every
//! transition label; rates below are reconstructed from the §3.2.1 node
//! descriptions and §3.2.2 assumptions. Conventions (documented per model):
//!
//! * every **uncovered** error anywhere — rate `(λ_P+λ_T)(1−C_D)` per node —
//!   goes straight to system failure `F` (the paper's pessimistic
//!   assumption);
//! * FS nodes: every covered fault silences the node; NLFT nodes
//!   additionally mask covered transients with probability `P_T` (no
//!   transition), emit omissions with `P_OM` and fail silent with `P_FS`;
//! * while a subsystem is one node short, any non-masked fault on a
//!   remaining node is fatal: per-node rate `λ_P + λ_T` for FS and
//!   `λ_P + λ_T(1 − C_D·P_T)` for NLFT;
//! * the system (Fig. 5) fails when the central unit OR the wheel-node
//!   subsystem fails: `R_sys = R_CU · R_WN` under independence.

use std::sync::Arc;

use nlft_reliability::ctmc::{CtmcBuilder, CtmcError};
use nlft_reliability::faulttree::{FaultTreeBuilder, HierarchicalTree};
use nlft_reliability::model::{
    mttf_numeric, CoveredModel, CtmcReliability, Exponential, ReliabilityModel,
};

use crate::params::BbwParams;

/// Adds a transition unless its rate is zero (a zero rate means "no edge";
/// this arises for boundary parameters such as perfect coverage or a
/// degenerate `P_OM`/`P_FS` split).
fn transition_if_positive(
    b: &mut CtmcBuilder,
    from: nlft_reliability::ctmc::StateId,
    to: nlft_reliability::ctmc::StateId,
    rate: f64,
) {
    if rate > 0.0 {
        b.transition(from, to, rate).expect("positive finite rate");
    }
}

/// Node policy for the analytic models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Fail-silent nodes (Figs 6, 8, 9).
    FailSilent,
    /// Light-weight NLFT nodes (Figs 7, 10, 11).
    Nlft,
}

/// Functionality requirement on the wheel-node subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Functionality {
    /// All four wheel nodes must work.
    Full,
    /// At least three of four must work (degraded mode allowed).
    Degraded,
}

/// Central-unit subsystem model: a duplex pair (Fig. 6 for FS, Fig. 7 for
/// NLFT).
///
/// States (FS): `0` both up, `1` one permanently down, `2` one restarting
/// after a transient, `F` failed. NLFT adds state `3`: one node in an
/// omission-recovery window.
pub fn central_unit(params: &BbwParams, policy: Policy) -> CtmcReliability {
    params.validate().expect("valid parameters");
    let p = params;
    let mut b = CtmcBuilder::new();
    let s0 = b.state("both up");
    let s1 = b.state("one permanently down");
    let s2 = b.state("one restarting");
    let s3 = match policy {
        Policy::Nlft => Some(b.state("one in omission")),
        Policy::FailSilent => None,
    };
    let f = b.state("failure");

    // Both-up state: two nodes exposed.
    transition_if_positive(&mut b, s0, s1, 2.0 * p.lambda_p * p.coverage);
    transition_if_positive(&mut b, s0, f, 2.0 * p.uncovered_rate());
    match policy {
        Policy::FailSilent => {
            // Every covered transient silences the node for a restart.
            transition_if_positive(&mut b, s0, s2, 2.0 * p.lambda_t * p.coverage);
        }
        Policy::Nlft => {
            // Covered transients split: P_T masked (no transition),
            // P_FS restart, P_OM omission window.
            transition_if_positive(&mut b, s0, s2, 2.0 * p.lambda_t * p.coverage * p.p_fs);
            transition_if_positive(
                &mut b,
                s0,
                s3.expect("nlft"),
                2.0 * p.lambda_t * p.coverage * p.p_om,
            );
        }
    }

    // One-node-short states: the surviving node's non-masked faults are
    // fatal (a brake system cannot ride out its last CU pausing).
    let lone_fatal = match policy {
        Policy::FailSilent => p.total_fault_rate(),
        Policy::Nlft => p.nlft_unmasked_rate(),
    };
    transition_if_positive(&mut b, s1, f, lone_fatal);
    transition_if_positive(&mut b, s2, s0, p.mu_r);
    transition_if_positive(&mut b, s2, f, lone_fatal);
    if let Some(s3) = s3 {
        transition_if_positive(&mut b, s3, s0, p.mu_om);
        transition_if_positive(&mut b, s3, f, lone_fatal);
    }

    let n = match policy {
        Policy::FailSilent => 4,
        Policy::Nlft => 5,
    };
    let mut pi0 = vec![0.0; n];
    pi0[0] = 1.0;
    CtmcReliability::new(b.build(), pi0, vec![f])
}

/// Wheel-node subsystem (four simplex stations).
///
/// * **Full / FS** (Fig. 8): a series RBD of four exponential nodes; every
///   activated fault interrupts full functionality, so the per-node rate is
///   `λ_P + λ_T`. Expressed as a 2-state chain for a uniform interface.
/// * **Full / NLFT** (Fig. 10): 2-state chain, `0→F` at
///   `4(λ_P + λ_T(1 − C_D·P_T))` — masked transients preserve full
///   functionality.
/// * **Degraded / FS** (Fig. 9): states 0/1/2/F, repair `μ_R` from the
///   restarting state, second faults fatal at `3(λ_P+λ_T)`.
/// * **Degraded / NLFT** (Fig. 11): adds the omission state with repair
///   `μ_OM`; second faults fatal at `3(λ_P + λ_T(1−C_D·P_T))`.
pub fn wheel_subsystem(
    params: &BbwParams,
    policy: Policy,
    functionality: Functionality,
) -> CtmcReliability {
    params.validate().expect("valid parameters");
    let p = params;
    let mut b = CtmcBuilder::new();

    match functionality {
        Functionality::Full => {
            let s0 = b.state("all four up");
            let f = b.state("failure");
            let rate = match policy {
                Policy::FailSilent => 4.0 * p.total_fault_rate(),
                Policy::Nlft => 4.0 * p.nlft_unmasked_rate(),
            };
            transition_if_positive(&mut b, s0, f, rate);
            CtmcReliability::new(b.build(), vec![1.0, 0.0], vec![f])
        }
        Functionality::Degraded => {
            let s0 = b.state("all four up");
            let s1 = b.state("one permanently down");
            let s2 = b.state("one restarting");
            let s3 = match policy {
                Policy::Nlft => Some(b.state("one in omission")),
                Policy::FailSilent => None,
            };
            let f = b.state("failure");

            transition_if_positive(&mut b, s0, s1, 4.0 * p.lambda_p * p.coverage);
            transition_if_positive(&mut b, s0, f, 4.0 * p.uncovered_rate());
            match policy {
                Policy::FailSilent => {
                    transition_if_positive(&mut b, s0, s2, 4.0 * p.lambda_t * p.coverage);
                }
                Policy::Nlft => {
                    transition_if_positive(&mut b, s0, s2, 4.0 * p.lambda_t * p.coverage * p.p_fs);
                    transition_if_positive(
                        &mut b,
                        s0,
                        s3.expect("nlft"),
                        4.0 * p.lambda_t * p.coverage * p.p_om,
                    );
                }
            }

            // One wheel node down: three remain; a second non-masked fault
            // breaks the ≥3 requirement.
            let fatal = match policy {
                Policy::FailSilent => 3.0 * p.total_fault_rate(),
                Policy::Nlft => 3.0 * p.nlft_unmasked_rate(),
            };
            transition_if_positive(&mut b, s1, f, fatal);
            transition_if_positive(&mut b, s2, s0, p.mu_r);
            transition_if_positive(&mut b, s2, f, fatal);
            if let Some(s3) = s3 {
                transition_if_positive(&mut b, s3, s0, p.mu_om);
                transition_if_positive(&mut b, s3, f, fatal);
            }

            let n = match policy {
                Policy::FailSilent => 4,
                Policy::Nlft => 5,
            };
            let mut pi0 = vec![0.0; n];
            pi0[0] = 1.0;
            CtmcReliability::new(b.build(), pi0, vec![f])
        }
    }
}

/// A *single* station (one node, no partner) under a policy — the model
/// behind the paper's cost argument: "tolerating transient faults at the
/// node level may also reduce hardware costs, as fewer redundant nodes may
/// be required" (§1).
///
/// `omission_tolerant` decides whether short outage windows (restart /
/// omission states) count as survivable — §2.2 allows omissions in a
/// simplex configuration when the consumer can reuse a previous value or
/// ride out the delay. With tolerance, the station only *fails* on
/// permanent faults and uncovered errors (plus, for FS, nothing else;
/// NLFT masks change nothing here since masked transients were never
/// outages). Without tolerance, every non-masked event is fatal.
pub fn simplex_station(
    params: &BbwParams,
    policy: Policy,
    omission_tolerant: bool,
) -> CtmcReliability {
    params.validate().expect("valid parameters");
    let p = params;
    let mut b = CtmcBuilder::new();
    let s0 = b.state("up");
    if !omission_tolerant {
        // Strict service: first non-masked event of any kind is a failure.
        let f = b.state("failure");
        let rate = match policy {
            Policy::FailSilent => p.total_fault_rate(),
            Policy::Nlft => p.nlft_unmasked_rate(),
        };
        transition_if_positive(&mut b, s0, f, rate);
        return CtmcReliability::new(b.build(), vec![1.0, 0.0], vec![f]);
    }
    // Omission-tolerant: transient outages repair; permanents + uncovered kill.
    let s2 = b.state("restarting");
    let s3 = match policy {
        Policy::Nlft => Some(b.state("omission window")),
        Policy::FailSilent => None,
    };
    let f = b.state("failure");
    let fatal = p.lambda_p * p.coverage + p.uncovered_rate();
    transition_if_positive(&mut b, s0, f, fatal);
    match policy {
        Policy::FailSilent => {
            transition_if_positive(&mut b, s0, s2, p.lambda_t * p.coverage);
        }
        Policy::Nlft => {
            transition_if_positive(&mut b, s0, s2, p.lambda_t * p.coverage * p.p_fs);
            transition_if_positive(
                &mut b,
                s0,
                s3.expect("nlft"),
                p.lambda_t * p.coverage * p.p_om,
            );
        }
    }
    transition_if_positive(&mut b, s2, s0, p.mu_r);
    transition_if_positive(&mut b, s2, f, fatal);
    if let Some(s3) = s3 {
        transition_if_positive(&mut b, s3, s0, p.mu_om);
        transition_if_positive(&mut b, s3, f, fatal);
    }
    let n = match policy {
        Policy::FailSilent => 3,
        Policy::Nlft => 4,
    };
    let mut pi0 = vec![0.0; n];
    pi0[0] = 1.0;
    CtmcReliability::new(b.build(), pi0, vec![f])
}

/// The complete BBW system (Fig. 5): fault tree `F_sys = F_CU ∨ F_WN` over
/// the two subsystem models.
#[derive(Debug, Clone)]
pub struct BbwSystem {
    /// Policy used for all nodes.
    pub policy: Policy,
    /// Wheel-subsystem functionality requirement.
    pub functionality: Functionality,
    cu: Arc<CtmcReliability>,
    wn: Arc<CtmcReliability>,
    tree: HierarchicalTree,
}

impl BbwSystem {
    /// Builds the system model for a policy and functionality mode.
    pub fn new(params: &BbwParams, policy: Policy, functionality: Functionality) -> Self {
        let cu = Arc::new(central_unit(params, policy));
        let wn = Arc::new(wheel_subsystem(params, policy, functionality));
        let mut ft = FaultTreeBuilder::new();
        let cu_ev = ft.basic_event("central unit subsystem fails");
        let wn_ev = ft.basic_event("wheel node subsystem fails");
        let top = ft.or(vec![cu_ev, wn_ev]);
        let tree = HierarchicalTree::new(ft.build(top), vec![cu.clone() as _, wn.clone() as _]);
        BbwSystem {
            policy,
            functionality,
            cu,
            wn,
            tree,
        }
    }

    /// The central-unit subsystem model (for Fig. 13).
    pub fn central_unit(&self) -> &CtmcReliability {
        &self.cu
    }

    /// The wheel-node subsystem model (for Fig. 13).
    pub fn wheel_subsystem(&self) -> &CtmcReliability {
        &self.wn
    }

    /// System reliability over a time grid (hours) — one Fig. 12 curve.
    pub fn reliability_series(&self, grid_hours: &[f64]) -> Vec<f64> {
        grid_hours.iter().map(|&t| self.reliability(t)).collect()
    }

    /// System mean time to failure in hours, by numeric integration of
    /// `R(t)` (subsystems interact through the product, so no closed-form
    /// Markov MTTF exists at the system level).
    pub fn mttf_hours(&self) -> f64 {
        mttf_numeric(self, 1e-7)
    }

    /// Subsystem MTTFs (CU, WN) in hours, exact from the Markov chains.
    ///
    /// # Errors
    ///
    /// Propagates [`CtmcError`] if a chain's MTTF diverges.
    pub fn subsystem_mttf_hours(&self) -> Result<(f64, f64), CtmcError> {
        Ok((self.cu.mttf()?, self.wn.mttf()?))
    }
}

impl ReliabilityModel for BbwSystem {
    fn reliability(&self, t_hours: f64) -> f64 {
        self.tree.reliability(t_hours)
    }
}

/// Hours in one year, as used by the paper's Fig. 12.
pub const HOURS_PER_YEAR: f64 = 8_760.0;

/// Value-domain parameters extending the Fig. 5 fault tree: failure
/// rates of the pedal-sensor channels and wheel actuators, and the
/// *measured* detection coverage of the value-domain layers (voter +
/// plausibility, divergence monitor) — the `c_v` that
/// [`crate::value_campaign::ValueDomainCampaignResult::detection_coverage`]
/// estimates by experiment instead of assuming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueDomainParams {
    /// Failure rate of one pedal-sensor channel (per hour).
    pub lambda_sensor: f64,
    /// Failure rate of one wheel brake actuator (per hour).
    pub lambda_actuator: f64,
    /// Probability a sensor value fault is masked by the vote or
    /// detected by plausibility/demotion.
    pub sensor_coverage: f64,
    /// Probability an actuator value fault is caught by the divergence
    /// monitor and failed to safe release.
    pub actuator_coverage: f64,
}

impl ValueDomainParams {
    /// Nominal assignment: sensors an order of magnitude more reliable
    /// than processors, actuators electromechanical and worse, both
    /// detection layers near-perfect (the campaign measures ≈ 1.0).
    pub fn nominal() -> Self {
        ValueDomainParams {
            lambda_sensor: 2.0e-6,
            lambda_actuator: 5.0e-6,
            sensor_coverage: 0.99,
            actuator_coverage: 0.99,
        }
    }

    /// The same parameters with both coverages replaced.
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        self.sensor_coverage = coverage;
        self.actuator_coverage = coverage;
        self
    }
}

/// The BBW system with the value domain in the fault tree: on top of the
/// Fig. 5 `F_sys = F_CU ∨ F_WN` structure,
///
/// * the triplicated pedal fails when **2 of 3** channels have failed
///   (redundancy exhausted — demotion makes this visible but cannot
///   replace lost channels), *or* when any single channel failure slips
///   past the voter/plausibility layer ([`CoveredModel`] leaves with
///   `1 − c_s`);
/// * the actuator set fails when **2 of 4** wheels have had their
///   (detected, failed-safe) actuator failures — matching the cluster's
///   `< 3` serving-wheels service rule — *or* when any single actuator
///   fault goes undetected by the divergence monitor (`1 − c_a`), a
///   runaway applying undemanded force.
///
/// Node-level policy (FS vs NLFT) only affects the CU/WN subtrees, so
/// comparing the two policies under decreasing value-domain coverage
/// shows the NLFT gain being eroded by a detection floor both share.
#[derive(Debug, Clone)]
pub struct ValueDomainSystem {
    /// Node-level policy used for CU and wheel nodes.
    pub policy: Policy,
    /// Value-domain parameter assignment.
    pub value: ValueDomainParams,
    tree: HierarchicalTree,
}

impl ValueDomainSystem {
    /// Builds the extended system model.
    ///
    /// # Panics
    ///
    /// Panics if a coverage parameter is outside `[0, 1]` or a rate is
    /// negative.
    pub fn new(
        params: &BbwParams,
        policy: Policy,
        functionality: Functionality,
        value: &ValueDomainParams,
    ) -> Self {
        let cu = Arc::new(central_unit(params, policy));
        let wn = Arc::new(wheel_subsystem(params, policy, functionality));
        let sensor = Exponential::new(value.lambda_sensor);
        let actuator = Exponential::new(value.lambda_actuator);
        let sensor_miss = CoveredModel::new(sensor, value.sensor_coverage);
        let actuator_miss = CoveredModel::new(actuator, value.actuator_coverage);

        let mut ft = FaultTreeBuilder::new();
        let cu_ev = ft.basic_event("central unit subsystem fails");
        let wn_ev = ft.basic_event("wheel node subsystem fails");
        let mut models: Vec<Arc<dyn ReliabilityModel + Send + Sync>> =
            vec![cu.clone() as _, wn.clone() as _];

        let sensor_chs: Vec<_> = (0..3)
            .map(|i| {
                models.push(Arc::new(sensor));
                ft.basic_event(format!("pedal channel {i} fails"))
            })
            .collect();
        let sensor_redundancy = ft.k_of_n(2, sensor_chs);
        let sensor_misses: Vec<_> = (0..3)
            .map(|i| {
                models.push(Arc::new(sensor_miss));
                ft.basic_event(format!("pedal channel {i} fault undetected"))
            })
            .collect();
        let mut sensor_children = vec![sensor_redundancy];
        sensor_children.extend(sensor_misses);
        let sensors = ft.or(sensor_children);

        let act_detected: Vec<_> = (0..4)
            .map(|w| {
                models.push(Arc::new(actuator));
                ft.basic_event(format!("wheel {w} actuator fails safe"))
            })
            .collect();
        let act_redundancy = ft.k_of_n(2, act_detected);
        let act_misses: Vec<_> = (0..4)
            .map(|w| {
                models.push(Arc::new(actuator_miss));
                ft.basic_event(format!("wheel {w} actuator fault undetected"))
            })
            .collect();
        let mut act_children = vec![act_redundancy];
        act_children.extend(act_misses);
        let actuators = ft.or(act_children);

        let top = ft.or(vec![cu_ev, wn_ev, sensors, actuators]);
        let tree = HierarchicalTree::new(ft.build(top), models);
        ValueDomainSystem {
            policy,
            value: *value,
            tree,
        }
    }

    /// System mean time to failure in hours (numeric integration).
    pub fn mttf_hours(&self) -> f64 {
        mttf_numeric(self, 1e-7)
    }
}

impl ReliabilityModel for ValueDomainSystem {
    fn reliability(&self, t_hours: f64) -> f64 {
        self.tree.reliability(t_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(policy: Policy, functionality: Functionality) -> BbwSystem {
        BbwSystem::new(&BbwParams::paper(), policy, functionality)
    }

    #[test]
    fn reliability_starts_at_one_and_decreases() {
        for policy in [Policy::FailSilent, Policy::Nlft] {
            for func in [Functionality::Full, Functionality::Degraded] {
                let s = sys(policy, func);
                assert!((s.reliability(0.0) - 1.0).abs() < 1e-9);
                let r1 = s.reliability(1_000.0);
                let r2 = s.reliability(5_000.0);
                assert!(r1 > r2, "{policy:?}/{func:?} must decrease");
                assert!(r2 > 0.0);
            }
        }
    }

    #[test]
    fn degraded_beats_full_functionality() {
        for policy in [Policy::FailSilent, Policy::Nlft] {
            let full = sys(policy, Functionality::Full);
            let degraded = sys(policy, Functionality::Degraded);
            let t = HOURS_PER_YEAR;
            assert!(
                degraded.reliability(t) > full.reliability(t),
                "{policy:?}: allowing 3-of-4 must improve reliability"
            );
        }
    }

    #[test]
    fn nlft_beats_fs_in_every_mode() {
        for func in [Functionality::Full, Functionality::Degraded] {
            let fs = sys(Policy::FailSilent, func);
            let nlft = sys(Policy::Nlft, func);
            for &t in &[100.0, 1_000.0, HOURS_PER_YEAR] {
                assert!(
                    nlft.reliability(t) > fs.reliability(t),
                    "{func:?} at {t}h: NLFT {} <= FS {}",
                    nlft.reliability(t),
                    fs.reliability(t)
                );
            }
        }
    }

    /// The headline claim of the paper: degraded-mode reliability after one
    /// year improves by roughly 55% (0.45 → 0.70) with NLFT nodes.
    #[test]
    fn paper_figure12_headline_numbers() {
        let fs = sys(Policy::FailSilent, Functionality::Degraded);
        let nlft = sys(Policy::Nlft, Functionality::Degraded);
        let r_fs = fs.reliability(HOURS_PER_YEAR);
        let r_nlft = nlft.reliability(HOURS_PER_YEAR);
        // The paper reports 0.45 and 0.70; our reconstruction should land
        // near those (transition labels were reconstructed, so allow slack).
        assert!(
            (0.35..=0.55).contains(&r_fs),
            "FS degraded R(1y) = {r_fs}, paper says 0.45"
        );
        assert!(
            (0.60..=0.80).contains(&r_nlft),
            "NLFT degraded R(1y) = {r_nlft}, paper says 0.70"
        );
        let improvement = (r_nlft - r_fs) / r_fs;
        assert!(
            improvement > 0.3,
            "improvement {improvement} should be large (paper: 55%)"
        );
    }

    /// MTTF claim: 1.2 years → 1.9 years (+~60%).
    #[test]
    fn paper_mttf_headline_numbers() {
        let fs = sys(Policy::FailSilent, Functionality::Degraded);
        let nlft = sys(Policy::Nlft, Functionality::Degraded);
        let mttf_fs_years = fs.mttf_hours() / HOURS_PER_YEAR;
        let mttf_nlft_years = nlft.mttf_hours() / HOURS_PER_YEAR;
        assert!(
            (0.9..=1.5).contains(&mttf_fs_years),
            "FS degraded MTTF = {mttf_fs_years} years, paper says 1.2"
        );
        assert!(
            (1.5..=2.3).contains(&mttf_nlft_years),
            "NLFT degraded MTTF = {mttf_nlft_years} years, paper says 1.9"
        );
        let gain = mttf_nlft_years / mttf_fs_years - 1.0;
        assert!(gain > 0.35, "MTTF gain {gain}, paper says ~60%");
    }

    /// Fig. 13: the wheel-node subsystem is the reliability bottleneck.
    #[test]
    fn wheel_subsystem_is_bottleneck() {
        for policy in [Policy::FailSilent, Policy::Nlft] {
            let s = sys(policy, Functionality::Degraded);
            let t = HOURS_PER_YEAR;
            let r_cu = s.central_unit().reliability(t);
            let r_wn = s.wheel_subsystem().reliability(t);
            assert!(
                r_wn < r_cu,
                "{policy:?}: WN {r_wn} should be below CU {r_cu}"
            );
        }
    }

    #[test]
    fn system_reliability_is_product_of_subsystems() {
        let s = sys(Policy::Nlft, Functionality::Degraded);
        let t = 4_000.0;
        let product = s.central_unit().reliability(t) * s.wheel_subsystem().reliability(t);
        assert!((s.reliability(t) - product).abs() < 1e-9);
    }

    #[test]
    fn full_fs_matches_series_rbd_closed_form() {
        let p = BbwParams::paper();
        let s = wheel_subsystem(&p, Policy::FailSilent, Functionality::Full);
        let t = 2_000.0;
        let expect = (-4.0 * p.total_fault_rate() * t).exp();
        assert!((s.reliability(t) - expect).abs() < 1e-9);
    }

    #[test]
    fn full_nlft_matches_closed_form() {
        let p = BbwParams::paper();
        let s = wheel_subsystem(&p, Policy::Nlft, Functionality::Full);
        let t = 2_000.0;
        let expect = (-4.0 * p.nlft_unmasked_rate() * t).exp();
        assert!((s.reliability(t) - expect).abs() < 1e-9);
    }

    /// Fig. 14: coverage dominates; the fault-rate effect is small while
    /// fault rates stay far below repair rates.
    #[test]
    fn coverage_dominates_at_five_hours() {
        let t = 5.0;
        let base = BbwParams::paper();
        let low_cov = BbwSystem::new(
            &base.with_coverage(0.9),
            Policy::Nlft,
            Functionality::Degraded,
        );
        let high_cov = BbwSystem::new(
            &base.with_coverage(0.9999),
            Policy::Nlft,
            Functionality::Degraded,
        );
        let diff_cov = high_cov.reliability(t) - low_cov.reliability(t);
        assert!(diff_cov > 0.0);

        let low_rate = BbwSystem::new(
            &base.with_transient_multiplier(1.0),
            Policy::Nlft,
            Functionality::Degraded,
        );
        let high_rate = BbwSystem::new(
            &base.with_transient_multiplier(10.0),
            Policy::Nlft,
            Functionality::Degraded,
        );
        let diff_rate = low_rate.reliability(t) - high_rate.reliability(t);
        assert!(
            diff_cov > diff_rate,
            "coverage effect {diff_cov} must exceed rate effect {diff_rate}"
        );
    }

    /// Fig. 14: the NLFT advantage grows with the transient fault rate.
    #[test]
    fn nlft_advantage_grows_with_fault_rate() {
        let t = 5.0;
        let adv = |mult: f64| {
            let p = BbwParams::paper().with_transient_multiplier(mult);
            let fs = BbwSystem::new(&p, Policy::FailSilent, Functionality::Degraded);
            let nl = BbwSystem::new(&p, Policy::Nlft, Functionality::Degraded);
            nl.reliability(t) - fs.reliability(t)
        };
        let a1 = adv(1.0);
        let a100 = adv(100.0);
        let a1000 = adv(1000.0);
        assert!(a100 > a1, "{a100} vs {a1}");
        assert!(a1000 > a100, "{a1000} vs {a100}");
    }

    #[test]
    fn simplex_nlft_rivals_duplex_fs_when_omissions_are_tolerable() {
        // The §1 cost argument: one NLFT node can approach (here: exceed)
        // the reliability of two FS nodes, when the consumer tolerates
        // short omissions.
        let p = BbwParams::paper();
        let duplex_fs = central_unit(&p, Policy::FailSilent);
        let simplex_nlft = simplex_station(&p, Policy::Nlft, true);
        let t = HOURS_PER_YEAR;
        let (r_duplex, r_simplex) = (duplex_fs.reliability(t), simplex_nlft.reliability(t));
        assert!(
            r_simplex > r_duplex - 0.05,
            "one NLFT node ({r_simplex:.4}) should rival two FS nodes ({r_duplex:.4})"
        );
    }

    #[test]
    fn strict_simplex_is_worse_than_tolerant_simplex() {
        let p = BbwParams::paper();
        let t = HOURS_PER_YEAR;
        for policy in [Policy::FailSilent, Policy::Nlft] {
            let strict = simplex_station(&p, policy, false);
            let tolerant = simplex_station(&p, policy, true);
            assert!(
                tolerant.reliability(t) > strict.reliability(t),
                "{policy:?}: omission tolerance must help"
            );
        }
    }

    #[test]
    fn strict_simplex_matches_closed_forms() {
        let p = BbwParams::paper();
        let t = 3_000.0;
        let fs = simplex_station(&p, Policy::FailSilent, false);
        assert!((fs.reliability(t) - (-p.total_fault_rate() * t).exp()).abs() < 1e-9);
        let nlft = simplex_station(&p, Policy::Nlft, false);
        assert!((nlft.reliability(t) - (-p.nlft_unmasked_rate() * t).exp()).abs() < 1e-9);
    }

    #[test]
    fn subsystem_mttfs_are_finite_and_ordered() {
        let s = sys(Policy::Nlft, Functionality::Degraded);
        let (cu, wn) = s.subsystem_mttf_hours().unwrap();
        assert!(cu > 0.0 && wn > 0.0);
        assert!(wn < cu, "bottleneck has the smaller MTTF");
        // System MTTF below both subsystem MTTFs.
        let sys_mttf = s.mttf_hours();
        assert!(sys_mttf < wn && sys_mttf < cu);
    }

    fn value_sys(policy: Policy, coverage: f64) -> ValueDomainSystem {
        ValueDomainSystem::new(
            &BbwParams::paper(),
            policy,
            Functionality::Degraded,
            &ValueDomainParams::nominal().with_coverage(coverage),
        )
    }

    #[test]
    fn value_domain_events_only_lower_reliability() {
        let plain = sys(Policy::Nlft, Functionality::Degraded);
        let extended = value_sys(Policy::Nlft, 0.99);
        let t = HOURS_PER_YEAR;
        assert!(extended.reliability(t) < plain.reliability(t));
        // With vanishing value-domain rates the extension reduces to the
        // plain Fig. 5 tree.
        let negligible = ValueDomainSystem::new(
            &BbwParams::paper(),
            Policy::Nlft,
            Functionality::Degraded,
            &ValueDomainParams {
                lambda_sensor: 1e-15,
                lambda_actuator: 1e-15,
                ..ValueDomainParams::nominal()
            },
        );
        assert!((negligible.reliability(t) - plain.reliability(t)).abs() < 1e-9);
    }

    #[test]
    fn value_domain_reliability_is_monotone_in_coverage() {
        let t = HOURS_PER_YEAR;
        let mut last = -1.0;
        for c in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let r = value_sys(Policy::Nlft, c).reliability(t);
            assert!(r > last, "coverage {c}: {r} must beat {last}");
            last = r;
        }
    }

    #[test]
    fn imperfect_value_coverage_erodes_the_nlft_gain() {
        let t = HOURS_PER_YEAR;
        // The value-domain subtree is policy-independent, so the
        // *reliability ratio* R_nlft/R_fs factors out exactly — the
        // erosion shows in the failure-probability improvement
        // U_fs/U_nlft, which a shared undetected-failure floor drags
        // toward 1.
        let gain = |c: f64| {
            value_sys(Policy::FailSilent, c).unreliability(t)
                / value_sys(Policy::Nlft, c).unreliability(t)
        };
        let g_high = gain(0.999);
        let g_mid = gain(0.9);
        let g_low = gain(0.5);
        assert!(
            g_high > 1.0 && g_mid > 1.0 && g_low > 1.0,
            "NLFT always wins"
        );
        assert!(
            g_high > g_mid && g_mid > g_low,
            "gain must erode: {g_high} > {g_mid} > {g_low}"
        );
        // And the sanity anchor: with near-perfect value coverage the
        // improvement factor approaches the plain-tree one.
        let plain = BbwSystem::new(
            &BbwParams::paper(),
            Policy::FailSilent,
            Functionality::Degraded,
        )
        .unreliability(t)
            / sys(Policy::Nlft, Functionality::Degraded).unreliability(t);
        assert!((gain(1.0) - plain).abs() / plain < 0.05);
    }

    #[test]
    fn coverage_misses_outweigh_redundancy_exhaustion_at_low_coverage() {
        let t = HOURS_PER_YEAR;
        let u = |c: f64| value_sys(Policy::Nlft, c).unreliability(t);
        let plain = sys(Policy::Nlft, Functionality::Degraded).unreliability(t);
        // With perfect coverage the extension only adds the 2-of-3 /
        // 2-of-4 redundancy-exhaustion events; at c = 0.5 the undetected
        // single-fault events must dwarf that contribution.
        let redundancy_cost = u(1.0) - plain;
        let coverage_cost = u(0.5) - u(1.0);
        assert!(redundancy_cost > 0.0);
        assert!(
            coverage_cost > 5.0 * redundancy_cost,
            "silent failures should dominate: {coverage_cost} vs {redundancy_cost}"
        );
    }
}
