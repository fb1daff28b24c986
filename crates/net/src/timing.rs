//! Wall-clock timing of the communication cycle, and the derivation of the
//! paper's repair rates from it.
//!
//! §3.3 of the paper grounds its Markov repair rates in measured TTP/C
//! timings (ref. 16): a TDMA round of ~20 ms, a node needing ~1.6 s (80
//! rounds) to restart its OS and be reintegrated, plus ~1.4 s of hardware
//! reset and diagnostics — 3 s total for a fail-silent restart, hence
//! `μ_R = 1.2e3`/h and `μ_OM = 2.25e3`/h. This module reproduces that
//! derivation from first principles: bus geometry × membership thresholds
//! × node-local recovery times → repair rates.

use nlft_sim::time::SimDuration;

use crate::bus::BusConfig;
use crate::membership::Membership;

/// Wall-clock geometry of one communication cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTiming {
    /// Duration of one static slot.
    pub slot_duration: SimDuration,
    /// Duration of one dynamic mini-slot.
    pub minislot_duration: SimDuration,
}

impl BusTiming {
    /// The TTP/C-like geometry behind the paper's constants: with the
    /// membership thresholds of [`paper_membership`], reintegration takes
    /// 1.6 s and a full restart 3 s.
    pub fn paper_like() -> Self {
        BusTiming {
            // 20 ms TDMA round with 6 static slots.
            slot_duration: SimDuration::from_micros(20_000 / 6),
            minislot_duration: SimDuration::from_micros(200),
        }
    }

    /// Wall-clock duration of one full cycle under a configuration.
    pub(crate) fn cycle_duration(&self, config: &BusConfig) -> SimDuration {
        self.slot_duration * config.static_slots.len() as u64
            + self.minislot_duration * u64::from(config.dynamic_minislots)
    }
}

/// Membership thresholds matching the paper's measured latencies: at a
/// ~20 ms round, 80 rounds to readmission reproduces the 1.6 s
/// reintegration time of ref. 16.
pub fn paper_membership(config: &BusConfig) -> Membership {
    Membership::new(config, 2, 80)
}

/// Node-local recovery times that, combined with the bus, yield the
/// paper's repair rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecoveryTimes {
    /// Hardware reset plus the off-line diagnostic distinguishing transient
    /// from permanent faults (paper: ~1.4 s).
    pub reset_and_diagnosis: SimDuration,
}

impl NodeRecoveryTimes {
    /// The paper's ~1.4 s figure.
    pub fn paper_like() -> Self {
        NodeRecoveryTimes {
            reset_and_diagnosis: SimDuration::from_millis(1_400),
        }
    }
}

/// Derived repair rates, in repairs per hour — the `μ` parameters of the
/// Markov models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedRepairRates {
    /// Time from an omission to being a full member again.
    pub omission_latency: SimDuration,
    /// Time from a fail-silent shutdown to full membership (reset +
    /// diagnosis + reintegration).
    pub restart_latency: SimDuration,
    /// `μ_OM` per hour.
    pub mu_om: f64,
    /// `μ_R` per hour.
    pub mu_r: f64,
}

/// Derives the repair rates from bus geometry, membership thresholds and
/// node recovery times (the §3.3 computation, made explicit).
pub fn derive_repair_rates(
    timing: &BusTiming,
    config: &BusConfig,
    membership: &Membership,
    recovery: &NodeRecoveryTimes,
) -> DerivedRepairRates {
    let cycle = timing.cycle_duration(config);
    let reintegration = cycle * u64::from(membership.reintegration_latency_cycles());
    let omission_latency = reintegration;
    let restart_latency = recovery.reset_and_diagnosis + reintegration;
    let to_rate = |d: SimDuration| 3_600.0 / d.as_secs_f64();
    DerivedRepairRates {
        omission_latency,
        restart_latency,
        mu_om: to_rate(omission_latency),
        mu_r: to_rate(restart_latency),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;

    #[test]
    fn paper_geometry_reproduces_paper_rates() {
        let config = BusConfig::round_robin(6, 0);
        let timing = BusTiming::paper_like();
        let membership = paper_membership(&config);
        let recovery = NodeRecoveryTimes::paper_like();
        let rates = derive_repair_rates(&timing, &config, &membership, &recovery);

        // Reintegration ≈ 1.6 s → μ_OM ≈ 2.25e3/h.
        let om_secs = rates.omission_latency.as_secs_f64();
        assert!(
            (om_secs - 1.6).abs() < 0.05,
            "omission latency {om_secs}s, paper says 1.6s"
        );
        assert!(
            (rates.mu_om - 2.25e3).abs() / 2.25e3 < 0.05,
            "mu_om {} vs paper 2.25e3",
            rates.mu_om
        );

        // Restart = 1.4 s + 1.6 s ≈ 3 s → μ_R ≈ 1.2e3/h.
        let r_secs = rates.restart_latency.as_secs_f64();
        assert!(
            (r_secs - 3.0).abs() < 0.05,
            "restart {r_secs}s, paper says 3s"
        );
        assert!(
            (rates.mu_r - 1.2e3).abs() / 1.2e3 < 0.05,
            "mu_r {} vs paper 1.2e3",
            rates.mu_r
        );
    }

    #[test]
    fn cycle_duration_accounts_for_both_segments() {
        let timing = BusTiming {
            slot_duration: SimDuration::from_millis(2),
            minislot_duration: SimDuration::from_micros(100),
        };
        let config = BusConfig::round_robin(4, 10);
        assert_eq!(
            timing.cycle_duration(&config),
            SimDuration::from_millis(8) + SimDuration::from_micros(1_000)
        );
    }

    #[test]
    fn slower_bus_means_slower_repairs() {
        let config = BusConfig::round_robin(6, 0);
        let membership = paper_membership(&config);
        let recovery = NodeRecoveryTimes::paper_like();
        let fast = derive_repair_rates(&BusTiming::paper_like(), &config, &membership, &recovery);
        let slow_timing = BusTiming {
            slot_duration: SimDuration::from_millis(10),
            minislot_duration: SimDuration::from_micros(200),
        };
        let slow = derive_repair_rates(&slow_timing, &config, &membership, &recovery);
        assert!(slow.mu_om < fast.mu_om);
        assert!(slow.mu_r < fast.mu_r);
        assert!(slow.omission_latency > fast.omission_latency);
    }
}
